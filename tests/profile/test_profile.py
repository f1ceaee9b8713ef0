"""Profiler tests: bit-identity, attribution, serialization, telemetry.

The acceptance-critical property is the differential one: the profile
document :func:`collect_profile` builds from counters riding fused
dispatch must be byte-identical to the one built from a
``VM(..., fused=False, profile=True)`` run, the reference oracle.
"""

import json

import pytest

from repro.config.generator import build_tree
from repro.profile import (
    PROFILE_VERSION,
    build_profile,
    collect_profile,
    dumps,
    load_profile,
)
from repro.telemetry import ListSink, MetricsRegistry, Telemetry
from repro.vm.machine import VM
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("cg", "S")


@pytest.fixture(scope="module")
def profile(workload):
    return collect_profile(workload)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "name", ("cg.S", "mg.W", "ep.T", "ft.T", "nekcg.T", "lu.S")
    )
    def test_fused_and_reference_profiles_are_byte_identical(self, name):
        workload = make_workload(*name.split("."))
        fused = collect_profile(workload)
        vm = VM(
            workload.program, fused=False, profile=True, **workload.vm_params()
        )
        result = vm.run()
        reference = build_profile(
            workload, build_tree(workload.program), vm.instruction_stats(),
            result,
        )
        assert dumps(fused) == dumps(reference)


class TestDocument:
    def test_versioned_and_totals_consistent(self, profile, workload):
        assert profile["version"] == PROFILE_VERSION
        assert profile["program"] == workload.program.name
        assert profile["steps"] > 0
        # Static attribution (execs x fall-through cost) sums to
        # attributed_cycles; the dynamic total also includes the extra
        # cost of taken branches, so it can only be larger.
        assert (
            sum(s["cycles"] for s in profile["sites"])
            == profile["attributed_cycles"]
        )
        assert profile["attributed_cycles"] <= profile["cycles"]
        assert profile["candidate_cycles"] <= profile["attributed_cycles"]

    def test_candidate_sites_carry_tree_nodes(self, profile, workload):
        tree = build_tree(workload.program)
        candidate_nodes = {s["node"] for s in profile["sites"] if s["node"]}
        assert candidate_nodes == set(
            node.node_id for node in tree.by_addr.values()
        )
        # Candidate cycles equal the sum over node-attributed sites.
        assert profile["candidate_cycles"] == sum(
            s["cycles"] for s in profile["sites"] if s["node"]
        )

    def test_rollups_sum_to_candidate_cycles(self, profile):
        for level in ("blocks", "functions", "modules"):
            rollup = profile[level]
            assert rollup, f"empty {level} rollup"
            assert (
                sum(entry["cycles"] for entry in rollup.values())
                == profile["candidate_cycles"]
            ), level

    def test_opcode_rollup_matches_sites(self, profile):
        per = {}
        for site in profile["sites"]:
            entry = per.setdefault(site["mnemonic"], [0, 0])
            entry[0] += site["execs"]
            entry[1] += site["cycles"]
        assert profile["opcodes"] == {
            m: {"execs": e, "cycles": c} for m, (e, c) in per.items()
        }

    def test_dumps_load_roundtrip(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(dumps(profile))
        assert load_profile(str(path)) == profile
        # Canonical serialization: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == profile

    def test_load_rejects_wrong_version(self, profile, tmp_path):
        stale = dict(profile, version=PROFILE_VERSION + 1)
        path = tmp_path / "stale.json"
        path.write_text(dumps(stale))
        with pytest.raises(ValueError, match="version"):
            load_profile(str(path))


class TestTelemetry:
    def test_emits_census_and_per_site_events(self, workload):
        sink = ListSink()
        registry = MetricsRegistry()
        with Telemetry(sinks=[sink], metrics=registry) as telemetry:
            doc = collect_profile(workload, telemetry=telemetry)
        census = [e for e in sink.events if e["kind"] == "profile.census"]
        sites = [e for e in sink.events if e["kind"] == "profile.site"]
        assert len(census) == 1
        assert census[0]["cycles"] == doc["cycles"]
        assert census[0]["sites"] == len(doc["sites"])
        assert len(sites) == len(doc["sites"])
        by_addr = {s["addr"]: s for s in sites}
        for site in doc["sites"]:
            event = by_addr[site["addr"]]
            assert event["execs"] == site["execs"]
            assert event["cycles"] == site["cycles"]
            assert event["node"] == site["node"]
        assert registry.counters["events.profile.census"] == 1

    def test_profile_events_pass_validation(self, workload):
        sink = ListSink()
        # conftest forces validate=True suite-wide; an invalid profile
        # event would raise inside collect_profile.
        with Telemetry(sinks=[sink]) as telemetry:
            assert telemetry.validate
            collect_profile(workload, telemetry=telemetry)
        assert any(e["kind"] == "profile.site" for e in sink.events)
