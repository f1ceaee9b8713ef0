"""AnalysisReport serialization and the search guide's predicates."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis import AnalysisReport, InstructionAnalysis, SearchGuide
from repro.analysis.report import REPORT_VERSION


def _ia(addr, verdict="pass", why="", node_id="INSN01", **over):
    fields = dict(
        addr=addr,
        node_id=node_id,
        mnemonic="addsd",
        execs=10,
        min_abs=1e-3,
        max_abs=2.5,
        cancel_events=1,
        cancel_max_bits=12,
        max_local_err=1e-8,
        max_shadow_err=1e-5,
        overflow=0,
        underflow=0,
        flips=0,
        verdict=verdict,
        verdict_why=why,
    )
    fields.update(over)
    return InstructionAnalysis(**fields)


def _report(entries):
    return AnalysisReport(
        workload="w",
        program="p",
        candidates=len(entries),
        observed=len(entries),
        instructions={ia.addr: ia for ia in entries},
    )


class TestReportSerialization:
    def test_roundtrip_preserves_everything(self):
        report = _report([
            _ia(0x10, "pass"),
            _ia(0x20, "fail", max_local_err=math.inf),
            _ia(0x30, "unknown", why="compare-flip", min_abs=math.inf),
        ])
        back = AnalysisReport.loads(report.dumps())
        assert back == report

    def test_json_is_plain_and_versioned(self):
        report = _report([_ia(0x10, max_local_err=math.inf)])
        payload = json.loads(report.dumps())
        assert payload["version"] == REPORT_VERSION
        entry = payload["instructions"][0]
        assert entry["max_local_err"] == "inf"  # no bare Infinity in JSON
        assert entry["verdict"] == "pass"

    def test_unsupported_version_rejected(self):
        report = _report([_ia(0x10)])
        payload = report.to_json()
        payload["version"] = 1
        with pytest.raises(ValueError, match="version"):
            AnalysisReport.from_json(payload)

    def test_verdict_histogram_breaks_out_reasons(self):
        report = _report([
            _ia(0x10, "pass"),
            _ia(0x20, "fail"),
            _ia(0x30, "unknown", why="movqrx"),
            _ia(0x40, "unknown", why="movqrx"),
            _ia(0x50, "unknown", why="compare-flip"),
        ])
        assert report.verdict_histogram() == {
            "fail": 1,
            "pass": 1,
            "unknown:compare-flip": 1,
            "unknown:movqrx": 2,
        }

    def test_summarize_includes_verdict_census(self):
        report = _report([_ia(0x10, "pass"), _ia(0x20, "fail")])
        summary = report.summarize([0x10, 0x20, 0x999])
        assert summary["verdicts"] == {"pass": 1, "fail": 1}
        assert summary["execs"] == 20


class TestSearchGuide:
    def test_predict_fail_only_on_failing_singletons(self):
        report = _report([
            _ia(0x10, "fail"),
            _ia(0x20, "pass"),
            _ia(0x30, "unknown", why="movqrx"),
        ])
        guide = SearchGuide(report)
        assert guide.predict_fail([0x10])
        assert not guide.predict_fail([0x20])
        assert not guide.predict_fail([0x30])      # unknown: must evaluate
        assert not guide.predict_fail([0x10, 0x20])  # groups: never pruned
        assert not guide.predict_fail([0x999])     # unobserved: must evaluate

    def test_replaceable_rank(self):
        report = _report([
            _ia(0x10, "pass"),
            _ia(0x20, "pass"),
            _ia(0x30, "fail"),
            _ia(0x40, "unknown", why="movqrx"),
        ])
        guide = SearchGuide(report)
        assert guide.replaceable_rank([0x10, 0x20]) == 1
        assert guide.replaceable_rank([0x10, 0x30]) == 0
        assert guide.replaceable_rank([0x40]) == 0  # unknown is not "pass"
        assert guide.replaceable_rank([0x999]) == 0  # nothing observed


class TestPredictUnfit:
    """The lattice width-seeding predicate (range-based, fires on groups)."""

    def _guide(self, entries):
        return SearchGuide(_report(entries))

    def test_overflowing_range_is_unfit(self):
        from repro.lattice import F16

        guide = self._guide([_ia(0x10, min_abs=1.0, max_abs=1e6)])
        assert guide.predict_unfit([0x10], F16)

    def test_underflowing_range_is_unfit(self):
        from repro.lattice import F16

        guide = self._guide([_ia(0x10, min_abs=1e-9, max_abs=1.0)])
        assert guide.predict_unfit([0x10], F16)

    def test_fitting_range_is_not_pruned(self):
        from repro.lattice import BF16, F16

        guide = self._guide([_ia(0x10, min_abs=1e-3, max_abs=100.0)])
        assert not guide.predict_unfit([0x10], F16)
        assert not guide.predict_unfit([0x10], BF16)

    def test_one_unfit_member_prunes_the_group(self):
        from repro.lattice import F16

        guide = self._guide([
            _ia(0x10, min_abs=1.0, max_abs=2.0),
            _ia(0x20, min_abs=1.0, max_abs=1e6),
        ])
        assert guide.predict_unfit([0x10, 0x20], F16)
        assert not guide.predict_unfit([0x10], F16)

    def test_unobserved_addrs_must_evaluate(self):
        from repro.lattice import F16

        guide = self._guide([_ia(0x10)])
        assert not guide.predict_unfit([0x999], F16)

    def test_wider_rung_tolerates_what_f16_cannot(self):
        from repro.lattice import BF16, F16

        guide = self._guide([_ia(0x10, min_abs=2.0, max_abs=262144.0)])
        assert guide.predict_unfit([0x10], F16)
        assert not guide.predict_unfit([0x10], BF16)
