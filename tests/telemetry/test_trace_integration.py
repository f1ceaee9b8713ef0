"""End-to-end trace tests: a real search, a real VM run, a real MPI run.

The load-bearing guarantees checked here:

* a traced search emits a schema-valid JSONL file whose ``eval.config``
  count equals ``SearchResult.configs_tested`` exactly;
* the metrics registry (fed by the same stream) reconciles with both;
* attaching telemetry never changes VM cycle counts;
* the MPI scheduler's compute/comm attribution sums to each rank's clock.
"""

import json

import pytest

from repro.compiler import compile_source
from repro.mpi.runner import run_mpi_program
from repro.search.bfs import SearchEngine, SearchOptions
from repro.telemetry import (
    JsonlSink,
    ListSink,
    MetricsRegistry,
    Telemetry,
    validate_event,
)
from repro.telemetry.sinks import read_trace
from repro.vm.machine import run_program
from repro.workloads import Workload, make_workload


@pytest.fixture(scope="module")
def traced_search(tmp_path_factory):
    """One CG class-S search traced to JSONL with metrics attached."""
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    registry = MetricsRegistry()
    workload = make_workload("cg", "S")
    with Telemetry(sinks=[JsonlSink(str(path))], metrics=registry) as telemetry:
        result = SearchEngine(workload, telemetry=telemetry).run()
    return path, registry, result


class TestSearchTrace:
    def test_every_line_is_schema_valid(self, traced_search):
        path, _registry, _result = traced_search
        events = read_trace(str(path))
        assert events
        for event in events:
            validate_event(event)

    def test_trace_has_all_layers(self, traced_search):
        path, _registry, _result = traced_search
        kinds = {event["kind"] for event in read_trace(str(path))}
        # The acceptance floor is four distinct kinds; a full search
        # produces the search span, per-config evaluations, per-program
        # instrumentation counters, and the VM opcode census.
        assert {
            "search.begin",
            "search.end",
            "search.eval",
            "search.queue",
            "eval.config",
            "instr.stats",
            "vm.opcodes",
        } <= kinds
        assert len(kinds) >= 4

    def test_eval_config_count_equals_configs_tested(self, traced_search):
        path, _registry, result = traced_search
        events = read_trace(str(path))
        n_eval = sum(1 for e in events if e["kind"] == "eval.config")
        assert n_eval == result.configs_tested

    def test_search_eval_count_equals_history(self, traced_search):
        path, _registry, result = traced_search
        events = read_trace(str(path))
        n_eval = sum(1 for e in events if e["kind"] == "search.eval")
        assert n_eval == len(result.history)

    def test_search_end_reports_result_numbers(self, traced_search):
        path, _registry, result = traced_search
        (end,) = [e for e in read_trace(str(path)) if e["kind"] == "search.end"]
        assert end["tested"] == result.configs_tested
        assert end["final"] == ("pass" if result.final_verified else "fail")

    def test_metrics_reconcile_with_trace(self, traced_search):
        path, registry, result = traced_search
        events = read_trace(str(path))
        assert registry.get("eval.configs") == result.configs_tested
        assert registry.get("events.search.eval") == len(result.history)
        pass_count = sum(
            1 for e in events if e["kind"] == "search.eval" and e["passed"]
        )
        assert registry.get("search.pass") == pass_count
        assert "telemetry metrics:" in registry.summary()

    def test_history_has_wall_times(self, traced_search):
        _path, _registry, result = traced_search
        assert all(record.wall_s > 0.0 for record in result.history)

    def test_opcode_census_is_consistent(self, traced_search):
        path, _registry, _result = traced_search
        (census,) = [e for e in read_trace(str(path)) if e["kind"] == "vm.opcodes"]
        total_execs = sum(op["execs"] for op in census["opcodes"].values())
        assert total_execs == census["steps"]
        # statically attributed cycles never exceed the true clock
        # (taken-branch extras are excluded by design)
        total_cycles = sum(op["cycles"] for op in census["opcodes"].values())
        assert 0 < total_cycles <= census["cycles"]

    def test_trace_is_line_delimited_json(self, traced_search):
        path, _registry, _result = traced_search
        for line in path.read_text().splitlines():
            json.loads(line)


class TestBaselineCensus:
    def test_census_describes_the_baseline_run(self):
        # A seeded workload whose control flow depends on frand(): the
        # census must come from the run the search ranks by, i.e. the
        # workload's own VM parameters, seed included.
        workload = Workload(
            name="seeded",
            sources=["""
            fn main() {
                var s: real = 0.0;
                for i in 0 .. 100 {
                    if frand() < 0.5 { s = s + 1.0; } else { s = s * 0.5; }
                }
                out(s);
            }
            """],
            seed=7,
        )
        sink = ListSink()
        with Telemetry(sinks=[sink]) as telemetry:
            SearchEngine(workload, telemetry=telemetry).run()
        (census,) = sink.of_kind("vm.opcodes")
        baseline = workload.baseline()
        assert census["steps"] == baseline.steps
        assert census["cycles"] == baseline.cycles


class TestSearchTelemetryInvariants:
    def test_traced_search_matches_untraced(self):
        workload = make_workload("cg", "S")
        plain = SearchEngine(workload).run()
        sink = ListSink()
        with Telemetry(sinks=[sink]) as telemetry:
            traced = SearchEngine(
                make_workload("cg", "S"), telemetry=telemetry
            ).run()
        assert plain.row() == traced.row()

    def test_refine_phase_is_traced(self):
        # A function-level search of ep traps less; use refine on cg with a
        # tiny budget just to exercise the refine event path when it fires.
        sink = ListSink()
        workload = make_workload("cg", "S")
        with Telemetry(sinks=[sink]) as telemetry:
            result = SearchEngine(
                workload,
                SearchOptions(refine=True, refine_budget=4),
                telemetry=telemetry,
            ).run()
        if result.refined_config is not None:  # refinement actually ran
            assert sink.of_kind("search.refine")
            assert any(
                e["phase"] == "refine" for e in sink.of_kind("search.eval")
            )


class TestVmTelemetry:
    SRC = """
    fn main() {
        var s: real = 0.0;
        for i in 0 .. 50 { s = s + 0.25; }
        out(s);
    }
    """

    def test_cycles_identical_with_and_without_telemetry(self):
        program = compile_source(self.SRC)
        plain = run_program(program)
        sink = ListSink()
        traced = run_program(program, telemetry=Telemetry(sinks=[sink]))
        assert traced.cycles == plain.cycles
        assert traced.steps == plain.steps
        assert traced.values() == plain.values()

    def test_opcode_census_emitted(self):
        program = compile_source(self.SRC)
        sink = ListSink()
        run_program(program, telemetry=Telemetry(sinks=[sink]))
        (census,) = sink.of_kind("vm.opcodes")
        validate_event(census)
        assert census["opcodes"]["addsd"]["execs"] == 50

    def test_trap_event_emitted(self):
        program = compile_source(
            """
            var a: real[4];
            fn main() { var k: i64 = 99999999; out(a[k]); }
            """
        )
        sink = ListSink()
        from repro.vm.errors import VmTrap

        with pytest.raises(VmTrap):
            run_program(program, telemetry=Telemetry(sinks=[sink]))
        (trap,) = sink.of_kind("vm.trap")
        validate_event(trap)
        assert trap["message"]


class TestMpiTelemetry:
    def test_compute_plus_comm_equals_clock(self):
        program = compile_source(
            "fn main() { out(allreduce_sum(real(mpi_rank()) + 1.0)); }"
        )
        sink = ListSink()
        result = run_mpi_program(
            program, 4, telemetry=Telemetry(sinks=[sink])
        )
        ranks = sink.of_kind("mpi.rank")
        assert len(ranks) == 4
        for event in ranks:
            validate_event(event)
            assert (
                event["compute_cycles"] + event["comm_cycles"]
                == event["cycles"]
            )
        assert result.comm_cycles[0] > 0  # the collective cost is attributed
        (run,) = sink.of_kind("mpi.run")
        assert run["collectives"] == 1
        assert run["elapsed"] == result.elapsed

    def test_single_rank_attribution_is_zero_comm(self):
        program = compile_source("fn main() { out(1.0); }")
        sink = ListSink()
        run_mpi_program(program, 1, telemetry=Telemetry(sinks=[sink]))
        (event,) = sink.of_kind("mpi.rank")
        assert event["comm_cycles"] == 0
