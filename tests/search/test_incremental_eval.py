"""Incremental evaluation through the search layer.

Covers the three guarantees the substrate makes to the search:

* turning the caches off changes nothing but wall time (verdicts,
  cycles, final configuration, history all identical);
* serial and parallel evaluators report identical ``eval.cache_hits``
  and ``eval.config`` telemetry for the same search;
* semantically identical configs (different flags, same resolved
  policy map) are answered from cache without a new evaluation.
"""

from collections import Counter

import pytest

from repro.config import Config, Policy, build_tree
from repro.config.model import LEVEL_FUNCTION
from repro.search import SearchEngine, SearchOptions
from repro.search.evaluator import Evaluator, machine_eligible, semantic_key
from repro.search.parallel import ParallelEvaluator, fork_available
from repro.telemetry import ListSink, MetricsRegistry, Telemetry
from repro.workloads import make_nas


def _traced_search(workers: int, incremental: bool):
    workload = make_nas("cg", "T")
    sink = ListSink()
    metrics = MetricsRegistry()
    telemetry = Telemetry(sinks=[sink], metrics=metrics)
    options = SearchOptions(workers=workers, incremental=incremental)
    result = SearchEngine(workload, options, telemetry=telemetry).run()
    kinds = Counter(event["kind"] for event in sink.events)
    return result, kinds, metrics.counters


def _essence(result):
    return (
        result.final_config.flags,
        result.static_pct,
        result.dynamic_pct,
        result.final_verified,
        [(r.label, r.passed, r.cycles) for r in result.history],
    )


class TestOnOffEquivalence:
    def test_incremental_search_identical_to_cold(self):
        warm, warm_kinds, _ = _traced_search(workers=1, incremental=True)
        cold, cold_kinds, _ = _traced_search(workers=1, incremental=False)
        assert _essence(warm) == _essence(cold)
        # Each mode keeps the trace invariant: one eval.config per
        # actual evaluation.
        assert warm_kinds["eval.config"] == warm.configs_tested
        assert cold_kinds["eval.config"] == cold.configs_tested
        # The warm path may answer some configs semantically — it never
        # evaluates more than the cold path.
        assert warm.configs_tested <= cold.configs_tested

    def test_incremental_caches_report_activity(self):
        _, _, counters = _traced_search(workers=1, incremental=True)
        assert counters["instr.block_cache_hits"] > 0
        assert counters["vm.compile_cache_hits"] > 0

    def test_cold_path_reports_no_cache_activity(self):
        _, _, counters = _traced_search(workers=1, incremental=False)
        assert counters.get("instr.block_cache_hits", 0) == 0
        assert counters.get("vm.compile_cache_hits", 0) == 0


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestSerialParallelParity:
    def test_telemetry_and_results_match(self):
        serial, serial_kinds, serial_counters = _traced_search(1, True)
        parallel, parallel_kinds, parallel_counters = _traced_search(2, True)
        # Batch size changes the queue interleaving (a seed property), so
        # compare the *set* of evaluations plus the final verdicts.
        s_final, s_static, s_dyn, s_ok, s_hist = _essence(serial)
        p_final, p_static, p_dyn, p_ok, p_hist = _essence(parallel)
        assert (s_final, s_static, s_dyn, s_ok) == (p_final, p_static, p_dyn, p_ok)
        assert sorted(s_hist) == sorted(p_hist)
        assert serial.configs_tested == parallel.configs_tested
        assert serial_kinds["eval.config"] == parallel_kinds["eval.config"]
        assert serial_counters.get("eval.cache_hits", 0) == parallel_counters.get(
            "eval.cache_hits", 0
        )
        # Worker-side cache activity is aggregated into the parent's
        # telemetry; the totals need not equal the serial run's (work is
        # spread over several caches) but must be present.
        assert parallel_counters["instr.block_cache_misses"] > 0
        assert parallel_counters["vm.compile_cache_misses"] > 0


class TestSemanticDedup:
    @pytest.fixture
    def setup(self):
        workload = make_nas("cg", "T")
        tree = build_tree(workload.program)
        return workload, tree

    def _alias_pair(self, tree):
        """Two configs with different flags but identical policy maps:
        a function-level SINGLE vs the same function spelled out as
        per-instruction SINGLE flags."""
        func = next(
            n for n in tree.nodes_at(LEVEL_FUNCTION) if list(n.instructions())
        )
        coarse = Config.all_double(tree).set(func.node_id, Policy.SINGLE)
        fine = Config.all_double(tree)
        for insn in func.instructions():
            fine = fine.set(insn.node_id, Policy.SINGLE)
        assert coarse.flags != fine.flags
        assert semantic_key(coarse.instruction_policies()) == semantic_key(
            fine.instruction_policies()
        )
        return coarse, fine

    def test_serial_semantic_hit(self, setup):
        workload, tree = setup
        coarse, fine = self._alias_pair(tree)
        sink = ListSink()
        telemetry = Telemetry(sinks=[sink], metrics=MetricsRegistry())
        evaluator = Evaluator(workload, telemetry=telemetry)
        first = evaluator.evaluate(coarse)
        second = evaluator.evaluate(fine)
        assert first == second
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1
        assert sum(1 for e in sink.events if e["kind"] == "eval.config") == 1

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_semantic_hit_within_batch(self, setup):
        workload, tree = setup
        coarse, fine = self._alias_pair(tree)
        telemetry = Telemetry(sinks=[ListSink()], metrics=MetricsRegistry())
        pool = ParallelEvaluator(workload, tree, workers=2, telemetry=telemetry)
        with Evaluator(workload, telemetry=telemetry, executor=pool) as evaluator:
            outcomes = evaluator.evaluate_batch([coarse, fine])
        assert outcomes[0] == outcomes[1]
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1

    def test_disabled_incremental_skips_semantic_cache(self, setup):
        workload, tree = setup
        coarse, fine = self._alias_pair(tree)
        evaluator = Evaluator(workload, incremental=False)
        first = evaluator.evaluate(coarse)
        second = evaluator.evaluate(fine)
        assert first == second  # same executable, same verdict
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 0


class TestMachineEligibility:
    def test_stock_workload_is_eligible(self):
        assert machine_eligible(make_nas("cg", "T"))

    def test_custom_run_is_not(self):
        class Custom(type(make_nas("cg", "T"))):
            def run(self, program=None):  # pragma: no cover - marker only
                raise NotImplementedError

        workload = make_nas("cg", "T")
        workload.__class__ = Custom
        assert not machine_eligible(workload)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_finalizer_reaps_pool_without_close():
    workload = make_nas("cg", "T")
    tree = build_tree(workload.program)
    evaluator = ParallelEvaluator(workload, tree, workers=2)
    finalizer = evaluator._finalizer
    assert finalizer.alive
    del evaluator
    # weakref.finalize fires on collection, not interpreter exit.
    import gc

    gc.collect()
    assert not finalizer.alive
