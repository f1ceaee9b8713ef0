"""Second-phase refinement and parallel evaluation."""

import pytest

from repro.config import Config, build_tree
from repro.search import Evaluator, SearchEngine, SearchOptions
from repro.search.parallel import ParallelEvaluator, fork_available
from repro.vm import outputs_close, run_program
from tests.conftest import compile_src

# Two structurally identical accumulations: their single-precision errors
# have the same sign and magnitude, so each part passes alone while the
# composed union doubles the error past tolerance.
SRC = """
module comp;
var acc: real;
fn part_a(n: i64) -> real {
    var s: real = 0.0;
    for i in 0 .. n { s = s + 0.123; }
    return s;
}
fn part_b(n: i64) -> real {
    var s: real = 0.0;
    for i in 0 .. n { s = s + 0.123; }
    return s;
}
fn main() {
    acc = part_a(150) + part_b(150);
    out(acc);
}
"""


class _Workload:
    name = "comp"

    def __init__(self, rel_tol):
        self.program = compile_src(SRC)
        self.rel_tol = rel_tol
        self._baseline = run_program(self.program)
        self._prof = None

    def run(self, program=None):
        return run_program(program if program is not None else self.program)

    def verify(self, result):
        return outputs_close(result.values(), self._baseline.values(),
                             rel_tol=self.rel_tol)

    def profile(self):
        if self._prof is None:
            self._prof = run_program(self.program, profile=True).exec_counts
        return self._prof

    def baseline(self):
        return self._baseline


def _tolerance_where_union_fails():
    """Pick a tolerance between one part's error and the union's error."""
    workload = _Workload(1.0)
    tree = build_tree(workload.program)
    from repro.instrument import instrument

    base = workload.baseline().values()[0]

    def err_of(config):
        run = run_program(instrument(workload.program, config).program)
        return abs(run.values()[0] - base) / abs(base)

    from repro.config.model import Policy

    fns = [n for n in tree.nodes_at("function") if "part" in n.label]
    single_errs = [
        err_of(Config(tree, {fn.node_id: Policy.SINGLE})) for fn in fns
    ]
    union_err = err_of(
        Config(tree, {fn.node_id: Policy.SINGLE for fn in fns})
    )
    assert union_err > max(single_errs), "test premise: union error dominates"
    return (max(single_errs) + union_err) / 2


class TestRefinement:
    def test_refine_recovers_composable_subset(self):
        tol = _tolerance_where_union_fails()
        workload = _Workload(tol)
        result = SearchEngine(workload, SearchOptions(refine=True)).run()
        assert not result.final_verified  # union fails by construction
        assert result.refined_config is not None
        assert result.refined_verified
        assert 0 < result.refined_static_pct < result.static_pct
        assert result.refine_drops >= 1

    def test_refine_off_by_default(self):
        tol = _tolerance_where_union_fails()
        result = SearchEngine(_Workload(tol)).run()
        assert result.refined_config is None

    def test_refine_noop_when_union_passes(self):
        result = SearchEngine(_Workload(0.5), SearchOptions(refine=True)).run()
        assert result.final_verified
        assert result.refined_config is None

    def test_refine_history_recorded(self):
        tol = _tolerance_where_union_fails()
        result = SearchEngine(_Workload(tol), SearchOptions(refine=True)).run()
        assert any(h.label.startswith("REFINE(") for h in result.history)


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
class TestParallelEvaluation:
    def test_identical_to_serial(self):
        serial = SearchEngine(_Workload(1e-9), SearchOptions(workers=1)).run()
        parallel = SearchEngine(_Workload(1e-9), SearchOptions(workers=3)).run()
        assert serial.configs_tested == parallel.configs_tested
        assert serial.static_pct == parallel.static_pct
        assert serial.dynamic_pct == parallel.dynamic_pct
        assert serial.final_verified == parallel.final_verified
        # batching may reorder evaluations, but the tested set is the same
        assert sorted(h.label for h in serial.history) == sorted(
            h.label for h in parallel.history
        )

    def test_batch_caches(self):
        workload = _Workload(1e-9)
        tree = build_tree(workload.program)
        evaluator = Evaluator(
            workload, executor=ParallelEvaluator(workload, tree, workers=2)
        )
        try:
            config = Config.all_single(tree)
            first = evaluator.evaluate_batch([config, config.copy()])
            assert first[0] == first[1]
            assert evaluator.evaluations == 1
            again = evaluator.evaluate(config)
            assert again == first[0]
            assert evaluator.evaluations == 1
        finally:
            evaluator.close()

    def test_trap_propagates_as_failure(self):
        # In double, (x + 1 - x) - 1 == 0 and the index is fine; in
        # single, x absorbs the +1 and the index underflows to -1: a
        # trap, the "anything missed causes a crash" behaviour.
        src = """
        var a: real[2] = [1.0, 2.0];
        fn main() {
            var x: real = 100000000.0;
            var y: real = x + 1.0 - x;
            out(a[i64(y - 1.0)]);
        }
        """
        compiled = compile_src(src)

        class W:
            name = "trap"

            def __init__(self, program):
                self.program = program

            def run(self, p=None):
                return run_program(p if p is not None else self.program)

            def verify(self, result):
                return True

            def baseline(self):
                return self.run()

        workload = W(compiled)
        tree = build_tree(compiled)
        evaluator = Evaluator(
            workload, executor=ParallelEvaluator(workload, tree, workers=2)
        )
        try:
            passed, _cycles, trap, _reason = evaluator.evaluate(
                Config.all_single(tree)
            )
            assert not passed
            assert "out of bounds" in trap
        finally:
            evaluator.close()


class TestSerialEvaluatorBatch:
    def test_evaluate_batch_matches_loop(self):
        workload = _Workload(1e-9)
        evaluator = Evaluator(workload)
        tree = build_tree(workload.program)
        configs = [Config.all_double(tree), Config.all_single(tree)]
        assert evaluator.evaluate_batch(configs) == [
            Evaluator(workload).evaluate(c) for c in configs
        ]


class TestEvaluatorLifecycle:
    def test_serial_evaluator_context_manager(self):
        workload = _Workload(1e-9)
        with Evaluator(workload) as evaluator:
            tree = build_tree(workload.program)
            passed, _cycles, _trap, _reason = evaluator.evaluate(
                Config.all_double(tree)
            )
            assert passed

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_parallel_evaluator_context_manager_closes_pool(self):
        workload = _Workload(1e-9)
        tree = build_tree(workload.program)
        with ParallelEvaluator(workload, tree, workers=2) as evaluator:
            assert evaluator._pool is not None
            front = Evaluator(workload, executor=evaluator)
            front.evaluate(Config.all_double(tree))
        assert evaluator._pool is None

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_engine_closes_its_own_evaluator(self):
        workload = _Workload(1e-9)
        engine = SearchEngine(workload, SearchOptions(workers=2))
        engine.run()
        assert engine.evaluator.executor._pool is None  # shut down by run()

    @pytest.mark.skipif(not fork_available(), reason="needs fork start method")
    def test_engine_leaves_external_evaluator_open(self):
        workload = _Workload(1e-9)
        tree = build_tree(workload.program)
        with ParallelEvaluator(workload, tree, workers=2) as evaluator:
            engine = SearchEngine(workload, executor=evaluator)
            engine.run()
            assert evaluator._pool is not None  # still usable by its owner

    def test_engine_closes_evaluator_when_search_raises(self):
        workload = _Workload(1e-9)

        class ClosableEvaluator(Evaluator):
            closed = False

            def close(self):
                type(self).closed = True

            def evaluate_batch(self, configs):
                raise RuntimeError("mid-search failure")

        engine = SearchEngine(workload)
        engine.evaluator = ClosableEvaluator(workload)
        with pytest.raises(RuntimeError):
            engine.run()
        assert ClosableEvaluator.closed
