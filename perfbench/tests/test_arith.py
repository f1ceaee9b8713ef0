"""Tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import arith  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def span(sid, start, end, parent=None, name="x", lane="main/1/MainThread"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "lane": lane, "op": "", "attrs": {}}


class TestSelfTime:
    def test_nested_spans(self):
        # root [0,10] > mid [2,8] > leaf [3,4]
        got = arith.self_times([
            span("root", 0.0, 10.0),
            span("mid", 2.0, 8.0, parent="root"),
            span("leaf", 3.0, 4.0, parent="mid"),
        ])
        assert got == pytest.approx({"root": 4.0, "mid": 5.0, "leaf": 1.0})

    def test_sibling_spans(self):
        got = arith.self_times([
            span("root", 0.0, 10.0),
            span("a", 1.0, 3.0, parent="root"),
            span("b", 5.0, 6.5, parent="root"),
        ])
        assert got["root"] == pytest.approx(10.0 - 2.0 - 1.5)

    def test_overlapping_children_count_once(self):
        # Children on other lanes may overlap; their union is covered.
        got = arith.self_times([
            span("batch", 0.0, 10.0),
            span("t1", 1.0, 6.0, parent="batch", lane="pool/2/MainThread"),
            span("t2", 4.0, 12.0, parent="batch", lane="pool/3/MainThread"),
        ])
        assert got["batch"] == pytest.approx(1.0)

    def test_self_times_sum_to_root_duration(self):
        spans_ = [
            span("root", 0.0, 9.0),
            span("a", 0.5, 4.0, parent="root"),
            span("a1", 1.0, 2.0, parent="a"),
            span("a2", 2.5, 3.0, parent="a"),
            span("b", 5.0, 8.5, parent="root"),
        ]
        assert sum(arith.self_times(spans_).values()) == pytest.approx(9.0)


class TestSampleRule:
    def test_median(self):
        assert arith.median([3.0, 1.0, 2.0]) == 2.0
        assert arith.median([4.0, 1.0, 2.0, 3.0]) == 2.5
        with pytest.raises(ValueError):
            arith.median([])

    @pytest.mark.parametrize("n, expected", [
        (1, None), (12, None), (99, None), (100, 90.0), (999, 90.0),
        (1000, 99.0), (9999, 99.0), (10_000, 99.9),
    ])
    def test_tail_needs_ten_samples_beyond_it(self, n, expected):
        assert arith.tail_percentile(n) == expected

    def test_summarize_reports_count_and_supported_tail(self):
        assert arith.summarize([1.0] * 12) == {"p50": 1.0, "n": 12}
        values = [float(i) for i in range(100)]
        summary = arith.summarize(values)
        assert summary["n"] == 100
        assert summary["p90"] == pytest.approx(89.1)
        assert "p99" not in summary

    def test_percentile_interpolates(self):
        assert arith.percentile([0.0, 10.0], 50) == 5.0
        assert arith.percentile([1.0, 2.0, 3.0], 100) == 3.0

    def test_mean_does_not_depend_on_order(self):
        values = [62.76430913331214, 0.1, 33.3, 1e-9, 57.000000000000014]
        assert arith.mean(values) == arith.mean(reversed(values))
        assert arith.mean([]) == 0.0


class TestFailedFraction:
    def test_each_kind_of_failure_counts_once(self):
        ops = [
            {"label": "ok"},
            {"label": "raised", "error": "RuntimeError: boom"},
            {"label": "job", "state": "failed"},
            {"label": "cancelled", "state": "cancelled"},
            {"label": "wrong", "mismatches": ["cycles differ"]},
            {"label": "both", "state": "failed", "mismatches": ["row"]},
            {"label": "done", "state": "complete", "mismatches": []},
        ]
        assert arith.count_failures(ops) == (7, 5)

    def test_wrong_cycle_count_and_failed_job_are_counted(self):
        from repro.search import SearchEngine, SearchOptions
        from repro.workloads import make_workload

        workload = make_workload("lu", "S")
        honest = SearchEngine(workload, SearchOptions()).run()
        forged = SearchEngine(workload, SearchOptions()).run()
        final = next(r for r in forged.history if r.phase == "final")
        final.cycles += 1  # a search that misreports its final cycles

        checker = run.Checker()
        assert checker.mismatches(workload, honest) == []
        wrong = checker.mismatches(workload, forged)
        assert wrong and "cold reference path" in wrong[0]

        ops = [
            {"label": "lu.S", "mismatches": checker.mismatches(workload, honest)},
            {"label": "lu.S", "mismatches": wrong},
            {"label": "cg.T", "state": "failed", "row": None},
        ]
        attempted, failed = arith.count_failures(ops)
        assert (attempted, failed) == (3, 2)
        assert failed / attempted == pytest.approx(2 / 3)


class _Target:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 41


class TestTracer:
    def test_spans_nest_and_uninstall_restores(self, tmp_path):
        original_outer = _Target.__dict__["outer"]
        tracer = spans.Tracer(str(tmp_path))
        tracer.wrap_span(_Target, "outer", "outer")
        tracer.wrap_span(
            _Target, "inner", "inner",
            after=lambda attrs, args, result: attrs.update(result=result),
        )
        tracer.set_op("job-1")
        try:
            assert _Target().outer() == 42
        finally:
            tracer.uninstall()
        assert _Target.__dict__["outer"] is original_outer
        inner, outer = tracer.spans
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert inner["attrs"] == {"result": 41}
        assert {inner["op"], outer["op"]} == {"job-1"}
        assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
