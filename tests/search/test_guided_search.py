"""Differential: analysis-guided search == unguided search, minus cost.

The guidance contract (SearchOptions.analysis): the final composed
configuration is *identical* to the unguided search's on every
workload, while the number of evaluated configurations only ever drops.
Pruned items appear in the history with ``reason="pruned"`` so the
record of the search stays complete.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.search.bfs import SearchEngine, SearchOptions
from repro.search.results import REASON_PRUNED
from repro.workloads import make_workload

#: cg and mg are the acceptance workloads: the analysis is known to
#: prune there (strict savings asserted); the others assert identity.
WORKLOADS = ("cg", "ep", "ft", "mg", "sp")
STRICT = {("cg", "T"), ("mg", "W")}


def _pair(bench, klass, **kw):
    base = SearchEngine(
        make_workload(bench, klass),
        SearchOptions(analysis=False, **kw),
    ).run()
    guided = SearchEngine(
        make_workload(bench, klass),
        SearchOptions(analysis=True, **kw),
    ).run()
    return base, guided


@pytest.mark.parametrize("bench", WORKLOADS)
def test_guided_final_config_identical(bench):
    base, guided = _pair(bench, "T")
    assert guided.final_config.flags == base.final_config.flags
    assert guided.final_verified == base.final_verified
    assert guided.static_pct == base.static_pct
    assert guided.dynamic_pct == base.dynamic_pct
    # Guidance reorders and prunes the same items: the two histories
    # hold the same verdicts.  The evaluation count is only bounded:
    # when a pruned item has a semantic twin (same resolved policies)
    # later in the search, the unguided front answers the twin from
    # cache while the guided one must evaluate it, so that prune saves
    # nothing.
    assert Counter((r.label, r.passed) for r in guided.history) == Counter(
        (r.label, r.passed) for r in base.history
    )
    pruned = [r for r in guided.history if r.reason == REASON_PRUNED]
    assert len(pruned) == guided.analysis_pruned
    assert guided.configs_tested <= base.configs_tested


@pytest.mark.parametrize("bench", WORKLOADS)
def test_guided_identical_with_refine(bench):
    """With the refinement phase on, the composed outcome is still
    identical; the evaluation count may shift by cache effects (refine
    can re-test a config the unguided BFS already answered) but never
    exceeds the unguided count."""
    base, guided = _pair(bench, "T", refine=True)
    assert guided.final_config.flags == base.final_config.flags
    assert guided.refined_verified == base.refined_verified
    if base.refined_config is not None:
        assert guided.refined_config.flags == base.refined_config.flags
    assert guided.configs_tested <= base.configs_tested


@pytest.mark.parametrize("bench,klass", sorted(STRICT))
def test_guided_saves_evaluations(bench, klass):
    base, guided = _pair(bench, klass, refine=True)
    assert guided.final_config.flags == base.final_config.flags
    assert guided.configs_tested < base.configs_tested
    assert guided.analysis_pruned > 0


def test_pruned_items_recorded_in_history():
    _base, guided = _pair("cg", "T")
    pruned = [r for r in guided.history if r.reason == REASON_PRUNED]
    assert len(pruned) == guided.analysis_pruned > 0
    for record in pruned:
        assert not record.passed
        # only single-instruction items are ever pruned (either a bare
        # INSN node or a partition group that narrowed to one)
        assert "INSN" in record.label
        if record.label.startswith("["):
            assert record.label.endswith("(1)")
    assert guided.analysis_used


def test_unguided_never_touches_analysis():
    result = SearchEngine(
        make_workload("cg", "T"), SearchOptions(analysis=False)
    ).run()
    assert not result.analysis_used
    assert result.analysis_pruned == 0
    assert not any(r.reason == REASON_PRUNED for r in result.history)


def test_precomputed_report_is_reused():
    from repro.analysis import analyze

    workload = make_workload("cg", "T")
    report = analyze(workload)
    engine = SearchEngine(
        make_workload("cg", "T"),
        SearchOptions(analysis=True),
        report=report,
    )
    result = engine.run()
    assert engine.analysis_report is report
    assert result.analysis_pruned > 0


def test_guided_respects_stop_level():
    """Coarser stop levels only ever see group items, which the guide
    never prunes — results must still be identical."""
    base, guided = _pair("cg", "T", stop_level="block")
    assert guided.final_config.flags == base.final_config.flags
    assert guided.configs_tested <= base.configs_tested
