"""Ablations: Section 2.2 search optimizations and Section 2.5
future-work features (implemented here).
"""

from __future__ import annotations

from conftest import emit

from repro.experiments import ablation
from repro.experiments.tables import format_table


def test_search_optimization_ablation(benchmark):
    rows = benchmark.pedantic(
        lambda: ablation.search_optimizations("mg", "W"), rounds=1, iterations=1
    )
    by_variant = {row["variant"]: row for row in rows}
    # All instruction-granularity variants reach the same conclusion.
    assert (
        by_variant["full"]["static_pct"]
        == by_variant["no-partition"]["static_pct"]
        == by_variant["no-prioritize"]["static_pct"]
    )
    # Coarser stop levels converge with fewer tests (paper Section 2.2).
    assert by_variant["stop-at-functions"]["tested"] <= by_variant["full"]["tested"]
    assert by_variant["stop-at-blocks"]["tested"] <= by_variant["full"]["tested"]
    emit(
        "ablation_search",
        format_table(rows, title="Ablation — search optimizations (mg.W)"),
    )


def test_redundant_check_elimination(benchmark):
    """Section 2.5 data-flow analysis: plain vs lean builds."""
    rows = benchmark.pedantic(
        lambda: ablation.check_elimination("cg", "W"), rounds=1, iterations=1
    )
    for row in rows:
        assert row["identical_outputs"]
        assert row["cycles_optimized"] <= row["cycles_plain"]
    all_double = next(r for r in rows if r["scenario"] == "all-double")
    assert all_double["checks_skipped"] > 0
    assert all_double["saving_pct"] > 0
    emit(
        "ablation_dataflow",
        format_table(rows, title="Ablation — plain vs lean builds (Section 2.5)"),
    )


def test_second_phase_composition(benchmark):
    """The paper's suggested second search phase: when the union of
    individually passing replacements fails, find a composable subset.
    Runs on the benchmarks whose Figure 10 unions fail."""
    from repro.search.bfs import SearchEngine, SearchOptions
    from repro.workloads import make_nas

    def refine_all():
        rows = []
        for bench in ("bt", "mg", "sp"):
            workload = make_nas(bench, "W")
            result = SearchEngine(workload, SearchOptions(refine=True)).run()
            rows.append(
                {
                    "benchmark": f"{bench}.W",
                    "union_static": round(result.static_pct * 100, 1),
                    "union_dyn": round(result.dynamic_pct * 100, 1),
                    "union_final": "pass" if result.final_verified else "fail",
                    "refined_static": round(result.refined_static_pct * 100, 1),
                    "refined_dyn": round(result.refined_dynamic_pct * 100, 1),
                    "refined_final": "pass" if result.refined_verified else "fail",
                    "drops": result.refine_drops,
                    "_verified": result.refined_verified,
                    "_union_verified": result.final_verified,
                }
            )
        return rows

    rows = benchmark.pedantic(refine_all, rounds=1, iterations=1)
    for row in rows:
        # wherever the union fails, refinement must recover a verified
        # (smaller) mixed-precision configuration
        if not row["_union_verified"]:
            assert row["_verified"], f"{row['benchmark']}: refinement failed"
            assert row["refined_dyn"] <= row["union_dyn"]
    emit(
        "ablation_refine",
        format_table(
            [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows],
            title="Second search phase — composition refinement (paper §3.1 suggestion)",
        ),
    )


def test_transcendental_special_handling(benchmark):
    rows = benchmark.pedantic(
        ablation.transcendental_handling, rounds=1, iterations=1
    )
    by_variant = {row["variant"]: row for row in rows}
    # Library internals balloon the candidate pool and the search cost —
    # the paper's motivation for special-casing libm.
    assert by_variant["library"]["candidates"] > by_variant["instruction"]["candidates"]
    assert by_variant["library"]["tested"] >= by_variant["instruction"]["tested"]
    emit(
        "ablation_transcendentals",
        format_table(rows, title="Ablation — transcendental handling (Section 2.5)"),
    )


def test_snippet_streamlining(benchmark):
    """Section 2.5 future work, implemented: lean builds reduce the
    base-case overhead substantially with identical results."""
    klass = "A"
    rows = benchmark.pedantic(
        lambda: ablation.snippet_streamlining(klass=klass), rounds=1, iterations=1
    )
    for row in rows:
        assert row["_lean"] < row["_plain"]
        assert row["_lean"] > 1.0
    emit(
        "ablation_streamline",
        format_table(
            [{k: v for k, v in r.items() if not k.startswith("_")} for r in rows],
            title=f"Ablation — plain vs lean snippets (Section 2.5), class {klass}",
        ),
    )
