"""Section 3.2: the AMG microkernel end-to-end experiment.

Paper: the whole kernel verified as replaceable, 1.2X analysis overhead,
and a 175.48s -> 95.25s (1.84X) speedup after manual conversion.
"""

from __future__ import annotations

from conftest import emit, full_scale

from repro.experiments import amg
from repro.experiments.tables import format_table


def test_amg_end_to_end(benchmark):
    klass = "A" if full_scale() else "W"
    result = benchmark.pedantic(lambda: amg.run(klass), rounds=1, iterations=1)

    # 1. the whole kernel runs in single precision and still verifies
    assert result["whole_kernel_single_passes"]
    # 2. the search discovers this at module level, nearly for free
    assert result["search_configs_tested"] <= 3
    assert result["search_final"] == "pass"
    assert result["search_static_pct"] == 100.0
    # 3. the converted build is genuinely faster
    assert result["_raw_speedup"] > 1.3

    rows = [
        {"quantity": "whole-kernel single passes", "ours": result["whole_kernel_single_passes"], "paper": True},
        {"quantity": "analysis overhead (plain)", "ours": result["analysis_overhead"], "paper": "1.2X"},
        {"quantity": "analysis overhead (lean)", "ours": result["analysis_overhead_lean"], "paper": "1.2X"},
        {"quantity": "manual conversion speedup", "ours": result["manual_speedup"], "paper": "1.84X (175.48s -> 95.25s)"},
        {"quantity": "search configs tested", "ours": result["search_configs_tested"], "paper": "n/a"},
    ]
    emit(
        "amg_speedup",
        format_table(rows, title=f"Section 3.2 — AMG microkernel ({result['benchmark']})"),
    )
