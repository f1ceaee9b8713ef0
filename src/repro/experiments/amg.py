"""Section 3.2: the AMG microkernel end-to-end experiment.

The paper's three findings:

1. the automatic system verifies that the *entire* kernel can run in
   single precision (the adaptive multigrid iteration corrects rounding);
2. the analysis overhead on this benchmark is low (1.2X in the paper),
   measured here for the paper's plain Figure 6 snippets and for the
   default lean build;
3. manually converting the whole kernel and "recompiling" (here: the
   ``real = f32`` build) yields a large speedup — 175.48s -> 95.25s,
   nearly 2X, in the paper.
"""

from __future__ import annotations

from repro.config.generator import build_tree
from repro.config.model import Config
from repro.instrument.engine import instrument
from repro.search.bfs import SearchEngine, SearchOptions
from repro.workloads import amg as amg_workload


def run(klass: str = "A") -> dict:
    workload = amg_workload.make(klass)
    base = workload.baseline()
    tree = build_tree(workload.program)

    # 1. Whole-kernel single-precision configuration verifies.
    all_single = instrument(workload.program, Config.all_single(tree))
    single_run = workload.run(all_single.program)
    whole_kernel_ok = workload.verify(single_run)

    # 2. Analysis overhead: the instrumented all-single run vs original,
    # in both snippet forms (their outputs are identical).
    plain = instrument(workload.program, Config.all_single(tree), plain=True)
    plain_run = workload.run(plain.program)
    assert plain_run.outputs == single_run.outputs
    analysis_overhead = plain_run.cycles / base.cycles
    lean_overhead = single_run.cycles / base.cycles

    # 3. Manual conversion speedup: the f32 build vs the f64 build.
    manual = workload.run(workload.program_single)
    speedup = base.cycles / manual.cycles

    # The automatic search should discover the whole-kernel replacement
    # almost immediately (module-level configuration passes).
    search = SearchEngine(workload, SearchOptions()).run()

    return {
        "benchmark": workload.name,
        "whole_kernel_single_passes": whole_kernel_ok,
        "analysis_overhead": f"{analysis_overhead:.2f}X",
        "analysis_overhead_lean": f"{lean_overhead:.2f}X",
        "manual_speedup": f"{speedup:.2f}X",
        "search_configs_tested": search.configs_tested,
        "search_static_pct": round(search.static_pct * 100.0, 1),
        "search_final": "pass" if search.final_verified else "fail",
        "base_cycles": base.cycles,
        "single_cycles": manual.cycles,
        "_raw_overhead": analysis_overhead,
        "_raw_overhead_lean": lean_overhead,
        "_raw_speedup": speedup,
    }
