"""Figure 9: base-case instrumentation overhead per benchmark/class.

Replaces *all* floating-point instructions with double-precision snippets
(mode="all", including guarded moves) — a transformation that does not
change any result bit — and reports the cycle ratio between the
instrumented and original executables.  The snippets take the paper's
plain Figure 6 form (``plain=True``), the form whose overhead the figure
reports.  The paper reports 3.4X-14.7X on
ep/cg/ft/mg at classes A and C.

Also performs the Section 3.1 correctness checks along the way:

* the all-double instrumented run is **bit-for-bit identical** to the
  original;
* the all-single instrumented run is **bit-for-bit identical** to the
  manually converted (``real = f32``) build.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.generator import build_tree
from repro.config.model import Config
from repro.fpbits.replace import is_replaced, replaced_single_bits
from repro.instrument.engine import instrument
from repro.workloads import make_nas

BENCHMARKS = ("ep", "cg", "ft", "mg")
CLASSES = ("A", "C")


@dataclass(slots=True)
class OverheadResult:
    benchmark: str
    klass: str
    base_cycles: int
    instrumented_cycles: int
    overhead: float
    bit_identical: bool
    growth: float


def measure_overhead(bench: str, klass: str) -> OverheadResult:
    """Overhead of all-double snippets on one benchmark/class."""
    workload = make_nas(bench, klass)
    base = workload.baseline()
    tree = build_tree(workload.program)
    instrumented = instrument(
        workload.program, Config.all_double(tree), mode="all", plain=True
    )
    run = workload.run(instrumented.program)
    return OverheadResult(
        benchmark=bench,
        klass=klass,
        base_cycles=base.cycles,
        instrumented_cycles=run.cycles,
        overhead=run.cycles / base.cycles,
        bit_identical=run.outputs == base.outputs,
        growth=instrumented.growth,
    )


def check_single_bitforbit(bench: str, klass: str) -> bool:
    """Section 3.1: instrumented all-single == manually converted build."""
    workload = make_nas(bench, klass)
    tree = build_tree(workload.program)
    instrumented = instrument(workload.program, Config.all_single(tree))
    run = workload.run(instrumented.program)
    manual = workload.run(workload.program_single)
    if len(run.outputs) != len(manual.outputs):
        return False
    from repro.fpbits.ieee import bits_to_double, bits_to_single

    for (kind_i, bits_i), (kind_m, bits_m) in zip(run.outputs, manual.outputs):
        if kind_i == "d" and kind_m == "s":
            if is_replaced(bits_i):
                # The replaced slot must hold the exact bits the manual
                # single-precision build produced.
                if replaced_single_bits(bits_i) != bits_m:
                    return False
            else:
                # A value the replaced code never touched (e.g. an
                # untouched zero-initialized cell): it must round-trip to
                # the same single value exactly.
                if bits_to_double(bits_i) != bits_to_single(bits_m):
                    return False
        elif (kind_i, bits_i) != (kind_m, bits_m):
            return False
    return True


def run(benchmarks=BENCHMARKS, classes=CLASSES) -> list[dict]:
    """Regenerate the Figure 9 table."""
    rows = []
    for bench in benchmarks:
        for klass in classes:
            result = measure_overhead(bench, klass)
            rows.append(
                {
                    "benchmark": f"{bench}.{klass}",
                    "overhead": f"{result.overhead:.1f}X",
                    "bit_identical": result.bit_identical,
                    "text_growth": f"{result.growth:.1f}X",
                }
            )
    return rows


#: Paper values for EXPERIMENTS.md comparison.
PAPER_VALUES = {
    "ep.A": 3.4, "ep.C": 5.5, "cg.A": 3.4, "cg.C": 4.5,
    "ft.A": 4.2, "ft.C": 7.0, "mg.A": 5.8, "mg.C": 14.7,
}
