"""Figure 8: NAS MPI scaling of instrumentation overhead.

Runs the base-case (all-double snippet) instrumentation of EP, CG, FT and
MG, in the paper's plain snippet form, at 1, 2, 4 and 8 ranks and reports the makespan ratio at each scale.
The paper's observation: *overall overhead decreases as ranks are added*,
because communication — which the tool leaves uninstrumented — takes a
growing share of the runtime.  EP, which barely communicates, stays
almost flat; that contrast is part of the figure's shape.
"""

from __future__ import annotations

from repro.config.generator import build_tree
from repro.config.model import Config
from repro.instrument.engine import instrument
from repro.workloads import make_nas

BENCHMARKS = ("ep", "cg", "ft", "mg")
RANKS = (1, 2, 4, 8)


def measure_scaling(bench: str, klass: str = "A", ranks=RANKS) -> dict:
    """Overhead at each rank count for one benchmark."""
    workload = make_nas(bench, klass)
    tree = build_tree(workload.program)
    instrumented = instrument(
        workload.program, Config.all_double(tree), mode="all", plain=True
    )
    row: dict = {"benchmark": f"{bench}.{klass}"}
    for size in ranks:
        base = workload.run_mpi(size)
        run = workload.run_mpi(size, instrumented.program)
        row[f"P{size}"] = f"{run.elapsed / base.elapsed:.2f}X"
        row[f"_raw_P{size}"] = run.elapsed / base.elapsed
    return row


def run(benchmarks=BENCHMARKS, klass: str = "A", ranks=RANKS) -> list[dict]:
    """Regenerate the Figure 8 series (one row per benchmark)."""
    return [measure_scaling(b, klass, ranks) for b in benchmarks]


def trend_is_nonincreasing(row: dict, ranks=RANKS, slack: float = 0.02) -> bool:
    """The figure's qualitative claim: overhead does not grow with ranks."""
    values = [row[f"_raw_P{p}"] for p in ranks]
    return all(b <= a * (1 + slack) for a, b in zip(values, values[1:]))
