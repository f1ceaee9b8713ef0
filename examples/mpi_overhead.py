"""Instrumentation overhead under MPI scaling (paper Figure 8).

Instruments the CG analogue with base-case (all-double) snippets and
runs original vs instrumented at 1..8 ranks: communication is never
instrumented, so its growing share dilutes the overhead — the downward
trend of the paper's Figure 8.

Run:  python examples/mpi_overhead.py
"""

from repro import Config, build_tree, instrument
from repro.workloads import make_nas


def main() -> None:
    workload = make_nas("cg", "A")
    instrumented = instrument(
        workload.program, Config.all_double(build_tree(workload.program)),
        mode="all", plain=True,
    )
    print(f"workload: {workload.name}  "
          f"(candidates: {workload.program.stats()['candidates']})")
    print(f"{'ranks':>6} {'original':>12} {'instrumented':>13} {'overhead':>9}")
    for size in (1, 2, 4, 8):
        base = workload.run_mpi(size)
        instr = workload.run_mpi(size, instrumented.program)
        print(f"{size:>6} {base.elapsed:>12} {instr.elapsed:>13} "
              f"{instr.elapsed / base.elapsed:>8.2f}X")
    print("\npaper Figure 8: the same downward trend — 'the overall overhead "
          "decreases as the number of threads increases'.")


if __name__ == "__main__":
    main()
