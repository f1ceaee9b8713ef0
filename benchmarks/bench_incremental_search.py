"""Incremental evaluation substrate: warm vs cold search throughput.

Runs the same instruction-level BFS search twice — once on a cold
executor that loads every config into a fresh VM (instrumentation still
reuses the search's block templates; the VM reuses no closure or
segment record across loads) and once on the default executor, whose
persistent VM reuses them — and reports configs/second for each, plus
their ratio.  The front dedups in both legs, so both execute the same
configs; the two searches must agree bit-for-bit on everything but wall
time: same candidate verdicts, same cycle counts, same final
configuration.  A full collection runs before each timed search, so
neither leg's garbage is collected inside the other's timing.

Besides the human-readable table this writes a machine-readable
``BENCH_search.json`` under ``results/`` so future PRs have a perf
trajectory to compare against; CI's perf-smoke job checks absolute
cold/warm configs-per-second floors from
``benchmarks/baselines/incremental.json``.  The gate moved off the
warm/cold *ratio* when fused superinstruction dispatch made the cold
path several times faster: a cold-path speedup shrinks the ratio while
making every search strictly faster, which a ratio gate would punish.

Standalone usage (CI uses this form)::

    PYTHONPATH=src python benchmarks/bench_incremental_search.py \
        --check benchmarks/baselines/incremental.json
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from conftest import emit, full_scale, merge_json_rows

from repro.search import SearchEngine, SearchOptions
from repro.search.evaluator import IncrementalState, InlineExecutor
from repro.vm.machine import VM
from repro.workloads import make_nas


class FreshVmExecutor(InlineExecutor):
    """The cold leg's executor: ``execute_config`` without a persistent
    VM, so ``IncrementalState.run`` runs each build through
    ``workload.run`` on a fresh VM."""

    def evaluate_batch(self, jobs: list) -> list:
        if jobs and self._state is None:
            self._state = IncrementalState(self.workload)
            self._state.machine = None
        return super().evaluate_batch(jobs)


def _timed_search(bench: str, klass: str, executor=None):
    """One instruction-level search; returns (result, wall_seconds).

    *executor* is the executor class the front runs configs on, built
    for the search's workload (None: the default executor).  The
    workload is rebuilt fresh each time (no shared instrumentation
    state); the baseline/profile runs — identical in both legs — and a
    full collection happen before the timed region.
    """
    workload = make_nas(bench, klass)
    workload.baseline()
    workload.profile()
    options = SearchOptions(stop_level="instruction")
    gc.collect()
    start = time.perf_counter()
    result = SearchEngine(
        workload, options,
        executor=executor(workload) if executor is not None else None,
    ).run()
    return result, time.perf_counter() - start


def measure(bench: str = "cg", klass: str = "T", repeats: int = 3) -> dict:
    """Cold vs warm throughput for one benchmark; best-of-``repeats``."""
    cold_res, cold_wall = None, float("inf")
    warm_res, warm_wall = None, float("inf")
    for _ in range(repeats):
        res, wall = _timed_search(bench, klass, FreshVmExecutor)
        if wall < cold_wall:
            cold_res, cold_wall = res, wall
        res, wall = _timed_search(bench, klass)
        if wall < warm_wall:
            warm_res, warm_wall = res, wall

    # Identical search, identical verdicts — only the wall time may move.
    assert cold_res.final_config.flags == warm_res.final_config.flags
    assert cold_res.static_pct == warm_res.static_pct
    assert cold_res.dynamic_pct == warm_res.dynamic_pct
    assert [(r.label, r.passed, r.cycles) for r in cold_res.history] == [
        (r.label, r.passed, r.cycles) for r in warm_res.history
    ], "the persistent VM changed a search outcome"
    assert cold_res.configs_tested == warm_res.configs_tested

    # Throughput is configs resolved per second (executed ones plus
    # those the front answers from its caches), so the two numbers
    # divide the same numerator.
    configs = len(cold_res.history)
    return {
        "benchmark": f"{bench}.{klass}",
        "configs": configs,
        "cold_wall_s": round(cold_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "cold_configs_per_s": round(configs / cold_wall, 2),
        "warm_configs_per_s": round(configs / warm_wall, 2),
        "warm_evaluations": warm_res.configs_tested,
        "speedup": round(cold_wall / warm_wall, 2),
        "static_pct": round(cold_res.static_pct * 100, 1),
    }


def measure_profiling_overhead(
    bench: str = "cg", klass: str = "S", repeats: int = 5
) -> dict:
    """Guard: the profiling subsystem costs nothing unless asked for.

    Runs the workload's VM four ways — default (no profiling), with the
    profiling knobs explicitly off, with ``profile=True`` (counters
    riding fused dispatch), and with ``fused=False, profile=True`` (the
    same counters on the per-instruction reference loop) — and asserts
    the deterministic outputs (cycle clock, step count, output values)
    are byte-identical everywhere, and the two counting runs' execution
    counts too: neither the *existence* of the profiling machinery nor
    its use may perturb the cycle model.  Wall time of the
    explicitly-disabled run must stay within generous noise of the
    default run (they are the same code path; a divergence means the
    disabled path started paying for hooks).  The enabled paths'
    overhead is recorded, not bounded.  Each repeat runs the four ways
    back to back, so drift in machine load hits every one alike; each
    way's wall time is its best over the repeats.
    """
    workload = make_nas(bench, klass)
    program, params = workload.program, workload.vm_params()

    ways = {
        "plain": {},
        "disabled": {"profile": False, "observer": None},
        "profiled": {"profile": True},
        "reference": {"fused": False, "profile": True},
    }
    walls = dict.fromkeys(ways, float("inf"))
    results = {}
    for _ in range(repeats):
        for name, kwargs in ways.items():
            vm = VM(program, **kwargs, **params)
            start = time.perf_counter()
            results[name] = vm.run()
            walls[name] = min(walls[name], time.perf_counter() - start)
    plain_res, plain_wall = results["plain"], walls["plain"]
    disabled_res, disabled_wall = results["disabled"], walls["disabled"]
    profiled_res, profiled_wall = results["profiled"], walls["profiled"]
    reference_res, reference_wall = results["reference"], walls["reference"]

    for name, res in (
        ("disabled", disabled_res),
        ("profiled", profiled_res),
        ("reference", reference_res),
    ):
        assert res.cycles == plain_res.cycles, (
            f"{name} run changed the cycle clock: "
            f"{res.cycles} != {plain_res.cycles}"
        )
        assert res.steps == plain_res.steps, name
        assert res.values() == plain_res.values(), (
            f"{name} run changed program output"
        )
    assert profiled_res.exec_counts == reference_res.exec_counts, (
        "fused counting diverged from the reference loop"
    )

    # Same code path, so only scheduler noise may separate them; 1.5x
    # either way is far beyond any observed jitter on these runs.
    assert disabled_wall <= plain_wall * 1.5 and plain_wall <= disabled_wall * 1.5, (
        f"profiling-disabled run left the noise band: "
        f"default {plain_wall:.4f}s vs disabled {disabled_wall:.4f}s"
    )

    return {
        "benchmark": f"{bench}.{klass}",
        "cycles": plain_res.cycles,
        "plain_wall_s": round(plain_wall, 4),
        "disabled_wall_s": round(disabled_wall, 4),
        "profiled_wall_s": round(profiled_wall, 4),
        "reference_wall_s": round(reference_wall, 4),
        "disabled_ratio": round(disabled_wall / plain_wall, 3),
        "profiled_ratio": round(profiled_wall / plain_wall, 3),
        "reference_ratio": round(reference_wall / plain_wall, 3),
    }


def _format_overhead(row: dict) -> str:
    return "\n".join(
        [
            "Profiling overhead — VM wall time relative to the default run",
            "",
            f"{row['benchmark']}: {row['cycles']} cycles (byte-identical in "
            f"all modes)",
            f"  default   {row['plain_wall_s']:>8.4f}s   1.000x",
            f"  disabled  {row['disabled_wall_s']:>8.4f}s   "
            f"{row['disabled_ratio']:.3f}x",
            f"  profile=True {row['profiled_wall_s']:>5.4f}s   "
            f"{row['profiled_ratio']:.3f}x",
            f"  reference {row['reference_wall_s']:>8.4f}s   "
            f"{row['reference_ratio']:.3f}x",
        ]
    )


def _format(rows: list[dict]) -> str:
    lines = ["Incremental evaluation — search throughput (cold vs warm)", ""]
    header = f"{'benchmark':<10} {'configs':>7} {'cold cfg/s':>10} {'warm cfg/s':>10} {'speedup':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row['benchmark']:<10} {row['configs']:>7} "
            f"{row['cold_configs_per_s']:>10.1f} {row['warm_configs_per_s']:>10.1f} "
            f"{row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def run_benchmark(klass: str = "T") -> dict:
    benches = ["cg", "mg", "lu"] if full_scale() else ["cg"]
    rows = [measure(bench, klass) for bench in benches]
    payload = {"rows": rows, "primary": rows[0]}
    emit("incremental_search", _format(rows))
    path = merge_json_rows("BENCH_search", payload)
    overhead = measure_profiling_overhead()
    emit("profiling_overhead", _format_overhead(overhead))
    merge_json_rows(
        "BENCH_search",
        {"rows": [overhead], "primary": overhead},
        section="profiling_overhead",
    )
    print(f"wrote {path}")
    return payload


#: absolute throughput floors for the CG instruction-level search
#: (configs/s, generous noise margin below measured ~94 cold / ~165
#: warm with fused dispatch).  Keep in sync with
#: benchmarks/baselines/incremental.json.
COLD_FLOOR = 55.0
WARM_FLOOR = 110.0


def test_incremental_search_speedup(benchmark):
    payload = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    primary = payload["primary"]
    # Acceptance: absolute cold and warm throughput floors on the CG
    # instruction-level search.  The warm path must also never lose to
    # the cold path — the caches may not make evaluation slower.
    assert primary["cold_configs_per_s"] >= COLD_FLOOR, primary
    assert primary["warm_configs_per_s"] >= WARM_FLOOR, primary
    assert primary["speedup"] >= 1.0, primary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="cg", help="NAS benchmark name")
    parser.add_argument("--class", dest="klass", default="T", help="problem class")
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the payload to this path (besides results/)",
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE",
        help="enforce cold/warm configs-per-second floors from a baseline json",
    )
    args = parser.parse_args(argv)

    row = measure(args.bench, args.klass)
    payload = {"rows": [row], "primary": row}
    emit("incremental_search", _format([row]))
    merge_json_rows("BENCH_search", payload)
    overhead = measure_profiling_overhead()
    emit("profiling_overhead", _format_overhead(overhead))
    merge_json_rows(
        "BENCH_search",
        {"rows": [overhead], "primary": overhead},
        section="profiling_overhead",
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        failed = False
        for kind in ("cold", "warm"):
            key = f"{kind}_configs_per_s"
            floor = baseline[key]
            print(f"{kind} {row[key]:.2f} configs/s (floor {floor:.2f})")
            if row[key] < floor:
                print(
                    f"PERF REGRESSION: {kind} throughput fell below the "
                    f"baseline floor",
                    file=sys.stderr,
                )
                failed = True
        if row["speedup"] < 1.0:
            print(
                "PERF REGRESSION: warm path slower than cold", file=sys.stderr
            )
            failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
