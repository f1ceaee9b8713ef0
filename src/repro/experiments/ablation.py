"""Ablations of the design choices the paper calls out.

* **Search optimizations** (Section 2.2): binary partitioning of failed
  aggregates and profile-count prioritization.  Measured as the number of
  configurations the search evaluates (and wall time) with each
  optimization disabled.
* **Redundant-check elimination** (Section 2.5, "static data flow
  analysis could improve overheads"): the intra-block analysis that lets
  double-precision guards skip registers proven clean.  Measured as
  instrumented-run cycles with and without the optimization.
* **Transcendental special handling** (Section 2.5): transcendentals as
  dedicated replaceable instructions versus calls into a compiled math
  library whose internals must be searched piecemeal.
"""

from __future__ import annotations

import time

from repro.config.generator import build_tree
from repro.config.model import Config
from repro.instrument.engine import instrument
from repro.search.bfs import SearchEngine, SearchOptions
from repro.workloads import make_nas


def search_optimizations(bench: str = "mg", klass: str = "W") -> list[dict]:
    """Configs tested / wall time with each search optimization toggled."""
    rows = []
    variants = [
        ("full", SearchOptions()),
        ("no-partition", SearchOptions(partition=False)),
        ("no-prioritize", SearchOptions(prioritize=False)),
        ("neither", SearchOptions(partition=False, prioritize=False)),
        ("stop-at-blocks", SearchOptions(stop_level="block")),
        ("stop-at-functions", SearchOptions(stop_level="function")),
    ]
    for label, options in variants:
        workload = make_nas(bench, klass)
        start = time.perf_counter()
        result = SearchEngine(workload, options).run()
        rows.append(
            {
                "variant": label,
                "benchmark": f"{bench}.{klass}",
                "tested": result.configs_tested,
                "static_pct": round(result.static_pct * 100.0, 1),
                "dynamic_pct": round(result.dynamic_pct * 100.0, 1),
                "final": "pass" if result.final_verified else "fail",
                "seconds": round(time.perf_counter() - start, 1),
            }
        )
    return rows


def check_elimination(bench: str = "cg", klass: str = "W") -> list[dict]:
    """Cycles with/without redundant-check elimination, in two scenarios:
    the base-case all-double instrumentation (where every elided check is
    pure savings) and a half-single mixed configuration (where the
    single-policy instructions keep re-dirtying registers).  The
    instrumented programs must behave identically either way."""
    workload = make_nas(bench, klass)
    tree = build_tree(workload.program)

    half = Config.all_double(tree)
    for index, node in enumerate(tree.instructions()):
        if index % 2 == 0:
            half.set(node.node_id, "s")

    rows = []
    for scenario, config, mode in (
        ("all-double", Config.all_double(tree), "all"),
        ("half-single", half, "auto"),
    ):
        plain = instrument(workload.program, config, mode=mode, optimize_checks=False)
        optimized = instrument(workload.program, config, mode=mode, optimize_checks=True)
        run_plain = workload.run(plain.program)
        run_opt = workload.run(optimized.program)
        rows.append(
            {
                "benchmark": f"{bench}.{klass}",
                "scenario": scenario,
                "identical_outputs": run_plain.outputs == run_opt.outputs,
                "cycles_plain": run_plain.cycles,
                "cycles_optimized": run_opt.cycles,
                "saving_pct": round(100.0 * (1 - run_opt.cycles / run_plain.cycles), 1),
                "checks_skipped": optimized.stats.checks_skipped,
            }
        )
    return rows


_TRANSC_SRC = """
module tr;
const N: i64 = 300;

fn main() {
    var s: real = 0.0;
    for i in 0 .. N {
        var x: real = 0.001 * real(i);
        s = s + sin(x) * cos(x) + log(1.0 + exp(-x));
    }
    out(s);
}
"""

_MLIB_SRC = """
module mhlib;

const PI: f64 = 3.14159265358979324;

# Range-reduced Taylor implementations: ordinary candidate arithmetic,
# the stand-in for libm internals the paper says resist replacement.
fn mh_sin(x: real) -> real {
    var y: real = x;
    var twopi: real = 6.28318530717958648;
    var k: i64 = i64(y / twopi);
    y = y - real(k) * twopi;
    var y2: real = y * y;
    var term: real = y;
    var acc: real = y;
    for n in 0 .. 7 {
        var d: real = real((2 * n + 2) * (2 * n + 3));
        term = -term * y2 / d;
        acc = acc + term;
    }
    return acc;
}

fn mh_cos(x: real) -> real {
    var y: real = x;
    var twopi: real = 6.28318530717958648;
    var k: i64 = i64(y / twopi);
    y = y - real(k) * twopi;
    var y2: real = y * y;
    var term: real = 1.0;
    var acc: real = 1.0;
    for n in 0 .. 7 {
        var d: real = real((2 * n + 1) * (2 * n + 2));
        term = -term * y2 / d;
        acc = acc + term;
    }
    return acc;
}

fn mh_exp(x: real) -> real {
    # exp(x) = 2^k * exp(r) with |r| <= 0.5 ln 2 would need bit tricks;
    # this scaled-squaring version stays in plain arithmetic.
    var y: real = x / 16.0;
    var acc: real = 1.0;
    var term: real = 1.0;
    for n in 0 .. 10 {
        term = term * y / real(n + 1);
        acc = acc + term;
    }
    for s in 0 .. 4 {
        acc = acc * acc;
    }
    return acc;
}

fn mh_log(x: real) -> real {
    # atanh series around 1 with multiplicative range reduction.
    var y: real = x;
    var shift: real = 0.0;
    var ln2: real = 0.693147180559945309;
    while y > 1.5 {
        y = y * 0.5;
        shift = shift + ln2;
    }
    while y < 0.75 {
        y = y * 2.0;
        shift = shift - ln2;
    }
    var u: real = (y - 1.0) / (y + 1.0);
    var u2: real = u * u;
    var acc: real = 0.0;
    var term: real = u;
    for n in 0 .. 8 {
        acc = acc + term / real(2 * n + 1);
        term = term * u2;
    }
    return shift + 2.0 * acc;
}
"""


def transcendental_handling() -> list[dict]:
    """Special handling (dedicated opcodes) vs. library implementation."""
    from repro.workloads.base import Workload

    rows = []
    for label, sources, mode in (
        ("instruction", [_TRANSC_SRC], "instruction"),
        ("library", [_TRANSC_SRC, _MLIB_SRC], "library"),
    ):
        workload = Workload(
            name=f"transc-{label}",
            sources=sources,
            klass="W",
            verify_mode="baseline",
            rel_tol=1e-7,
            abs_tol=1e-6,
            transcendentals=mode,
        )
        result = SearchEngine(workload, SearchOptions()).run()
        rows.append(
            {
                "variant": label,
                "candidates": result.candidates,
                "tested": result.configs_tested,
                "static_pct": round(result.static_pct * 100.0, 1),
                "dynamic_pct": round(result.dynamic_pct * 100.0, 1),
                "final": "pass" if result.final_verified else "fail",
            }
        )
    return rows


def snippet_streamlining(benchmarks=("ep", "cg", "ft", "mg"), klass: str = "A") -> list[dict]:
    """Section 2.5: "we could reduce the runtime overhead by streamlining
    the machine code that is emitted, in order to produce more compact and
    efficient snippets."  Quantifies the effect: base-case overhead with
    the standard save/restore snippets versus streamlined snippets (the
    scratch save/restore statically proven unnecessary and elided)."""
    rows = []
    for bench in benchmarks:
        workload = make_nas(bench, klass)
        base = workload.baseline()
        tree = build_tree(workload.program)
        config = Config.all_double(tree)
        plain = instrument(workload.program, config, mode="all")
        lean = instrument(workload.program, config, mode="all", streamline=True)
        run_plain = workload.run(plain.program)
        run_lean = workload.run(lean.program)
        assert run_plain.outputs == base.outputs == run_lean.outputs
        rows.append(
            {
                "benchmark": f"{bench}.{klass}",
                "overhead_standard": f"{run_plain.cycles / base.cycles:.2f}X",
                "overhead_streamlined": f"{run_lean.cycles / base.cycles:.2f}X",
                "saves_elided": lean.stats.saves_elided,
                "_plain": run_plain.cycles / base.cycles,
                "_lean": run_lean.cycles / base.cycles,
            }
        )
    return rows
