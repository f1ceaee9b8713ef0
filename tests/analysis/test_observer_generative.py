"""Generative analysis slice: observing never perturbs, verdicts are exact.

Hypothesis draws the floating-point expression trees of
tests/compiler/test_differential.py and places them in one program
shape with a call, a loop, an FP branch, an ``i64(...)`` index (which
traps when it goes negative) and an ``f32`` product, verified against the unreplaced run under a
drawn relative tolerance.  For each program:

* a run under :class:`repro.analysis.ShadowObserver` equals an
  unobserved run: outputs, cycles, steps, and the trap where one
  occurs;
* every "pass" or "fail" verdict of :func:`repro.analysis.analyze`
  equals the real singleton evaluation of that instruction.

Tier-1 runs a small derandomized profile; CI's ``analysis-smoke`` job
runs the ``fused-deep`` profile registered in tests/conftest.py
(``--hypothesis-profile fused-deep``).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import ShadowObserver, analyze
from repro.analysis.report import VERDICT_UNKNOWN
from repro.vm.errors import VmTrap
from repro.vm.machine import run_program
from tests.analysis.programs import SrcWorkload, real_outcomes
from tests.compiler.test_differential import _fp_exprs
from tests.conftest import compile_src
from tests.vm.test_fused_generative import _warm_arithmetic_helpers

TEMPLATE = """
var xs: real[8] = [0.5, 1.0, -2.25, 3.75, 0.1, -0.3, 7.0, 100.0];
fn step(v: real) -> real {{
    return v * {a} + {b};
}}
fn main() {{
    var s: real = {c};
    for i in 0 .. {n} {{
        s = step(s);
        if s > {d} {{
            s = s - xs[i64(s) % 8];
        }}
    }}
    var p: f32 = f32(s) * f32({e});
    out(s);
    out(f64(p));
}}
"""

_exprs = _fp_exprs(2).map(lambda expr: expr[0])


@st.composite
def programs(draw):
    parts = {k: draw(_exprs) for k in "abcde"}
    return TEMPLATE.format(n=draw(st.integers(1, 6)), **parts)


#: verification tolerances that one float32 rounding passes, that it
#: fails, and in between.
_tolerances = st.sampled_from([1e-4, 1e-7, 1e-10])


def _run(program, observer=None):
    try:
        result = run_program(program, observer=observer)
    except VmTrap as exc:
        return "trap", type(exc).__name__, str(exc), exc.addr
    return result.outputs, result.cycles, result.steps


#: tier-1's small derandomized run; a selected profile (CI's fused-deep,
#: registered in tests/conftest.py) replaces it.
_SETTINGS = (
    settings(
        max_examples=40,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    if settings.get_current_profile_name() == "default"
    else settings()
)


@_SETTINGS
@given(source=programs(), rel_tol=_tolerances)
def test_observed_runs_match_and_verdicts_are_exact(source, rel_tol):
    # The observed run takes the reference loop and the plain one fused
    # dispatch; both call the same arithmetic helpers, warmed so that a
    # two-NaN payload cannot depend on which ran first.
    _warm_arithmetic_helpers()
    program = compile_src(source)
    assert _run(program, ShadowObserver()) == _run(program)
    workload = SrcWorkload(program, rel_tol=rel_tol)
    report = analyze(workload)
    decided = {
        addr: ia.verdict
        for addr, ia in report.instructions.items()
        if ia.verdict != VERDICT_UNKNOWN
    }
    assert real_outcomes(workload, decided) == decided
