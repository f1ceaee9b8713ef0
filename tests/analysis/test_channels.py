"""Per-instruction shadow channels: exactness and soundness.

The central claim of the channels of :mod:`repro.analysis.observer`:
after one observed run, substituting a channel's output overrides into
the baseline output stream reproduces the *exact* outcome of really instrumenting that one
instruction as single and re-running.  Verified here instruction by
instruction against the real evaluator on small programs and on cg.T —
and suite-wide by the differential search tests.
"""

from __future__ import annotations

import pytest

from repro.analysis import ShadowObserver
from repro.vm.errors import CollectiveYield, VmTrap
from repro.vm.machine import VM, ExecResult, run_program
from repro.workloads import make_workload
from tests.analysis.programs import MH_EXACT as SRC_MIXED
from tests.analysis.programs import SOURCE_NAMES, source_workload
from tests.analysis.programs import SrcWorkload as _SrcWorkload
from tests.analysis.programs import real_outcomes as _real_outcomes
from tests.conftest import compile_src


def _verdicts(workload):
    """addr -> "pass"/"fail"/"unknown" from one channel-observed run."""
    observer = ShadowObserver()
    result = run_program(
        workload.program, observer=observer, **workload.vm_params()
    )
    verdicts = {}
    for addr in observer.channels:
        outs = observer.outputs_for(addr, result.outputs)
        if outs is None:
            verdicts[addr] = "unknown"
        else:
            fake = ExecResult(
                outputs=outs, cycles=result.cycles, steps=result.steps
            )
            verdicts[addr] = "pass" if workload.verify(fake) else "fail"
    return verdicts


class TestExactness:
    def test_verdicts_match_real_singleton_evals_small(self):
        workload = _SrcWorkload(compile_src(SRC_MIXED))
        verdicts = _verdicts(workload)
        assert verdicts, "no channels observed"
        real = _real_outcomes(workload, list(verdicts))
        for addr, verdict in verdicts.items():
            if verdict != "unknown":
                assert verdict == real[addr], hex(addr)

    def test_verdicts_match_real_singleton_evals_cg(self):
        workload = make_workload("cg", "T")
        verdicts = _verdicts(workload)
        assert len(verdicts) == 27  # every candidate observed
        real = _real_outcomes(workload, list(verdicts))
        for addr, verdict in verdicts.items():
            if verdict != "unknown":
                assert verdict == real[addr], hex(addr)
        # the analysis must actually decide things on cg.T: no unknowns,
        # and both verdicts represented
        assert "unknown" not in verdicts.values()
        assert "fail" in verdicts.values()
        assert "pass" in verdicts.values()

    def test_soundness_is_one_sided(self):
        """Every "fail" verdict must be a real failure (the prune
        soundness contract); "pass" is advisory and asserted exact
        above, but pruning never keys on it."""
        workload = make_workload("mg", "T")
        verdicts = _verdicts(workload)
        fails = [a for a, v in verdicts.items() if v == "fail"]
        real = _real_outcomes(workload, fails)
        assert all(real[a] == "fail" for a in fails)


SRC_COMPARE_FLIP = """
fn main() {
    var eps: real = 0.0000000001;
    var a: real = 1.0 + eps;
    if a > 1.0 {
        out(1.0);
    } else {
        out(2.0);
    }
}
"""


class TestUnknowns:
    def test_compare_flip_kills_channel(self):
        """1.0 + 1e-10 rounds to 1.0 in float32, so the singleton run of
        the addition would branch differently: its channel must end
        unknown (never a guessed verdict)."""
        program = compile_src(SRC_COMPARE_FLIP)
        observer = ShadowObserver()
        result = run_program(program, observer=observer)
        flipped = [
            ch for ch in observer.channels.values()
            if ch.unknown and ch.why == "compare-flip"
        ]
        assert flipped, {
            hex(a): (ch.unknown, ch.why)
            for a, ch in observer.channels.items()
        }
        for ch in flipped:
            assert observer.outputs_for(ch.addr, result.outputs) is None

    def test_unknown_reasons_are_labelled(self):
        reasons = set()
        for name in SOURCE_NAMES:
            observer = ShadowObserver()
            try:
                run_program(source_workload(name).program, observer=observer)
            except VmTrap:
                pass  # the baseline-trap source
            for ch in observer.channels.values():
                if ch.unknown:
                    assert ch.why, (name, hex(ch.addr))
                    reasons.add(ch.why)
                else:
                    assert ch.why == ""
        assert reasons >= {
            "compare-flip", "int-convert-flip", "unmodeled-op",
            "int-compute", "address-diverged", "return-address",
        }


class TestChannelMechanics:
    def test_outputs_for_unobserved_addr_is_baseline(self):
        workload = _SrcWorkload(compile_src(SRC_MIXED))
        observer = ShadowObserver()
        result = run_program(workload.program, observer=observer)
        outs = observer.outputs_for(0x999999, result.outputs)
        assert outs == result.outputs
        assert outs is not result.outputs  # a private copy

    def test_divergent_channels_override_outputs(self):
        workload = make_workload("cg", "T")
        observer = ShadowObserver()
        result = run_program(
            workload.program, observer=observer, **workload.vm_params()
        )
        diverged = [
            ch for ch in observer.channels.values()
            if not ch.unknown and ch.out
        ]
        assert diverged, "no channel reached an output on cg.T?"
        for ch in diverged:
            outs = observer.outputs_for(ch.addr, result.outputs)
            assert outs != result.outputs
            assert len(outs) == len(result.outputs)
            # overridden records keep their kind, change only the bits
            for got, base in zip(outs, result.outputs):
                assert got[0] == base[0]

    def test_multi_rank_collective_taints_every_verdict(self):
        """A collective at more than one rank mixes state the channels
        do not follow: every channel goes unknown, past and future."""
        program = compile_src(
            "fn main() { var d: real = 0.1 * 3.0;"
            " out(d); out(allreduce_sum(d)); }"
        )
        observer = ShadowObserver()
        vm = VM(program, rank=0, size=2, observer=observer)
        with pytest.raises(CollectiveYield):
            vm.resume(vm.entry_index())
        assert observer.tainted
        assert observer.channels
        for addr, ch in observer.channels.items():
            assert (ch.unknown, ch.why) == (True, "collective")
            assert observer.outputs_for(addr, vm.outputs) is None
        assert observer.outputs_for(0x999999, vm.outputs) is None
