"""Observer-hook parity: observation must never perturb execution.

The analysis subsystem rides the VM observer hook
(:meth:`repro.vm.machine.VM` ``observer=``).  Its contract: outputs,
cycle counts, step counts and trap addresses are bit-identical with the
hook attached or detached — the observers read architectural state but
never write it.  Asserted here for both observers (and their chain)
across every NAS benchmark at class T.
"""

from __future__ import annotations

import pytest

from repro.analysis import ChainedObserver, ChannelObserver, ShadowObserver
from repro.config import Config, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.vm.errors import VmTrap
from repro.vm.machine import VM, run_program
from repro.workloads import BENCHMARKS, make_workload
from tests.conftest import compile_src, untiled

OBSERVERS = {
    "shadow": ShadowObserver,
    "channels": ChannelObserver,
    "chained": lambda: ChainedObserver(ShadowObserver(), ChannelObserver()),
}


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
@pytest.mark.parametrize("factory", OBSERVERS.values(), ids=OBSERVERS.keys())
def test_nas_outputs_bit_identical(bench, factory):
    workload = make_workload(bench, "T")
    plain = run_program(workload.program, **workload.vm_params())
    observed = run_program(
        workload.program, observer=factory(), **workload.vm_params()
    )
    assert observed.outputs == plain.outputs  # raw records, bit-exact
    assert observed.cycles == plain.cycles
    assert observed.steps == plain.steps
    assert observed.halted == plain.halted


TRAP_SRC = """
var a: real[4] = [1.0, 2.0, 3.0, 4.0];
fn main() {
    var s: real = 0.0;
    for i in 0 .. 9 {
        s = s + a[i * 100000000];
    }
    out(s);
}
"""


@pytest.mark.parametrize("factory", OBSERVERS.values(), ids=OBSERVERS.keys())
def test_trap_address_identical(factory):
    program = compile_src(TRAP_SRC)
    with pytest.raises(VmTrap) as plain:
        run_program(program)
    with pytest.raises(VmTrap) as observed:
        run_program(program, observer=factory())
    assert observed.value.addr == plain.value.addr
    assert str(observed.value) == str(plain.value)


@pytest.mark.parametrize("bench", ("cg", "mg"))
def test_profile_counts_identical(bench):
    """exec_counts (profiling) are part of the parity contract too."""
    workload = make_workload(bench, "T")
    plain = run_program(workload.program, profile=True, **workload.vm_params())
    observed = run_program(
        workload.program, observer=ShadowObserver(), profile=True,
        **workload.vm_params(),
    )
    assert observed.exec_counts == plain.exec_counts


class _Dispatches:
    """Observer recording the text address of every dispatch."""

    def __init__(self):
        self.addrs = []

    def wrap(self, vm, index, instr, addr, closure):
        addrs = self.addrs

        def traced(idx):
            addrs.append(addr)
            return closure(idx)

        return traced


@pytest.mark.parametrize("bench", ("cg", "ep"))
def test_segment_loads_dispatch_like_whole_program_loads(bench):
    """An observed VM loaded from an instrumented build's templates sees
    exactly the run a whole-program load of the build sees — on a first
    load, and on a rebind whose records the first load filled (wrappers
    go into the load's own dispatch array, never into a record)."""
    workload = make_workload(bench, "T")
    program = workload.program
    built = instrument(
        program,
        Config.all_single(build_tree(program)),
        cache=InstrumentCache(program),
    )
    observer = _Dispatches()
    whole = VM(
        untiled(built.program), observer=observer, **workload.vm_params()
    ).run()
    expected = (observer.addrs, whole.outputs, whole.cycles, whole.steps)
    observer = _Dispatches()
    vm = VM(built.program, observer=observer, **workload.vm_params())
    for _load in range(2):
        observer.addrs.clear()
        got = vm.run()
        assert (observer.addrs, got.outputs, got.cycles, got.steps) == expected
        vm.rebind(built.program)
    assert vm.compile_hits > 0
