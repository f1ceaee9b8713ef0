"""Persistent ``Machine`` reuse: rebinding, compile cache, trap parity.

A ``Machine`` keeps one VM alive across ``run()`` calls and reuses
compiled closures for instructions whose bytes are unchanged.  Every
observable — outputs, cycles, steps, trap messages *and* trap
addresses — must match a fresh ``run_program`` exactly, no matter how
many runs the machine has already absorbed.
"""

import gc
import weakref

import pytest

import repro.vm.machine as vm_machine
from repro.config import Config, Policy, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.vm import VM, Machine, run_program
from repro.vm.errors import VmTrap
from repro.workloads import make_nas
from tests.conftest import compile_src, untiled

TRAP_SRC = """
var a: real[4] = [1.0, 2.0, 3.0, 4.0];
fn main() {
    var x: real = 3.0;
    var y: real = x * 1.0;
    var k: i64 = i64(y);
    out(a[k]);
}
"""


def _trapping_build(cache: bool = False):
    # Single-replace the multiply but ignore the conversion: the flagged
    # slot reads back as NaN -> integer indefinite -> wild index -> trap.
    program = compile_src(TRAP_SRC)
    tree = build_tree(program)
    nodes = list(tree.instructions())
    config = Config(tree)
    config.set(next(n for n in nodes if "mulsd" in n.text).node_id, Policy.SINGLE)
    config.set(next(n for n in nodes if "cvttsd2si" in n.text).node_id, Policy.IGNORE)
    return instrument(
        program, config, cache=InstrumentCache(program) if cache else None
    )


def _trapping_program():
    return _trapping_build().program


class _Dispatches:
    """Observer recording the index of every dispatched instruction."""

    def __init__(self):
        self.indices = []

    def wrap(self, vm, index, instr, addr, closure):
        indices = self.indices

        def traced(idx):
            indices.append(idx)
            return closure(idx)

        return traced


def _reference_dispatches(program, **params):
    """Indices the reference loop dispatches until it traps, the
    trapping (or budget-exceeding) one last."""
    observer = _Dispatches()
    with pytest.raises(VmTrap):
        VM(program, fused=False, observer=observer, **params).run()
    return observer.indices


def _fused_runs(built, **params):
    """Instruction index -> (head, length) of the fused run covering it
    on the segment path; empty when fusion is disabled process-wide."""
    vm = VM(built.program, profile=True, **params)
    return {i: (h, k) for h, k in vm._runs for i in range(h, h + k)}


def _assert_segment_trap_parity(built, **params):
    """A Machine fed *built*'s segments traps exactly like the reference
    loop — on its first load, and on a second load that reuses what the
    first compiled, closures built by lazy stand-ins included."""
    machine = Machine(**params)
    for _ in range(2):
        with pytest.raises(VmTrap) as warm:
            machine.run(built.program)
        ref = VM(untiled(built.program), fused=False, **params)
        with pytest.raises(VmTrap) as cold:
            ref.run()
        assert str(warm.value) == str(cold.value)
        assert warm.value.addr == cold.value.addr
        assert machine._vm.steps == ref.steps
        assert machine._vm.cycles == ref.cycles
    assert machine.compile_cache_hits > 0


class TestReuse:
    def test_repeat_runs_identical(self):
        workload = make_nas("cg", "T")
        machine = Machine(**workload.vm_params())
        cold = workload.run(workload.program)
        results = [machine.run(workload.program) for _ in range(3)]
        for warm in results:
            assert warm.outputs == cold.outputs
            assert warm.cycles == cold.cycles
            assert warm.steps == cold.steps
        assert machine.runs == 3

    def test_instrumented_sequence_matches_cold(self):
        # The searcher's actual usage: one machine, a stream of
        # differently instrumented builds of the same workload.
        workload = make_nas("mg", "T")
        tree = build_tree(workload.program)
        cache = InstrumentCache(workload.program)
        machine = Machine(**workload.vm_params())
        configs = [
            Config.all_double(tree),
            Config.all_single(tree),
            Config.all_double(tree).set(
                next(iter(tree.instructions())).node_id, Policy.SINGLE
            ),
        ]
        for config in configs:
            built = instrument(workload.program, config, cache=cache)
            warm = machine.run(built.program)
            cold = workload.run(built.program)
            assert warm.outputs == cold.outputs
            assert warm.cycles == cold.cycles
            assert warm.steps == cold.steps
        # Later builds reused compiled closures for unchanged blocks.
        assert machine.compile_cache_hits > 0

    def test_profile_counts_identical(self):
        workload = make_nas("ep", "T")
        machine = Machine(**workload.vm_params())
        machine.run(workload.program)  # prime the compile cache
        warm = machine.run(workload.program)
        assert warm.exec_counts == workload.run(workload.program).exec_counts


class TestTrapParity:
    def test_trap_address_survives_closure_reuse(self):
        program = _trapping_program()
        machine = Machine(stack_words=256, max_steps=100_000)
        with pytest.raises(VmTrap) as cold:
            machine.run(program)
        with pytest.raises(VmTrap) as warm:
            machine.run(program)
        # The warm run executes cached closures; the trap must still be
        # stamped with the faulting instruction's address.
        assert str(warm.value) == str(cold.value)
        assert warm.value.addr == cold.value.addr
        assert warm.value.addr is not None

    def test_trap_matches_run_program(self):
        program = _trapping_program()
        machine = Machine(stack_words=256, max_steps=100_000)
        with pytest.raises(VmTrap) as fresh:
            run_program(program, stack_words=256, max_steps=100_000)
        with pytest.raises(VmTrap):
            machine.run(program)  # prime the compile cache
        with pytest.raises(VmTrap) as warm:
            machine.run(program)
        assert str(warm.value) == str(fresh.value)
        assert warm.value.addr == fresh.value.addr


class TestRebind:
    def test_data_image_change_builds_fresh_vm(self):
        workload = make_nas("cg", "T")
        machine = Machine(**workload.vm_params())
        first = machine.run(workload.program)
        vm_before = machine._vm

        # A build with different input data cannot share the bound VM's
        # data image; the machine must fall back to a fresh VM.
        other = make_nas("cg", "S")
        second = machine.run(other.program)
        assert machine._vm is not vm_before
        assert second.outputs == other.run(other.program).outputs

        # And rebinding back to the first image works again.
        third = machine.run(other.program)
        assert third.outputs == second.outputs
        assert third.cycles == second.cycles
        assert first.outputs != second.outputs


class TestSegmentLoads:
    """Loads from InstrumentCache segments: decode-free tiling, lazily
    compiled fused-run members, and a bounded segment cache."""

    def test_budget_expiring_inside_a_fused_run_and_a_reference_stretch(self):
        # ep's snippeted build dispatches unfused branches early on.
        workload = make_nas("ep", "T")
        params = workload.vm_params()
        built = instrument(
            workload.program, Config.all_single(build_tree(workload.program)),
            cache=InstrumentCache(workload.program),
        )
        trace = _reference_dispatches(
            untiled(built.program), **{**params, "max_steps": 3000}
        )
        runs = _fused_runs(built, **params)
        # Budget b stops the run before dispatch trace[b].  Inside a run,
        # the budget tail single-steps its lazily compiled members; in a
        # reference-only stretch, the fused loop single-steps on its own.
        inside = next(
            (b for b in range(1, len(trace))
             if trace[b] == trace[b - 1] + 1
             and runs.get(trace[b]) is not None
             and runs.get(trace[b]) == runs.get(trace[b - 1])),
            None,
        )
        outside = next(
            (b for b in range(1, len(trace)) if trace[b] not in runs), None
        )
        if not vm_machine._NO_FUSE:
            assert inside is not None and outside is not None
        for budget in (inside, outside):
            if budget is not None:
                _assert_segment_trap_parity(
                    built, **{**params, "max_steps": budget}
                )

    def test_memory_trap_inside_a_fused_run(self):
        built = _trapping_build(cache=True)
        params = {"stack_words": 256, "max_steps": 100_000}
        trace = _reference_dispatches(untiled(built.program), **params)
        fault = trace[-1]
        if not vm_machine._NO_FUSE:
            head, length = _fused_runs(built, **params)[fault]
            # Not the run's last member, so the exact budget below stops
            # the fused entry and the tail steps into the fault.
            assert fault < head + length - 1
        # Full budget: the fused run faults.  Exact budget: the budget
        # tail single-steps lazily compiled members into the fault.
        for budget in (params["max_steps"], len(trace)):
            _assert_segment_trap_parity(
                built, **{**params, "max_steps": budget}
            )

    def test_segment_loads_never_decode(self, monkeypatch):
        workload = make_nas("mg", "T")
        tree = build_tree(workload.program)
        cache = InstrumentCache(workload.program)
        params = workload.vm_params()
        configs = [
            Config.all_double(tree),
            Config.all_single(tree),
            Config.all_double(tree).set(
                next(iter(tree.instructions())).node_id, Policy.SINGLE
            ),
        ]
        builds = [instrument(workload.program, c, cache=cache) for c in configs]
        refs = [
            VM(untiled(b.program), fused=False, **params).run() for b in builds
        ]

        def no_decode(*_args):
            raise AssertionError("a segment load decoded an instruction")

        monkeypatch.setattr(vm_machine, "decode_instruction", no_decode)
        machine = Machine(**params)
        for built, ref in zip(builds + builds, refs + refs):
            warm = machine.run(built.program)
            assert warm.outputs == ref.outputs
            assert warm.cycles == ref.cycles
            assert warm.steps == ref.steps

    def test_a_cacheless_build_loads_from_its_tiling(self, monkeypatch):
        # instrument() without a cache still returns a build carrying its
        # template tiling, so a fresh VM loads it neither decoding the
        # text nor harvesting CFG blocks, fused or not.
        workload = make_nas("sp", "T")
        params = workload.vm_params()
        built = instrument(
            workload.program, Config.all_single(build_tree(workload.program))
        )
        ref = VM(untiled(built.program), fused=False, **params).run()

        def no_decode(*_args):
            raise AssertionError("a cacheless build was not loaded from its tiling")

        for name in ("decode_instruction", "_decode", "_harvest_blocks"):
            monkeypatch.setattr(vm_machine, name, no_decode)
        for fused in (True, False):
            got = run_program(built.program, fused=fused, **params)
            assert (got.outputs, got.cycles, got.steps) == (
                ref.outputs, ref.cycles, ref.steps
            ), f"fused={fused}"

    def test_a_dropped_vm_is_freed_without_the_cyclic_collector(self):
        # A load from templates gives each fused-run member a lazy
        # stand-in kept in the VM's records; the stand-ins and the fused
        # runs' budget tail reach the VM weakly, so a VM nobody holds is
        # freed by reference counting.
        workload = make_nas("cg", "T")
        built = instrument(
            workload.program, Config.all_single(build_tree(workload.program))
        )
        vm = VM(built.program, **workload.vm_params())
        vm.run()
        dropped = weakref.ref(vm)
        gc.disable()
        try:
            del vm
            assert dropped() is None
        finally:
            gc.enable()

    def test_segment_cache_flushes_at_its_bound(self, monkeypatch):
        bound = 4
        monkeypatch.setattr(vm_machine, "SEGMENT_CACHE_MAX", bound)
        workload = make_nas("mg", "T")
        tree = build_tree(workload.program)
        cache = InstrumentCache(workload.program)
        params = workload.vm_params()
        machine = Machine(**params)
        insns = list(tree.instructions())
        configs = [Config.all_double(tree), Config.all_single(tree)] + [
            Config.all_double(tree).set(node.node_id, Policy.SINGLE)
            for node in insns[:3]
        ]
        for config in configs + configs:
            built = instrument(workload.program, config, cache=cache)
            assert len(built.program.segments) > bound
            warm = machine.run(built.program)
            ref = VM(untiled(built.program), fused=False, **params).run()
            assert warm.outputs == ref.outputs
            assert warm.cycles == ref.cycles
            assert warm.steps == ref.steps
            assert len(machine._vm._records) <= bound
