"""Fused superinstruction dispatch: exact parity with the reference loop.

The fused path (:mod:`repro.vm.fuse`) replaces each straight-line run
with one generated closure.  Its contract is *bit- and cycle-identity*
with the per-instruction reference loop on every observable — outputs,
cycles, steps, trap messages, trap addresses — on every path, including
the awkward ones this file exists for: the step budget expiring in the
middle of a fused run, a fault on the last instruction of a fused pair,
and a collective yield resuming execution inside a specialized segment.

``VM(..., fused=False)`` is the reference; it is the exact loop the
fused path replaced (also reachable via ``REPRO_NO_FUSE=1``).  Every
case also runs with ``profile=True``: execution counting rides fused
dispatch, so the per-instruction and per-opcode census must match the
reference's on every one of those paths too.
"""

import pytest

from repro.asm import AsmBuilder, LabelRef
from repro.compiler import CompileOptions, compile_source
from repro.config import Config, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.isa import Imm, Mem, Op, Reg
from repro.mpi import MultiRankRunner
from repro.telemetry import ListSink, Telemetry
from repro.vm import VM, Machine
from repro.vm.errors import VmTimeout, VmTrap
from repro.workloads import make_nas
from tests.conftest import untiled


def _loop_program(n):
    builder = AsmBuilder()
    builder.func("_start")
    builder.emit(Op.MOV, Reg(0), Imm(0))
    builder.mark("top")
    builder.emit(Op.INC, Reg(0))
    builder.emit(Op.CMP, Reg(0), Imm(n))
    builder.emit(Op.JL, LabelRef("top"))
    builder.emit(Op.OUTI, Reg(0))
    builder.emit(Op.HALT)
    builder.endfunc()
    return builder.link()


def _pair(program, **kw):
    """(fused VM, reference VM) for the same program and parameters."""
    fused = VM(program, **kw)
    ref = VM(program, fused=False, **kw)
    assert fused._fcode is not None and any(fused._fcode), (
        "test is vacuous: the program produced no fused run"
    )
    assert ref._fcode is None
    return fused, ref


def _assert_same_counts(fused, ref):
    """Both paths report the identical execution census."""
    assert fused.instruction_stats() == ref.instruction_stats()
    assert fused.opcode_stats() == ref.opcode_stats()


def _assert_same_trap(program, match, **kw):
    """Both paths trap with the identical message, address, steps,
    cycles and, with counting on, execution census."""
    for profile in (False, True):
        fused, ref = _pair(program, profile=profile, **kw)
        with pytest.raises(VmTrap, match=match) as got_f:
            fused.run()
        with pytest.raises(VmTrap, match=match) as got_r:
            ref.run()
        assert str(got_f.value) == str(got_r.value)
        assert got_f.value.addr == got_r.value.addr
        assert fused.steps == ref.steps
        assert fused.cycles == ref.cycles
        assert fused.outputs == ref.outputs
        _assert_same_counts(fused, ref)
    return got_f.value


class TestBudgetEdges:
    def test_budget_expiring_mid_run_every_alignment(self):
        # The loop body (inc+cmp+jl) is one fused run of 3; sweeping the
        # budget over several periods lands the expiry on every relative
        # position inside the run — including budgets smaller than the
        # run, which exercise the _fused_tail deopt.
        full = _loop_program(50)
        total = VM(full, fused=False).run().steps
        for budget in list(range(1, 16)) + [total - 1]:
            for profile in (False, True):
                fused, ref = _pair(full, max_steps=budget, profile=profile)
                with pytest.raises(VmTimeout) as got_f:
                    fused.run()
                with pytest.raises(VmTimeout) as got_r:
                    ref.run()
                assert str(got_f.value) == str(got_r.value)
                assert fused.steps == ref.steps, f"budget={budget}"
                assert fused.cycles == ref.cycles, f"budget={budget}"
                _assert_same_counts(fused, ref)

    def test_budget_exactly_sufficient(self):
        full = _loop_program(50)
        total = VM(full, fused=False).run().steps
        for profile in (False, True):
            fused, ref = _pair(full, max_steps=total, profile=profile)
            assert fused.run() == ref.run()  # exec_counts included
            _assert_same_counts(fused, ref)

    def test_zero_remaining_budget_still_charges_one_step(self):
        for profile in (False, True):
            fused, ref = _pair(_loop_program(50), max_steps=0, profile=profile)
            with pytest.raises(VmTimeout):
                fused.run()
            with pytest.raises(VmTimeout):
                ref.run()
            assert fused.steps == ref.steps == 1
            _assert_same_counts(fused, ref)


class TestTrapParity:
    def test_trap_on_last_instruction_of_fused_pair(self):
        # inc + ret fuse into one run of two; the terminator faults.
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.INC, Reg(0))
        builder.emit(Op.RET)
        builder.endfunc()
        trap = _assert_same_trap(builder.link(), "stack underflow on ret")
        assert trap.addr >= 0

    def test_trap_mid_run_charges_partial_cycles(self):
        # Third member of a four-instruction run faults: the fused run
        # must charge exactly the two completed instructions' cycles and
        # repay the unexecuted suffix to the step budget.
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.MOV, Reg(0), Imm(10**6))
        builder.emit(Op.INC, Reg(1))
        builder.emit(Op.MOV, Mem(base=0), Reg(1))
        builder.emit(Op.HALT)
        builder.endfunc()
        trap = _assert_same_trap(builder.link(), "write out of bounds")
        assert trap.addr >= 0

    def test_trap_on_first_instruction_of_run(self):
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.POP, Reg(0))
        builder.emit(Op.HALT)
        builder.endfunc()
        _assert_same_trap(builder.link(), "stack underflow")

    def test_division_by_zero_stays_addressless(self):
        # The reference _idiv helper raises a plain VmTrap with no text
        # address; the fused template must not start stamping one.
        builder = AsmBuilder()
        builder.func("_start")
        builder.emit(Op.MOV, Reg(0), Imm(5))
        builder.emit(Op.MOV, Reg(1), Imm(0))
        builder.emit(Op.IDIV, Reg(0), Reg(1))
        builder.emit(Op.HALT)
        builder.endfunc()
        trap = _assert_same_trap(builder.link(), "division by zero")
        assert trap.addr == -1


class TestResumeMidSegment:
    def test_resume_into_run_interior_single_steps_to_next_head(self):
        # Entering at the cmp (index 2) lands inside the inc+cmp+jl run:
        # the fused loop must single-step the reference closures until
        # dispatch reaches the next run head, with exact accounting.
        program = _loop_program(30)
        for profile in (False, True):
            fused, ref = _pair(program, profile=profile)
            assert fused._fcode[2] is None, "expected a run-interior entry"
            assert fused.resume(2) and ref.resume(2)
            assert fused.outputs == ref.outputs
            assert fused.steps == ref.steps
            assert fused.cycles == ref.cycles
            _assert_same_counts(fused, ref)

    def test_collective_yield_resumes_into_specialized_segment(self):
        # Multi-rank: every allreduce yields to the scheduler and resumes
        # at the next instruction, mid-block.  Fused and reference
        # runners must agree on every per-rank observable.
        src = """
        const N: i64 = 64;
        fn main() {
            var rank: i64 = mpi_rank();
            var size: i64 = mpi_size();
            var acc: real = 0.0;
            for i in 0 .. N {
                if i % size == rank {
                    acc = acc + 1.0 / real(i + 1);
                }
                acc = allreduce_sum(acc) / real(size);
            }
            out(acc);
        }
        """
        program = compile_source(src, CompileOptions())
        for size in (2, 4):
            for profile in (False, True):
                fused_runner = MultiRankRunner(program, size, profile=profile)
                assert any(
                    vm._fcode is not None and any(vm._fcode)
                    for vm in fused_runner.vms
                ), "test is vacuous: no rank built a fused run"
                ref_runner = MultiRankRunner(program, size, profile=profile)
                for vm in ref_runner.vms:
                    vm._fcode = None  # force the reference loop
                got_f = fused_runner.run()
                got_r = ref_runner.run()
                assert got_f.values() == got_r.values()
                assert fused_runner.collectives == ref_runner.collectives
                for rank_f, rank_r in zip(got_f.per_rank, got_r.per_rank):
                    assert rank_f.outputs == rank_r.outputs
                    assert rank_f.cycles == rank_r.cycles
                    assert rank_f.steps == rank_r.steps
                    assert rank_f.exec_counts == rank_r.exec_counts
                for vm_f, vm_r in zip(fused_runner.vms, ref_runner.vms):
                    _assert_same_counts(vm_f, vm_r)


class TestCountingStaysFused:
    def test_profiled_and_traced_vms_enter_fused_runs(self):
        # Counting is a load-time wrapper, not a deopt: a profile=True
        # VM and a telemetry-enabled VM must dispatch through their
        # fused run heads, and still count exactly what the reference
        # loop counts.
        program = _loop_program(50)
        for kw in ({"profile": True}, {"telemetry": Telemetry(sinks=[ListSink()])}):
            fused, ref = _pair(program, **kw)
            entered = []
            fcode = fused._fcode
            for i, run in enumerate(fcode):
                if run is not None:
                    fcode[i] = lambda idx, run=run: entered.append(idx) or run(idx)
            assert fused.run() == ref.run()
            assert entered, f"{kw}: no fused run was entered"
            _assert_same_counts(fused, ref)
            assert sum(e for _a, _m, e, _c in fused.instruction_stats()) == fused.steps


class TestSegmentPartitionCache:
    def test_partition_cached_segments_stay_byte_identical(self):
        # The searcher's shape: one Machine, repeated instrumented builds
        # of one workload.  The second and later loads take the cached
        # partition path (template bytes -> run partition); results must
        # match a cold, unfused VM exactly.
        workload = make_nas("cg", "T")
        tree = build_tree(workload.program)
        cache = InstrumentCache(workload.program)
        machine = Machine(**workload.vm_params())
        params = workload.vm_params()
        for config in (Config.all_double(tree), Config.all_single(tree)):
            built = instrument(workload.program, config, cache=cache)
            for _ in range(2):  # second run rebinds through the partitions
                warm = machine.run(built.program)
                ref = VM(untiled(built.program), fused=False, **params).run()
                assert warm.outputs == ref.outputs
                assert warm.cycles == ref.cycles
                assert warm.steps == ref.steps
        assert any(
            record.partition for record in machine._vm._records.values()
        ), "segment loads never populated the partition cache"
        assert machine.fuse_cache_hits > 0
