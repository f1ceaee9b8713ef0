"""Flag liveness and the code it lets the fused emitter drop.

:func:`repro.vm.fuse.flag_liveness` decides which flags a fused run must
compute and store.  It has to be conservative wherever the span it scans
cannot see the code that follows: these tests pin each rule, and show
that the instrumentation snippet's flag check — ``movqrx; shr; cmp;
je`` — compiles to one equality test when its successors overwrite the
flags anyway.
"""

from __future__ import annotations

from types import SimpleNamespace

import repro.vm.machine as vm_machine
from repro.config import Config, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.isa import Imm, Instruction, Op, Reg, Xmm
from repro.vm import VM, Machine, fuse
from repro.vm.fuse import _ALL_FLAGS, _LT, _PF, _ZF, _run_source, flag_liveness
from repro.workloads import make_nas
from tests.conftest import untiled


def _live(*code, targets=None):
    """Live-out masks of a span of bare opcodes; *targets* maps branch
    positions to in-span targets."""
    instrs = [SimpleNamespace(opcode=op) for op in code]
    return flag_liveness(instrs, 0, len(instrs), targets or {})


class TestRules:
    def test_jp_je_chain_keeps_zf_live(self):
        # ucomisd; jp L1; je L2; nop; L1: nop; L2: halt — the je reads the
        # ZF the ucomisd wrote, across the jp that closes its run.
        live = _live(
            Op.UCOMISD, Op.JP, Op.JE, Op.NOP, Op.NOP, Op.HALT,
            targets={1: 4, 2: 5},
        )
        assert live[1] == _ZF
        assert live[0] == _ZF | _PF

    def test_call_makes_all_flags_live(self):
        live = _live(Op.CMP, Op.CALL, Op.CMP, Op.HALT, targets={1: 3})
        assert live[1] == _ALL_FLAGS
        assert live[0] == _ALL_FLAGS

    def test_ret_makes_all_flags_live(self):
        assert _live(Op.CMP, Op.RET)[:2] == [_ALL_FLAGS, _ALL_FLAGS]

    def test_span_exits_make_all_flags_live(self):
        # Falling off the end, a jump whose target the span cannot
        # resolve, and a branch leaving the span.
        assert _live(Op.CMP, Op.NOP) == [_ALL_FLAGS, _ALL_FLAGS]
        assert _live(Op.CMP, Op.JMP, Op.HALT)[:2] == [_ALL_FLAGS, _ALL_FLAGS]
        outside = _live(Op.CMP, Op.JE, Op.HALT, targets={1: 7})
        assert outside[:2] == [_ALL_FLAGS, _ALL_FLAGS]

    def test_halt_makes_no_flag_live(self):
        assert _live(Op.CMP, Op.NOP, Op.HALT) == [0, 0, 0]

    def test_a_compare_kills_every_flag(self):
        live = _live(Op.TEST, Op.UCOMISS, Op.JL, Op.HALT, Op.HALT,
                     targets={2: 4})
        assert live[0] == 0  # overwritten before the jl reads anything
        assert live[1] == _LT  # what the jl reads
        assert live[2] == 0  # both successors halt

    def test_back_edges_reach_the_fixpoint(self):
        # top: nop; jge done; jmp top; done: jne elsewhere — the loop's
        # live set flows around the back edge into the jmp.  (The
        # trailing compare is unreachable; without one the span needs
        # no masks at all.)
        live = _live(Op.NOP, Op.JGE, Op.JMP, Op.JNE, Op.HALT, Op.CMP,
                     targets={1: 3, 2: 0, 3: 4})
        assert live[2] == _LT | _PF | _ZF
        assert live[0] == _LT | _PF | _ZF

    def test_a_span_without_compares_needs_no_masks(self):
        assert _live(Op.NOP, Op.JE, Op.RET, targets={1: 0}) is None


#: the snippet's flag check on x3: is the high word the f32 sentinel?
_CHECK = [
    Instruction(Op.MOVQRX, (Reg(12), Xmm(3)), 0),
    Instruction(Op.SHR, (Reg(12), Imm(32)), 7),
    Instruction(Op.CMP, (Reg(12), Imm(0x7FF4DEAD)), 21),
    Instruction(Op.JE, (Imm(0),), 35),
]


def _check_source(mask):
    return _run_source(_CHECK, [1, 1, 1, 1], 0, 3, 3, 1, 1, mask)


class TestSnippetCheckSource:
    def test_dead_flags_are_neither_computed_nor_stored(self):
        src = _check_source(0)
        assert "flags[" not in src
        assert "_s64" not in src
        # One equality, tested as a local by the branch.
        assert "z2 = g12 == 2146754221" in src
        assert "if z2:" in src
        compile(src, "<fused-run>", "exec")

    def test_live_flags_are_stored_without_sign_extension(self):
        src = _check_source(_ALL_FLAGS)
        assert "flags[0] = " in src and "flags[1] = " in src
        assert "flags[2] = 0" in src
        assert "_s64" not in src  # lt compares sign-flipped patterns

    def test_instrumented_checks_mostly_kill_their_flags(self):
        # On a real all-single build, per-template liveness sees the next
        # snippet's compare behind most checks: their je exits store no
        # flag.
        workload = make_nas("cg", "T")
        program = workload.program
        built = instrument(
            program,
            Config.all_single(build_tree(program)),
            cache=InstrumentCache(program),
        )
        machine = Machine(**workload.vm_params())
        machine.run(built.program)
        vm = machine._vm
        dead = checks = 0
        lo = 0
        for code, instrs, _base in built.program.segments:
            hi = lo + len(instrs)
            targets = {}
            for j, instr in enumerate(instrs):
                if instr.opcode is Op.JE:
                    t = vm._branch_index(vm._instrs[lo + j].operands[0], 0)
                    if lo < t < hi:
                        targets[lo + j] = t
            live = flag_liveness(vm._instrs, lo, hi, targets)
            for j, instr in enumerate(instrs[:-1]):
                if (
                    instr.opcode is Op.CMP
                    and instrs[j + 1].opcode is Op.JE
                    and instr.operands[1] == Imm(0x7FF4DEAD)
                ):
                    checks += 1
                    dead += live[j + 1] == 0
            lo = hi
        assert checks > 0
        assert dead * 2 > checks, (dead, checks)


class TestLoadScope:
    def test_a_load_without_templates_keeps_whole_program_liveness(
        self, monkeypatch
    ):
        # VM(program) loads one whole-program segment, so its liveness
        # sees across every template edge; a load from the templates is
        # conservative at each edge.  The scopes show in the factories
        # compiled: fewer exit masks store a flag.  The counts are the
        # plain (Figure 6) build's, whose runs continue through the
        # checks' folded branches.
        workload = make_nas("cg", "T")
        program = workload.program
        built = instrument(
            program,
            Config.all_single(build_tree(program)),
            cache=InstrumentCache(program),
            plain=True,
        )
        monkeypatch.setattr(vm_machine, "_NO_FUSE", False)
        storing = []
        for loaded in (untiled(built.program), built.program):
            monkeypatch.setattr(fuse, "_FACTORIES", {})
            VM(loaded, **workload.vm_params())
            keys = [key for by_key in fuse._FACTORIES.values() for key in by_key]
            storing.append(sum(1 for *_run, mask in keys if mask > 0))
        assert storing == [9, 24]
