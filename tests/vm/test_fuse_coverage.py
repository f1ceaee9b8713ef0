"""Opcode-coverage conformance for the fused dispatch path.

Two guarantees, checked exhaustively over :data:`repro.isa.opcodes.Op`:

1. **Static coverage** — every opcode in the ISA is claimed by the fuser:
   either it has a straight-line template (``fuse._MEMBER_OPS``) or it is
   a run terminator (``fuse._TERMINATORS``).  A new opcode added without
   a decision here fails this test by construction.

2. **Dynamic conformance** — for every opcode, every signature
   alternative, and every operand-letter choice, a minimal program
   exercising that exact shape executes bit-identically on the fused and
   reference paths (same outputs, cycles, steps — or the same trap), and
   the shape actually lands inside a fused run, so the template is
   proven compiled and correct rather than silently falling back.

The only sanctioned fallbacks are *dynamic*, not per-opcode: collectives
at ``size > 1`` (they yield to the rank scheduler) and the rare operand
shapes whose emission raises ``Unfusable``; both degrade to the
reference closures, which tests/vm/test_fused_parity.py holds to the
same bit-identity contract.
"""

from itertools import product

import pytest

from repro.asm import AsmBuilder, LabelRef
from repro.fpbits import ieee, narrow
from repro.isa import Imm, Mem, Op, Reg, Xmm
from repro.isa.opcodes import OPCODE_INFO
from repro.vm import VM
from repro.vm import fuse
from repro.vm.errors import VmTrap
from repro.vm.fpops import HELPERS
from repro.vm.fuse import _MEMBER_OPS, _TERMINATORS


def test_every_opcode_is_claimed_by_the_fuser():
    unclaimed = set(Op) - _MEMBER_OPS - _TERMINATORS
    assert not unclaimed, (
        f"opcodes with neither a fused template nor terminator handling: "
        f"{sorted(o.name for o in unclaimed)} — add a template to "
        f"repro.vm.fuse or classify the fallback here"
    )


def test_member_and_terminator_sets_are_disjoint():
    assert not (_MEMBER_OPS & _TERMINATORS)


def test_fused_source_names_each_helper_by_its_module_attribute():
    # Fused runs call a helper by its __name__, resolved in the factory
    # globals; the reference closures call the function object itself.
    # The two agree only if every name is the helper's attribute name.
    for name, fn in HELPERS.items():
        module = ieee if fn.__module__ == ieee.__name__ else narrow
        assert getattr(module, name) is fn, name
        assert fuse._EXEC_GLOBALS[name] is fn, name


_LETTER_OPERANDS = {
    "R": Reg(2),
    "I": Imm(1),  # valid PEXTR/PINSR lane and ALLRED reduction selector
    "M": Mem(disp=0),
    "X": Xmm(1),
}


def _member_shapes():
    """(opcode, operands) for every signature alternative and letter mix."""
    for op in sorted(_MEMBER_OPS):
        info = OPCODE_INFO[op]
        for sig in info.sigs:
            for letters in product(*sig):
                yield op, tuple(_LETTER_OPERANDS[ch] for ch in letters)


def _member_program(op, operands):
    builder = AsmBuilder()
    builder.global_("g", 4)
    builder.func("_start")
    if op is Op.HALT:
        # HALT ends a run, so it needs a member before it to reach the
        # MIN_RUN threshold; every other opcode gets the tail appended.
        builder.emit(Op.NOP)
        builder.emit(op, *operands)
    else:
        builder.emit(op, *operands)
        builder.emit(Op.NOP)
        builder.emit(Op.HALT)
    builder.endfunc()
    return builder.link()


def _terminator_program(op):
    builder = AsmBuilder()
    builder.func("_start")
    if op is Op.CALL:
        builder.emit(Op.NOP)
        builder.emit(Op.CALL, LabelRef("f"))
        builder.emit(Op.HALT)
        builder.endfunc()
        builder.func("f")
        builder.emit(Op.NOP)
        builder.emit(Op.RET)
        builder.endfunc()
    else:  # JMP and the conditional branches
        builder.emit(Op.CMP, Reg(0), Imm(0))
        builder.emit(op, LabelRef("done"))
        builder.mark("done")
        builder.emit(Op.HALT)
        builder.endfunc()
    return builder.link()


def _run_both(program):
    """(fused VM, reference VM, outcome) — outcome is a result or trap."""
    results = []
    vms = []
    for fused in (True, False):
        vm = VM(program, fused=fused, max_steps=10_000)
        vms.append(vm)
        try:
            results.append(("ok", vm.run()))
        except VmTrap as exc:
            results.append(("trap", (str(exc), exc.addr)))
    return vms[0], vms[1], results[0], results[1]


@pytest.mark.parametrize(
    "op,operands",
    list(_member_shapes()),
    ids=lambda v: v.name if isinstance(v, Op) else repr(v),
)
def test_member_shape_fuses_and_matches_reference(op, operands):
    program = _member_program(op, operands)
    fused_vm, ref_vm, got_f, got_r = _run_both(program)
    # The shape must be inside a fused run, not on a silent fallback.
    assert fused_vm._fcode is not None and fused_vm._fcode[0] is not None, (
        f"{op.name} {operands} did not compile into a fused run"
    )
    kind_f, payload_f = got_f
    kind_r, payload_r = got_r
    assert kind_f == kind_r, (op.name, operands, payload_f, payload_r)
    if kind_f == "ok":
        assert payload_f == payload_r, (op.name, operands)
    else:
        assert payload_f == payload_r, (op.name, operands)
    assert fused_vm.steps == ref_vm.steps
    assert fused_vm.cycles == ref_vm.cycles


@pytest.mark.parametrize(
    "op", sorted(_TERMINATORS - {Op.RET}), ids=lambda o: o.name
)
def test_terminator_closes_a_fused_run(op):
    program = _terminator_program(op)
    fused_vm, ref_vm, got_f, got_r = _run_both(program)
    assert fused_vm._fcode is not None and any(fused_vm._fcode), (
        f"{op.name} never closed a fused run"
    )
    assert got_f == got_r
    assert fused_vm.steps == ref_vm.steps
    assert fused_vm.cycles == ref_vm.cycles


def test_ret_closes_a_fused_run():
    # RET needs a frame on the stack: reach it through a call.
    program = _terminator_program(Op.CALL)
    fused_vm, ref_vm, got_f, got_r = _run_both(program)
    assert got_f == got_r == ("ok", got_f[1])
    assert fused_vm.steps == ref_vm.steps


def test_multirank_collectives_are_a_sanctioned_fallback():
    # With size > 1 a collective yields to the scheduler, so it must be
    # excluded from run membership; everything around it still fuses.
    builder = AsmBuilder()
    builder.func("_start")
    builder.emit(Op.MOV, Reg(0), Imm(1))
    builder.emit(Op.CVTSI2SD, Xmm(0), Reg(0))
    builder.emit(Op.ALLRED, Xmm(0), Imm(0))
    builder.emit(Op.OUTSD, Xmm(0))
    builder.emit(Op.HALT)
    builder.endfunc()
    program = builder.link()
    single = VM(program, size=1)
    assert single._fcode is not None and single._fcode[0] is not None
    multi = VM(program, rank=0, size=2)
    if multi._fcode is not None:
        idx = next(
            i for i, ins in enumerate(multi._instrs)
            if ins.opcode is Op.ALLRED
        )
        # The collective itself must stay on the per-instruction path so
        # its CollectiveYield escapes with an exact resume index.
        assert multi._fcode[idx] is None
