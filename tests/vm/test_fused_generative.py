"""Generative fused-vs-reference differential.

The hand tables in tests/vm/test_fuse_coverage.py and
tests/vm/test_fused_parity.py list the shapes someone thought of.
Register promotion and flag liveness change the generated code of every
run, so this suite lets Hypothesis assemble the programs instead: small
:class:`AsmBuilder` programs whose straight-line stretches draw from
every member signature the fuser has a template for (``_MEMBER_OPS``),
over registers that include the snippet scratch set (r12, r13, x14,
x15) and the stack pointer r15, immediates across the full signed and
unsigned 64-bit range (so compares straddle the sign bit), and memory
operands that sometimes fall out of bounds.  Control flow comes in
chunks covering every terminator kind:

* a compare closing on any conditional branch, forward over a stretch;
* the compiler's ``ucomisd; jp L; je L2`` chain, where ZF stays live
  across the run boundary the ``jp`` closes;
* a call to a callee that sets flags and returns into the caller's
  conditional branch;
* counted loops (which may spin until the step budget expires when the
  body clobbers the counter);
* unconditional jumps and bare returns;
* diamonds the fuser folds into one run: forward branches over arms of
  0-8 members without a compare, one or two per run, taken and not
  taken, with a register the arm writes read after the join; a second
  branch to the same join, which must not fold; a branch at a join.

Each program runs with a step budget that sometimes expires mid-run, on
the fused path and on the reference loop (``fused=False``), plain and
with ``profile=True``, and once more as an instrumented build loaded
from its cached templates (a :class:`Machine`) against the reference
loop.  That build is all-single, so the rewriter's snippets run, unless
the program names a snippet scratch register (the rewriter refuses to
replace such an instruction; those programs go all-double).
Outputs, cycles, steps, the trap (type, message, address),
``gpr``/``xmm_lo``/``xmm_hi``/``mem`` after HALT or the trap, and the
execution census must all be identical.  Flags are not compared:
outside what a conditional jump can read they are allowed to differ
(see ``repro.vm.fuse``).

Tier-1 runs a small derandomized profile; CI's fused-differential job
runs the ``fused-deep`` profile registered in tests/conftest.py
(``--hypothesis-profile fused-deep``).  Failures Hypothesis shrank are
kept below as explicit regression programs.
"""

from __future__ import annotations

from itertools import count, product

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.vm.machine as vm_machine
from repro.asm import AsmBuilder, LabelRef
from repro.config import Config, build_tree
from repro.instrument import InstrumentCache, instrument
from repro.isa import Imm, Mem, Op, Reg, Xmm
from repro.isa.opcodes import OPCODE_INFO, RED_MAX, RED_MIN, RED_SUM
from repro.isa.registers import SNIPPET_GPRS, SNIPPET_XMMS
from repro.vm import VM, Machine
from repro.vm.errors import VmTrap
from repro.vm.fuse import _COND, _EXEC_GLOBALS, _FLAG_WRITERS, _MEMBER_OPS
from tests.conftest import untiled

_GPRS = (0, 1, 2, 3, 12, 13, 15)
_XMMS = (0, 1, 2, 3, 14, 15)
_DATA_WORDS = 24
_STACK_WORDS = 24
_TOP = _DATA_WORDS + _STACK_WORDS

#: integers that sit on an edge: sign bit, masks, shift widths, the
#: replacement sentinel, IEEE specials (as binary64 and, under a
#: sentinel high word, as binary32).
_EDGES = (
    0, 1, 2, 3, 5, 31, 32, 63, 64, 0x7FF4DEAD, 2**31, 2**32 - 1,
    2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1,
    0x3FF8000000000000,  # 1.5
    0xC002000000000000,  # -2.25
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x7FF8000000000000, 0x7FF4000000000001,  # quiet / signalling NaN
    0x47EFFFFFE0000000,  # FLT_MAX
    0x7FEFFFFFFFFFFFFF,  # DBL_MAX
    0x7FF4DEAD3FC00000,  # sentinel + 1.5f
    0x7FF4DEAD7F7FFFFF,  # sentinel + FLT_MAX
    0x7FF4DEADFFC00001,  # sentinel + NaN payload
    0x7FF4BEEF00003FC0,  # bf16 sentinel + 1.5
)

_words = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(0, _TOP + 2),  # plausible addresses
    st.integers(0, 2**64 - 1),
)
_imm64 = st.one_of(
    st.sampled_from(_EDGES + (-1, -2, -(2**63))),
    st.integers(-(2**63), 2**64 - 1),
)
#: immediates that select rather than compute: lanes and reductions
#: (other values are load-time errors, not execution paths).
_REDUCTIONS = st.sampled_from((RED_SUM, RED_MIN, RED_MAX))
_SELECTORS = {
    Op.PEXTR: st.sampled_from((0, 1)),
    Op.PINSR: st.sampled_from((0, 1)),
    Op.ALLRED: _REDUCTIONS,
    Op.ALLREDSS: _REDUCTIONS,
    Op.ALLREDV: _REDUCTIONS,
    Op.ALLREDVSS: _REDUCTIONS,
    Op.BCASTSD: st.sampled_from((0, 1)),
}


def _shapes(ops):
    """(opcode, operand letters) for every signature alternative."""
    return sorted(
        (op, letters)
        for op in ops
        for sig in OPCODE_INFO[op].sigs
        for letters in product(*sig)
    )


_MEMBER_SHAPES = _shapes(_MEMBER_OPS)
_COMPARE_SHAPES = _shapes(_FLAG_WRITERS)
#: what a folded arm may hold: the members other than compares and HALT
_ARM_SHAPES = _shapes(_MEMBER_OPS - _FLAG_WRITERS - {Op.HALT})
_JCCS = sorted(_COND)


class _Gen:
    """One program under construction.

    With *scratch* the operands may name the snippet scratch registers;
    without, the program can be instrumented all-single, so its segment
    path runs the rewriter's own snippets.
    """

    def __init__(self, draw, scratch: bool) -> None:
        self.draw = draw
        self.b = AsmBuilder()
        self.labels = count()
        self.callees: list = []
        self.gprs = _GPRS if scratch else tuple(
            r for r in _GPRS if r not in SNIPPET_GPRS
        )
        self.xmms = _XMMS if scratch else tuple(
            x for x in _XMMS if x not in SNIPPET_XMMS
        )

    def label(self) -> str:
        return f"L{next(self.labels)}"

    def gpr(self) -> Reg:
        return Reg(self.draw(st.sampled_from(self.gprs)))

    def xmm(self) -> Xmm:
        return Xmm(self.draw(st.sampled_from(self.xmms)))

    def mem(self) -> Mem:
        """Mostly an in-bounds absolute cell; sometimes just outside the
        image, or relative to registers (in bounds when they hold one of
        the plausible addresses)."""
        regs = st.sampled_from(self.gprs)
        inside = st.builds(Mem, disp=st.sampled_from(range(_TOP)))
        return self.draw(st.one_of(
            inside,
            inside,
            inside,
            st.builds(Mem, disp=st.sampled_from((-1, _TOP, _TOP + 7))),
            st.builds(Mem, base=regs, disp=st.sampled_from(range(-3, 4))),
            st.builds(
                Mem,
                base=regs,
                index=regs,
                scale=st.sampled_from((1, 2, 8)),
                disp=st.sampled_from(range(-3, 4)),
            ),
        ))

    def instr(self, shapes) -> tuple:
        op, letters = self.draw(st.sampled_from(shapes))
        operands = []
        for ch in letters:
            if ch == "R":
                operands.append(self.gpr())
            elif ch == "X":
                operands.append(self.xmm())
            elif ch == "M":
                operands.append(self.mem())
            else:
                imm = _SELECTORS.get(op, _imm64)
                operands.append(Imm(self.draw(imm)))
        return (op, *operands)

    def stretch(self, lo: int = 0, hi: int = 5) -> None:
        for _ in range(self.draw(st.integers(lo, hi))):
            self.b.emit(*self.instr(_MEMBER_SHAPES))

    # -- chunks: one control-flow shape each ------------------------------

    def line(self) -> None:
        self.stretch(1, 6)

    def branch(self) -> None:
        self.stretch()
        self.b.emit(*self.instr(_COMPARE_SHAPES))
        skip = self.label()
        self.b.emit(self.draw(st.sampled_from(_JCCS)), LabelRef(skip))
        self.stretch()
        self.b.mark(skip)

    def ucomi_chain(self) -> None:
        # The compiler's NaN-aware equality test: ZF is read by the je
        # after the jp's run has closed.
        self.stretch(0, 3)
        src = self.xmm() if self.draw(st.booleans()) else self.mem()
        self.b.emit(Op.UCOMISD, self.xmm(), src)
        unordered, equal = self.label(), self.label()
        self.b.emit(Op.JP, LabelRef(unordered))
        self.b.emit(Op.JE, LabelRef(equal))
        self.stretch(0, 3)
        self.b.mark(unordered)
        self.stretch(0, 3)
        self.b.mark(equal)

    def call(self) -> None:
        # The callee's last compare reaches the caller's branch via RET.
        draw = self.draw
        name = f"f{next(self.labels)}"
        body = [self.instr(_MEMBER_SHAPES) for _ in range(draw(st.integers(0, 3)))]
        body.append(self.instr(_COMPARE_SHAPES))
        body += [self.instr(_MEMBER_SHAPES) for _ in range(draw(st.integers(0, 2)))]
        self.callees.append((name, body))
        self.stretch(0, 3)
        self.b.emit(Op.CALL, LabelRef(name))
        after = self.label()
        self.b.emit(draw(st.sampled_from(_JCCS)), LabelRef(after))
        self.stretch(0, 3)
        self.b.mark(after)

    def loop(self) -> None:
        # The body may clobber the counter; the step budget ends a spin.
        draw = self.draw
        counter = self.gpr()
        self.b.emit(Op.MOV, counter, Imm(draw(st.integers(1, 4))))
        top = self.label()
        self.b.mark(top)
        self.stretch(0, 4)
        self.b.emit(Op.DEC, counter)
        if draw(st.booleans()):
            self.b.emit(Op.CMP, counter, Imm(0))
        else:
            self.b.emit(Op.TEST, counter, counter)
        self.b.emit(draw(st.sampled_from((Op.JNE, Op.JG))), LabelRef(top))

    def jump(self) -> None:
        self.stretch(0, 3)
        if self.draw(st.integers(0, 4)) == 0:
            self.b.emit(Op.RET)  # to wherever the stack top points
            return
        over = self.label()
        self.b.emit(Op.JMP, LabelRef(over))
        self.stretch(0, 2)
        self.b.mark(over)

    def fork(self, join: str) -> list:
        """A compare and a forward branch to *join* over an arm the fuser
        folds (0-8 members, no compare); returns the arm.  A register
        compared with itself reads equal, so every condition is taken
        some of the time and not taken some of the time.  Without a
        compare the branch tests the flags already set, and may sit at
        the previous fork's join."""
        draw = self.draw
        compare = draw(st.integers(0, 3))
        if compare == 0:
            self.b.emit(*self.instr(_COMPARE_SHAPES))
        elif compare == 1:
            r = self.gpr()
            self.b.emit(Op.CMP, r, r)
        elif compare == 2:
            x = self.xmm()
            self.b.emit(Op.UCOMISD, x, x)
        self.b.emit(draw(st.sampled_from(_JCCS)), LabelRef(join))
        arm = [self.instr(_ARM_SHAPES) for _ in range(draw(st.integers(0, 8)))]
        for instr in arm:
            self.b.emit(*instr)
        return arm

    def diamond(self) -> None:
        # Sometimes the run starts at the diamond (a jump to the next
        # instruction ends the one before), so a cell the arm writes can
        # be written first there; reading the arm's last destination
        # after the join then reads a local the taken path never wrote.
        # Two compares may feed two folded branches of one run, and a
        # second branch may aim at a join, which then must not fold.
        draw = self.draw
        if draw(st.booleans()):
            head = self.label()
            self.b.emit(Op.JMP, LabelRef(head))
            self.b.mark(head)
        self.stretch(0, 2)
        for _ in range(draw(st.integers(1, 2))):
            join = self.label()
            arm = self.fork(join)
            if draw(st.integers(0, 3)) == 0:
                arm = self.fork(join)
            self.b.mark(join)
            written = [ops[0] for _op, *ops in arm
                       if ops and isinstance(ops[0], (Reg, Xmm))]
            if written and draw(st.booleans()):
                dst = written[-1]
                self.b.emit(Op.OUTI if isinstance(dst, Reg) else Op.OUTSD, dst)
        self.stretch(0, 2)

    CHUNKS = (line, branch, ucomi_chain, call, loop, jump, diamond)


@st.composite
def programs(draw):
    """``(program, scratch)``: a linked program and whether it names the
    snippet scratch registers."""
    scratch = draw(st.booleans())
    gen = _Gen(draw, scratch)
    b = gen.b
    b.global_(
        "g",
        _DATA_WORDS,
        draw(st.lists(_words, min_size=_DATA_WORDS, max_size=_DATA_WORDS)),
    )
    b.func("_start")
    for r in gen.gprs[:-1]:  # r15 starts as the stack pointer
        b.emit(Op.MOV, Reg(r), Imm(draw(_words)))
    for x in gen.xmms:
        b.emit(Op.MOVAPD, Xmm(x), Mem(disp=draw(st.integers(0, _DATA_WORDS - 2))))
    for _ in range(draw(st.integers(1, 5))):
        draw(st.sampled_from(_Gen.CHUNKS))(gen)
    b.emit(Op.OUTI, Reg(0))
    b.emit(Op.OUTSD, Xmm(0))
    b.emit(Op.OUTSS, Xmm(1))
    b.emit(Op.HALT)
    b.endfunc()
    for name, body in gen.callees:
        b.func(name)
        for instr in body:
            b.emit(*instr)
        b.emit(Op.RET)
        b.endfunc()
    return b.link(), scratch


#: a third of the runs get a budget that expires within ~40 steps.
_budgets = st.one_of(st.just(3000), st.just(3000), st.integers(0, 40))


def _state(vm, trap) -> dict:
    return {
        "trap": trap,
        "outputs": list(vm.outputs),
        "cycles": vm.cycles,
        "steps": vm.steps,
        "gpr": list(vm.gpr),
        "xmm_lo": list(vm.xmm_lo),
        "xmm_hi": list(vm.xmm_hi),
        "mem": list(vm.mem),
    }


def _outcome(run) -> tuple:
    try:
        run()
    except VmTrap as exc:
        return type(exc).__name__, str(exc), exc.addr
    return ("halt",)


def _warm_arithmetic_helpers():
    """Run every FP add/sub/mul helper past CPython's specialization
    threshold.  When both operands are NaN, a float ``+`` or ``*``
    propagates one payload before its code object specializes the
    operation and the other after.  The fused and reference paths call
    the same helpers, so warm helpers keep the first examples of a fresh
    process from comparing a cold call against a warm one."""
    for name, helper in _EXEC_GLOBALS.items():
        if name.endswith(("_add", "_sub", "_mul")):
            for _ in range(16):
                helper(0, 0)


_warm_arithmetic_helpers()


def assert_fused_matches_reference(program, scratch, max_steps):
    """A whole-program load (``VM(program)``) against ``fused=False``,
    plain and counting; then a load from cached templates (a
    :class:`Machine`, twice) against the reference loop, on an
    all-single build — all-double when the program names scratch
    registers, which the rewriter refuses to replace."""
    kw = {"stack_words": _STACK_WORDS, "max_steps": max_steps}
    for profile in (False, True):
        fused = VM(program, profile=profile, **kw)
        ref = VM(program, fused=False, profile=profile, **kw)
        got = _state(fused, _outcome(fused.run))
        assert got == _state(ref, _outcome(ref.run)), f"profile={profile}"
        if profile:
            assert fused.instruction_stats() == ref.instruction_stats()

    tree = build_tree(program)
    config = Config.all_double(tree) if scratch else Config.all_single(tree)
    built = instrument(program, config, cache=InstrumentCache(program))
    ref = VM(untiled(built.program), fused=False, **kw)
    expected = _state(ref, _outcome(ref.run))
    machine = Machine(**kw)
    for load in range(2):  # the second load reuses the cached partitions
        trap = _outcome(lambda: machine.run(built.program))
        assert _state(machine._vm, trap) == expected, f"segment load {load}"


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
@given(case=programs(), max_steps=_budgets)
def test_generated_programs_match_reference(case, max_steps):
    assert_fused_matches_reference(*case, max_steps)


# -- regression programs: failures the generator found, kept explicit -----

_QNAN = 0x7FFFFFFF0000000A  # quiet NaN, payload in both words
_SNAN = 0x7FF4DEAD0000000A  # signalling NaN: the f32 sentinel as a double


def _two_nan_program(op, marker):
    b = AsmBuilder()
    b.global_("g", 4, [_QNAN, _SNAN])
    b.func("_start")
    b.emit(Op.MOV, Reg(0), Imm(marker))  # a fresh run, so a cold factory
    b.emit(Op.MOVSD, Xmm(3), Mem(disp=0))
    b.emit(Op.MOVSD, Xmm(0), Mem(disp=1))
    b.emit(op, Xmm(3), Xmm(0))
    b.emit(Op.OUTSD, Xmm(3))
    b.emit(Op.HALT)
    b.endfunc()
    return b.link()


def test_two_nan_arithmetic_matches_a_warm_reference():
    # When both operands are NaN, CPython's float arithmetic propagates
    # one payload before the code object specializes the operation and
    # the other after.  A freshly compiled run is cold while the
    # reference helper is warm, so inlined add/sub/mul must hand NaN
    # results back to the helper.
    for k, op in enumerate(
        (Op.ADDSD, Op.SUBSD, Op.MULSD, Op.ADDSS, Op.SUBSS, Op.MULSS)
    ):
        program = _two_nan_program(op, 0x5EED0000 + k)
        for _ in range(10):
            ref = VM(program, fused=False).run()
        assert VM(program).run() == ref, op.name


def test_a_stack_access_past_the_top_traps_both_paths_alike():
    # A push, pushx or call that moves the stack pointer above the
    # stack's top traps as an underflow, with the same message, address
    # and state on the fused path and the reference loop.
    for op, operand in ((Op.PUSH, Reg(0)), (Op.PUSHX, Xmm(0)),
                        (Op.CALL, LabelRef("f"))):
        b = AsmBuilder()
        b.func("_start")
        b.emit(Op.SHL, Reg(15), Imm(19))
        b.emit(op, operand)
        b.emit(Op.HALT)
        b.endfunc()
        b.func("f")
        b.emit(Op.RET)
        b.endfunc()
        program = b.link()
        fused = VM(program)
        assert vm_machine._NO_FUSE or fused._fcode[0] is not None, op.name
        ref = VM(program, fused=False)
        got = _state(fused, _outcome(fused.run))
        assert got == _state(ref, _outcome(ref.run)), op.name
        message = "stack underflow" + (" on call" if op is Op.CALL else "")
        assert got["trap"] == (
            "VmTrap", f"{message} (at text address 0xe)", 0xE
        ), op.name


# -- folded diamonds: each shape the generator's diamond chunk draws -------


def _diamond_program(r0, body):
    """``_start``: r0 = *r0*, r3 = an address past the image, x1 = g[0],
    then *body* (instruction tuples, a str marks a label), then r1, x2
    and r4 out, and HALT."""
    b = AsmBuilder()
    b.global_("g", 4, [0x3FF8000000000000, 0x7FF4DEAD3FC00000, 7, 9])
    b.func("_start")
    b.emit(Op.MOV, Reg(0), Imm(r0))
    b.emit(Op.MOV, Reg(3), Imm(1 << 40))
    b.emit(Op.MOVSD, Xmm(1), Mem(disp=0))
    for item in body:
        if isinstance(item, str):
            b.mark(item)
        else:
            b.emit(*item)
    b.emit(Op.OUTI, Reg(1))
    b.emit(Op.OUTSD, Xmm(2))
    b.emit(Op.OUTI, Reg(4))
    b.emit(Op.HALT)
    b.endfunc()
    return b.link()


#: r1 and x2 first written inside the arm, read after the join
_ARM = [
    (Op.MOV, Reg(1), Imm(41)),
    (Op.MOVSD, Xmm(2), Xmm(1)),
    (Op.CVTSD2SS, Xmm(2), Xmm(2)),
    (Op.ADD, Reg(1), Imm(1)),
]
_FAULT = (Op.MOV, Reg(4), Mem(base=3))  # a read far past the image

#: name -> (body, whether the join at body index 6 is folded)
_DIAMONDS = {
    "arm": ([(Op.CMP, Reg(0), Imm(5)), (Op.JE, LabelRef("j")), *_ARM, "j",
             (Op.MOV, Reg(4), Imm(3))], True),
    "empty arm": ([(Op.CMP, Reg(0), Imm(5)), (Op.JNE, LabelRef("j")), "j",
                   *_ARM, (Op.MOV, Reg(4), Imm(3))], True),
    "fault in the arm": ([(Op.CMP, Reg(0), Imm(5)), (Op.JE, LabelRef("j")),
                          *_ARM[:2], _FAULT, *_ARM[2:], "j"], True),
    "fault after the join": ([(Op.CMP, Reg(0), Imm(5)), (Op.JE, LabelRef("j")),
                              *_ARM, "j", _FAULT], True),
    "two compares": ([(Op.CMP, Reg(0), Imm(5)), (Op.JL, LabelRef("j")),
                      *_ARM, "j", (Op.TEST, Reg(0), Reg(0)),
                      (Op.JNE, LabelRef("k")), (Op.MOV, Reg(4), Imm(2)),
                      "k"], True),
    "a join that branches": ([(Op.CMP, Reg(0), Imm(5)), (Op.JG, LabelRef("j")),
                              *_ARM, "j", (Op.JE, LabelRef("k")),
                              (Op.MOV, Reg(4), Imm(2)), "k"], True),
    "shared join": ([(Op.CMP, Reg(0), Imm(5)), (Op.JE, LabelRef("j")),
                     *_ARM[:1], (Op.CMP, Reg(0), Imm(6)),
                     (Op.JL, LabelRef("j")), *_ARM[1:], "j"], False),
}


def test_folded_diamonds_match_the_reference_at_every_budget():
    # Each shape runs taken (r0 = 5) and not taken (r0 = 9, r0 = 3), with
    # every step budget up to the program's length, arms included, and
    # an ample one: expiring before the run, inside the arm and after
    # the join, and none (a budget below the run's length deoptimizes).
    for name, (body, folds) in _DIAMONDS.items():
        for r0 in (5, 9, 3):
            program = _diamond_program(r0, body)
            length = len(VM(program, fused=False)._instrs)
            for max_steps in (*range(length + 2), 3000):
                for profile in (False, True):
                    kw = {"max_steps": max_steps, "profile": profile}
                    fused = VM(program, **kw)
                    ref = VM(program, fused=False, **kw)
                    got = _state(fused, _outcome(fused.run))
                    assert got == _state(ref, _outcome(ref.run)), (
                        name, r0, max_steps, profile)
                    if profile:
                        assert fused.instruction_stats() == \
                            ref.instruction_stats(), (name, r0, max_steps)
            if not vm_machine._NO_FUSE:
                # The join (3 setup instructions, the compare, the
                # branch, the arm) heads no run exactly when it folds.
                join = 3 + body.index("j")
                assert (VM(program)._fcode[join] is None) == folds, name
