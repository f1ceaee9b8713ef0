"""Lean builds against the paper's plain Figure 6 form.

``instrument()`` builds lean by default: operands whose width their
block already decides (:mod:`repro.instrument.dataflow`) skip the flag
test, and the scratch save/restore is elided for programs that never
touch the scratch registers.  ``plain=True`` keeps every test and every
push.  The two forms must compute the same outputs and trap alike; only
cycles, steps and stack use may differ.  These tests pin that contract:
the transfer rules, the snippets a decided operand gets, a sign-flip
program that an unsound rule would get wrong, Hypothesis-generated
blocks run fused, on the reference loop and from templates, and the one
verdict difference the lean form is allowed, a stack overflow that only
the plain form's ``push`` reaches.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asm import AsmBuilder, LabelRef
from repro.config import Config, Policy, build_tree
from repro.fpbits.ieee import double_to_bits
from repro.instrument import instrument
from repro.instrument.dataflow import PLAIN, block_widths
from repro.isa import Imm, Mem, Op, Reg, Xmm
from repro.isa.instruction import Instruction
from repro.vm import VM, Machine
from repro.vm.errors import VmTrap
from repro.vm.fuse import _EXEC_GLOBALS
from tests.conftest import compile_src, untiled


def _outcome(run) -> tuple:
    """Outputs, or the trap's class and message without its address
    (the two forms lay the same instruction out at different addresses)."""
    try:
        return ("halt", run().outputs)
    except VmTrap as exc:
        return type(exc).__name__, str(exc).split(" (at text address")[0]


def _outcomes(program, **kw) -> list:
    """*program*'s outcome fused, on the reference loop and loaded from
    its templates."""
    whole = untiled(program)
    return [
        _outcome(VM(whole, **kw).run),
        _outcome(VM(whole, fused=False, **kw).run),
        _outcome(lambda: Machine(**kw).run(program)),
    ]


def _warm_arithmetic_helpers():
    # When both operands are NaN, CPython's float + and * propagate one
    # payload before a helper's code object specializes and the other
    # after (see tests/vm/test_fused_generative.py); warm helpers give
    # every build the same answer.
    for name, helper in _EXEC_GLOBALS.items():
        if name.endswith(("_add", "_sub", "_mul")):
            for _ in range(16):
                helper(0, 0)


_warm_arithmetic_helpers()


# -- transfer rules ----------------------------------------------------------

def _instr(addr, op, *operands):
    return Instruction(op, operands, addr)


class TestTransferRules:
    def test_double_candidate_leaves_inputs_and_result_plain(self):
        block = [
            _instr(0, Op.ADDSD, Xmm(0), Xmm(1)),
            _instr(1, Op.MULSD, Xmm(0), Xmm(1)),
        ]
        assert block_widths(block, {}) == {1: {0: PLAIN, 1: PLAIN}}

    def test_sign_operations_leave_their_result_unknown(self):
        for op in (Op.NEGSD, Op.ABSSD):
            block = [
                _instr(0, op, Xmm(0), Xmm(1)),
                _instr(1, Op.MULSD, Xmm(0), Xmm(1)),
            ]
            assert block_widths(block, {}) == {1: {1: PLAIN}}, op

    def test_narrow_candidate_flags_inputs_and_result(self):
        block = [
            _instr(0, Op.SQRTSD, Xmm(0), Xmm(1)),
            _instr(1, Op.ADDSD, Xmm(0), Xmm(1)),
        ]
        widths = block_widths(block, {0: Policy.BF16})
        assert widths == {1: {0: "bf16", 1: "bf16"}}

    def test_register_moves_copy_and_loads_forget(self):
        block = [
            _instr(0, Op.ADDSD, Xmm(0), Xmm(0)),
            _instr(1, Op.MOVAPD, Xmm(2), Xmm(0)),
            _instr(2, Op.MOVSD, Xmm(0), Mem(disp=0)),
            _instr(3, Op.ADDSD, Xmm(0), Xmm(2)),
        ]
        widths = block_widths(block, {0: Policy.SINGLE})
        assert widths == {3: {2: "f32"}}

    def test_calls_clear_and_other_writes_forget(self):
        block = [
            _instr(0, Op.ADDSD, Xmm(0), Xmm(1)),
            _instr(1, Op.CVTSS2SD, Xmm(1), Xmm(1)),
            _instr(2, Op.ADDSD, Xmm(2), Xmm(0)),
            _instr(3, Op.CALL, Imm(0)),
            _instr(4, Op.ADDSD, Xmm(0), Xmm(2)),
        ]
        assert block_widths(block, {}) == {2: {0: PLAIN}}

    def test_ignored_and_packed_candidates_forget(self):
        block = [
            _instr(0, Op.ADDSD, Xmm(0), Xmm(1)),
            _instr(1, Op.ADDSD, Xmm(0), Xmm(2)),
            _instr(2, Op.MULSD, Xmm(1), Xmm(1)),
            _instr(3, Op.ADDPD, Xmm(1), Xmm(3)),
            _instr(4, Op.ADDSD, Xmm(2), Xmm(1)),
        ]
        widths = block_widths(block, {1: Policy.IGNORE, 3: Policy.SINGLE})
        assert widths == {2: {1: PLAIN}}


# -- decided snippets --------------------------------------------------------

def _program(emit):
    b = AsmBuilder()
    b.global_("g", 4, [double_to_bits(1.5), double_to_bits(-2.25), 0, 0])
    b.func("_start")
    emit(b)
    b.emit(Op.HALT)
    b.endfunc()
    return b.link()


def _opcodes(built) -> list:
    return [i.opcode for _code, instrs, _base in built.program.segments
            for i in instrs]


def _set(program, policies: dict) -> Config:
    """A config with the *n*-th candidate at policies[n]."""
    tree = build_tree(program)
    config = Config.all_double(tree)
    for n, node in enumerate(tree.instructions()):
        config.set(node.node_id, policies.get(n, Policy.DOUBLE))
    return config


class TestDecidedSnippets:
    @staticmethod
    def _two_step(b):
        b.emit(Op.MOVSD, Xmm(0), Mem(disp=0))
        b.emit(Op.MOVSD, Xmm(1), Mem(disp=1))
        b.emit(Op.MULSD, Xmm(0), Xmm(1))
        b.emit(Op.ADDSD, Xmm(0), Xmm(1))
        b.emit(Op.OUTSD, Xmm(0))

    def test_guard_on_a_flagged_register_is_one_upcast(self):
        program = _program(self._two_step)
        config = _set(program, {0: Policy.HALF})
        lean = instrument(program, config)
        plain = instrument(program, config, plain=True)
        ops = _opcodes(lean)
        # the mul's inputs are tested once each; the add's are decided
        assert ops.count(Op.CVTHF2SD) == 2
        assert ops.count(Op.JE) == 2 and Op.JNE not in ops
        assert Op.PUSH not in ops and Op.POP not in ops
        assert lean.stats.checks_skipped == 2
        assert plain.stats.checks_skipped == 0
        assert _outcomes(lean.program) == _outcomes(plain.program)

    def test_narrow_snippet_on_a_plain_register_is_the_downcast(self):
        program = _program(self._two_step)
        config = _set(program, {1: Policy.SINGLE})
        lean = instrument(program, config)
        ops = _opcodes(lean)
        # the add's inputs are plain: each is downcast without a test
        assert ops.count(Op.CVTSD2SS) == 2
        assert Op.JE not in ops
        assert _outcomes(lean.program) == _outcomes(
            instrument(program, config, plain=True).program
        )

    def test_narrow_snippet_across_widths_upcasts_first(self):
        program = _program(self._two_step)
        config = _set(program, {0: Policy.BF16, 1: Policy.SINGLE})
        lean = instrument(program, config)
        ops = _opcodes(lean)
        assert ops.count(Op.CVTBF2SD) == 2 and ops.count(Op.CVTSD2SS) == 2
        assert ops.count(Op.JE) == 2  # the mul's own tests only
        assert _outcomes(lean.program) == _outcomes(
            instrument(program, config, plain=True).program
        )


# -- the sign-flip program ---------------------------------------------------

def test_sign_flip_onto_the_sentinel_keeps_its_check():
    # -g[0] flips an unflagged NaN (high word 0xFFF4DEAD) onto the f32
    # sentinel.  The mul's guard must still test it and upcast the 1.0f
    # it then holds, as the plain build does.
    program = compile_src("""
    var g: real[2] = [0.0, 2.0];
    fn main() { out(-g[0] * g[1]); }
    """)
    program.data_image[program.globals["g"].addr] = 0xFFF4DEAD3F800000
    config = Config.all_double(build_tree(program))
    lean = instrument(program, config, mode="all")
    plain = instrument(program, config, mode="all", plain=True)
    expected = [("halt", [("d", double_to_bits(2.0))])] * 3
    assert _outcomes(plain.program) == expected
    assert _outcomes(lean.program) == expected


# -- generated blocks --------------------------------------------------------

_DATA_WORDS = 8
_SENTINEL_HIGHS = (
    0x7FF4DEAD, 0xFFF4DEAD, 0x7FF4BEEF, 0xFFF4BEEF, 0x7FF4FEED, 0xFFF4FEED,
)
#: a third each: numbers, quiet NaNs, and sentinel look-alikes, the
#: values a wrong transfer rule would mistake for a decided width
_data = st.one_of(
    st.floats(width=64).map(double_to_bits)
    | st.floats(width=32).map(double_to_bits),
    st.integers(0, 2**51 - 1).map(lambda p: 0x7FF8000000000000 | p)
    | st.integers(0, 2**51 - 1).map(lambda p: 0xFFF8000000000000 | p),
    st.tuples(st.sampled_from(_SENTINEL_HIGHS), st.integers(0, 2**32 - 1))
    .map(lambda hl: hl[0] << 32 | hl[1]),
)
_mem = st.integers(0, _DATA_WORDS - 1).map(lambda a: Mem(disp=a))
_BINARY = (Op.ADDSD, Op.SUBSD, Op.MULSD, Op.DIVSD, Op.MINSD, Op.MAXSD)
_UNARY = (Op.SQRTSD, Op.NEGSD, Op.ABSSD, Op.SINSD, Op.EXPSD, Op.LOGSD)


def _steps(xmm):
    return st.one_of(
        st.tuples(st.just(Op.MOVSD), xmm, _mem),
        st.tuples(st.sampled_from(_BINARY), xmm, st.one_of(xmm, _mem)),
        st.tuples(st.sampled_from(_UNARY), xmm, xmm),
        st.tuples(st.sampled_from((Op.MOVSD, Op.MOVAPD)), xmm, xmm),
        st.tuples(st.just(Op.MOVSD), _mem, xmm),
        st.tuples(st.just(Op.UCOMISD), xmm, st.one_of(xmm, _mem)),
        st.tuples(st.just(Op.CVTSI2SD), xmm, st.just(Reg(1))),
        st.tuples(st.just(Op.CVTTSD2SI), st.just(Reg(2)), xmm),
        st.just((Op.CALL,)),
        st.just((Op.OUTI, Reg(2))),
    )


_POLICIES = (Policy.DOUBLE, Policy.SINGLE, Policy.BF16, Policy.HALF, Policy.IGNORE)


@st.composite
def blocks(draw):
    data = draw(st.lists(_data, min_size=_DATA_WORDS, max_size=_DATA_WORDS))
    # fewer registers make longer chains of facts through each one
    xmm = st.integers(0, draw(st.sampled_from((1, 2, 7)))).map(Xmm)
    steps = draw(st.lists(_steps(xmm), min_size=1, max_size=24))
    b = AsmBuilder()
    b.global_("g", _DATA_WORDS, data)
    b.func("_start")
    b.emit(Op.MOV, Reg(1), Imm(draw(st.integers(-(2**63), 2**63 - 1))))
    b.emit(Op.MOV, Reg(2), Imm(0))
    for k in range(8):
        b.emit(Op.MOVSD, Xmm(k), Mem(disp=k % _DATA_WORDS))
    for step in steps:
        if step[0] is Op.CALL:
            b.emit(Op.CALL, LabelRef("callee"))
        else:
            b.emit(*step)
    for k in range(8):
        b.emit(Op.OUTSD, Xmm(k))
    b.emit(Op.HALT)
    b.endfunc()
    # a callee that changes registers the caller tracks
    b.func("callee")
    b.emit(Op.ADDSD, Xmm(0), Xmm(1))
    b.emit(Op.MOVSD, Xmm(1), Mem(disp=0))
    b.emit(Op.RET)
    b.endfunc()
    program = b.link()
    tree = build_tree(program)
    config = Config.all_double(tree)
    for node in tree.instructions():
        config.set(node.node_id, draw(st.sampled_from(_POLICIES)))
    mode = draw(st.sampled_from(("auto", "all")))
    return program, config, mode


_SETTINGS = (
    settings(
        max_examples=60,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    if settings.get_current_profile_name() == "default"
    else settings()
)


@_SETTINGS
@given(case=blocks())
def test_generated_blocks_lean_equals_plain(case):
    program, config, mode = case
    lean = instrument(program, config, mode=mode)
    plain = instrument(program, config, mode=mode, plain=True)
    expected = _outcomes(plain.program)
    assert len(set(map(repr, expected))) == 1, "plain: fused vs reference"
    assert _outcomes(lean.program) == expected


# -- the one verdict difference: stack depth ---------------------------------

_RECURSION = """
fn f(n: i64, x: real) -> real {
    if n == 0 {
        return x * 2.0;
    }
    return f(n - 1, x) + 1.0;
}
fn main() { out(f(40, 1.5)); }
"""


def test_plain_build_alone_overflows_a_stack_the_recursion_fills():
    # At the deepest call the original fills its stack exactly.  The lean
    # build pushes nothing, so it fits too; the plain build's snippet
    # pushes r12 there and overflows.  A search over a stack this tight
    # would call the plain build a trap and the lean build a pass: the
    # one verdict the two forms may disagree on.
    program = compile_src(_RECURSION)
    config = Config.all_single(build_tree(program))
    lean = instrument(program, config)
    plain = instrument(program, config, plain=True)

    def fits(prog, words):
        return _outcomes(prog, stack_words=words)[0][0] == "halt"

    words = next(w for w in range(1, 400) if fits(untiled(program), w))
    assert [o[0] for o in _outcomes(lean.program, stack_words=words)] == ["halt"] * 3
    assert _outcomes(plain.program, stack_words=words) == [
        ("VmTrap", "stack overflow")
    ] * 3
    assert _outcomes(plain.program, stack_words=words + 1) == _outcomes(
        lean.program, stack_words=words
    )
