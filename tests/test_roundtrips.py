"""Cross-layer round-trip properties."""

from hypothesis import given, settings, strategies as st

from repro.asm import AsmBuilder, assemble_text, disassemble_program
from repro.config import Config, build_tree
from repro.fpbits.ieee import double_to_bits
from repro.instrument import instrument
from repro.isa import Imm, Op, Reg, Xmm
from repro.vm import run_program

# Straight-line random FP/integer programs: build -> link -> decode ->
# rewrite (layout round-trip) -> run must equal the original run.

_FP_OPS = [Op.ADDSD, Op.SUBSD, Op.MULSD, Op.SQRTSD, Op.ABSSD, Op.NEGSD]
_INT_OPS = [Op.ADD, Op.SUB, Op.IMUL, Op.AND, Op.OR, Op.XOR]


@st.composite
def straightline_program(draw):
    builder = AsmBuilder("random")
    builder.func("_start")
    # seed registers with interesting values
    for reg in range(1, 5):
        builder.emit(Op.MOV, Reg(reg), Imm(draw(st.integers(0, 2**32))))
    for xreg in range(0, 4):
        value = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
        builder.emit(Op.MOV, Reg(11), Imm(double_to_bits(value)))
        builder.emit(Op.MOVQXR, Xmm(xreg), Reg(11))
    for _ in range(draw(st.integers(3, 15))):
        if draw(st.booleans()):
            op = draw(st.sampled_from(_FP_OPS))
            builder.emit(op, Xmm(draw(st.integers(0, 3))), Xmm(draw(st.integers(0, 3))))
        else:
            op = draw(st.sampled_from(_INT_OPS))
            builder.emit(op, Reg(draw(st.integers(1, 4))), Reg(draw(st.integers(1, 4))))
    for xreg in range(0, 4):
        builder.emit(Op.OUTSD, Xmm(xreg))
    for reg in range(1, 5):
        builder.emit(Op.OUTI, Reg(reg))
    builder.emit(Op.HALT)
    builder.endfunc()
    return builder.link()


class TestLayoutRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(straightline_program())
    def test_none_mode_rewrite_preserves_behaviour(self, program):
        baseline = run_program(program)
        rewritten = instrument(
            program, Config.all_double(build_tree(program)), mode="none"
        )
        assert run_program(rewritten.program).outputs == baseline.outputs

    @settings(max_examples=40, deadline=None)
    @given(straightline_program())
    def test_all_mode_rewrite_bit_identical(self, program):
        baseline = run_program(program)
        rewritten = instrument(
            program, Config.all_double(build_tree(program)), mode="all"
        )
        assert run_program(rewritten.program).outputs == baseline.outputs

    @settings(max_examples=25, deadline=None)
    @given(straightline_program())
    def test_streamlined_all_mode_bit_identical(self, program):
        baseline = run_program(program)
        rewritten = instrument(
            program, Config.all_double(build_tree(program)), mode="all"
        )
        assert run_program(rewritten.program).outputs == baseline.outputs

    @settings(max_examples=25, deadline=None)
    @given(straightline_program())
    def test_single_replacement_never_traps_or_nans_unexpectedly(self, program):
        # All-single over straight-line FP arithmetic with guards: result
        # must be the single-precision evaluation — no NaN unless the
        # double run also produced one.
        baseline = run_program(program).values()
        mixed = run_program(
            instrument(program, Config.all_single(build_tree(program))).program
        ).values()
        for b, m in zip(baseline, mixed):
            if isinstance(b, float) and b == b and abs(b) < 1e30:
                assert m == m, "all-single produced NaN where double did not"


class TestTextualRoundtrip:
    def test_disassemble_is_stable(self):
        program = assemble_text(
            ".func _start\n    mov %r0, $5\n    outi %r0\n    halt\n.endfunc"
        )
        once = disassemble_program(program)
        twice = disassemble_program(program)
        assert once == twice
