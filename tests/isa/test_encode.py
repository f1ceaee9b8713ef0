"""Instruction encode/decode round-trip (the XED stand-in)."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import (
    Imm,
    Instruction,
    IsaError,
    Mem,
    Op,
    OPCODE_INFO,
    Reg,
    Xmm,
    decode_instruction,
    encode_instruction,
    encoded_length,
)
from repro.isa.encode import encode_canonical


def roundtrip(instr: Instruction) -> Instruction:
    raw = encode_instruction(instr)
    decoded, size = decode_instruction(raw, 0)
    assert size == len(raw) == encoded_length(instr)
    return decoded


class TestScalarRoundtrips:
    def test_no_operands(self):
        assert roundtrip(Instruction(Op.HALT)).opcode is Op.HALT

    def test_reg_reg(self):
        instr = Instruction(Op.ADD, (Reg(3), Reg(7)))
        back = roundtrip(instr)
        assert back.opcode is Op.ADD and back.operands == (Reg(3), Reg(7))

    def test_xmm_xmm(self):
        instr = Instruction(Op.ADDSD, (Xmm(0), Xmm(15)))
        assert roundtrip(instr).operands == (Xmm(0), Xmm(15))

    def test_imm_negative(self):
        instr = Instruction(Op.MOV, (Reg(1), Imm(-123456789)))
        assert roundtrip(instr).operands[1] == Imm(-123456789)

    def test_imm_high_bit_pattern(self):
        # Raw 64-bit patterns (e.g. the flag constant) survive as bits.
        instr = Instruction(Op.MOV, (Reg(1), Imm(0x7FF4DEAD00000000)))
        back = roundtrip(instr)
        assert back.operands[1].value & 0xFFFFFFFFFFFFFFFF == 0x7FF4DEAD00000000

    def test_mem_full_form(self):
        mem = Mem(base=2, index=5, scale=8, disp=-64)
        back = roundtrip(Instruction(Op.MOVSD, (Xmm(1), mem)))
        assert back.operands[1] == mem

    def test_mem_absolute(self):
        mem = Mem(disp=4096)
        back = roundtrip(Instruction(Op.MOV, (Reg(0), mem)))
        assert back.operands[1] == mem


_GPRS = st.integers(min_value=0, max_value=15)
_SIGNED = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: signed values and raw unsigned 64-bit patterns alike
_RAW64 = st.integers(min_value=-(2**63), max_value=2**64 - 1)


@st.composite
def instructions(draw, values=_SIGNED):
    """Random valid instructions across the operand-form space, drawing
    immediates and displacements from *values*."""
    op = draw(st.sampled_from(sorted(OPCODE_INFO, key=int)))
    info = OPCODE_INFO[op]
    sig = draw(st.sampled_from(list(info.sigs)))
    operands = []
    for allowed in sig:
        kind = draw(st.sampled_from(list(allowed)))
        if kind == "R":
            operands.append(Reg(draw(_GPRS)))
        elif kind == "X":
            operands.append(Xmm(draw(_GPRS)))
        elif kind == "I":
            if op in (Op.PEXTR, Op.PINSR):
                operands.append(Imm(draw(st.integers(0, 1))))
            else:
                operands.append(Imm(draw(values)))
        else:
            operands.append(
                Mem(
                    base=draw(st.one_of(st.none(), _GPRS)),
                    index=draw(st.one_of(st.none(), _GPRS)),
                    scale=draw(st.sampled_from([1, 2, 4, 8])),
                    disp=draw(values),
                )
            )
    return Instruction(op, tuple(operands))


class TestPropertyRoundtrip:
    @given(instructions())
    def test_encode_decode_identity(self, instr):
        back = roundtrip(instr)
        assert back.opcode is instr.opcode
        assert back.operands == instr.operands

    @given(instructions())
    def test_length_matches(self, instr):
        assert len(encode_instruction(instr)) == encoded_length(instr)

    @given(instructions(_RAW64))
    def test_canonical_form_is_the_decoded_form(self, instr):
        # Block templates keep their instructions in this form instead
        # of decoding their bytes: it must be exactly what decode returns,
        # raw unsigned patterns included (they come back negative).
        raw, operands = encode_canonical(instr.opcode, instr.operands)
        assert raw == encode_instruction(instr)
        decoded, _size = decode_instruction(raw, 0)
        assert Instruction(instr.opcode, operands, 0) == decoded


class TestStreamDecoding:
    def test_sequential_decode(self):
        stream = [
            Instruction(Op.MOV, (Reg(0), Imm(1))),
            Instruction(Op.ADDSD, (Xmm(0), Xmm(1))),
            Instruction(Op.RET),
        ]
        blob = b"".join(encode_instruction(i) for i in stream)
        offset = 0
        for expected in stream:
            decoded, size = decode_instruction(blob, offset)
            assert decoded.opcode is expected.opcode
            assert decoded.addr == offset
            offset += size
        assert offset == len(blob)

    def test_truncated_raises(self):
        raw = encode_instruction(Instruction(Op.MOV, (Reg(0), Imm(1))))
        with pytest.raises(IsaError):
            decode_instruction(raw[:2], 0)

    def test_unknown_opcode_raises(self):
        with pytest.raises(IsaError):
            decode_instruction(b"\xff\xff\x00", 0)
