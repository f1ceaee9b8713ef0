"""Byte encoding of instructions (the "machine code" of the virtual ISA).

Layout of one instruction::

    +----------+---------+----------------------+
    | opcode   | n_opnds | operand encodings ...|
    | u16 LE   | u8      | variable             |
    +----------+---------+----------------------+

Operand encodings (first byte is the kind tag):

* ``Reg``:  ``01 idx``                                     (2 bytes)
* ``Xmm``:  ``02 idx``                                     (2 bytes)
* ``Imm``:  ``03`` + 8-byte little-endian two's complement (9 bytes)
* ``Mem``:  ``04 base index scale`` + 8-byte LE disp       (12 bytes)

``base``/``index`` use ``0xFF`` for "absent".  Instructions are variable
length, like x86; the disassembler (:mod:`repro.isa.decode`) is the
project's stand-in for XED.
"""

from __future__ import annotations

import struct

from repro.isa.instruction import Instruction, IsaError
from repro.isa.opcodes import Op
from repro.isa.operands import (
    KIND_IMM,
    KIND_MEM,
    KIND_REG,
    KIND_XMM,
    Imm,
    Mem,
    NO_REG,
    Reg,
    Xmm,
)

_U16 = struct.Struct("<H")
_I64 = struct.Struct("<q")

_BITS64 = 0xFFFFFFFFFFFFFFFF
_LO64 = -(1 << 63)
_HI64 = 1 << 63


def _imm_to_signed(value: int) -> int:
    """Normalize a 64-bit raw pattern or signed int to signed i64."""
    value &= _BITS64
    return value - (1 << 64) if value >= (1 << 63) else value


def encode_canonical(opcode: Op, operands: tuple) -> tuple[bytes, tuple]:
    """Encode an (opcode, operands) pair and return the operands exactly
    as :func:`decode_instruction` reads them back.

    Decoding canonicalizes immediates and displacements to signed i64 (a
    raw 64-bit pattern at or above ``2**63`` comes back negative), so the
    returned tuple applies the same rule: it is *operands* itself unless
    some value needed it.  A caller that encodes can thus skip decoding.
    """
    parts = [_U16.pack(int(opcode)), bytes((len(operands),))]
    canon = None
    for k, op in enumerate(operands):
        kind = op.kind
        if kind == KIND_REG or kind == KIND_XMM:
            parts.append(bytes((kind, op.index)))
            continue
        if kind == KIND_IMM:
            value = op.value
            if not _LO64 <= value < _HI64:
                value = _imm_to_signed(value)
                canon = canon or list(operands)
                canon[k] = Imm(value)
            parts.append(bytes((kind,)) + _I64.pack(value))
        elif kind == KIND_MEM:
            disp = op.disp
            if not _LO64 <= disp < _HI64:
                disp = _imm_to_signed(disp)
                canon = canon or list(operands)
                canon[k] = Mem(op.base, op.index, op.scale, disp)
            base = NO_REG if op.base is None else op.base
            index = NO_REG if op.index is None else op.index
            parts.append(bytes((kind, base, index, op.scale)) + _I64.pack(disp))
        else:
            raise IsaError(f"cannot encode operand {op!r}")
    return b"".join(parts), operands if canon is None else tuple(canon)


def encode_body(opcode: Op, operands: tuple) -> bytes:
    """Encode an (opcode, operands) pair without an Instruction wrapper.

    The encoding is independent of the instruction's address, so callers
    that know their operands are final (no unresolved labels) can encode
    before layout and reuse the bytes.
    """
    return encode_canonical(opcode, operands)[0]


def encode_instruction(instr: Instruction) -> bytes:
    return encode_body(instr.opcode, instr.operands)


def encoded_length(instr: Instruction) -> int:
    """Length in bytes of the encoding of *instr* (without encoding it twice)."""
    n = 3
    for o in instr.operands:
        kind = o.kind
        if kind in (KIND_REG, KIND_XMM):
            n += 2
        elif kind == KIND_IMM:
            n += 9
        else:
            n += 12
    return n


def decode_operand(buf: bytes, offset: int):
    """Decode one operand; returns (operand, new_offset)."""
    kind = buf[offset]
    if kind == KIND_REG:
        return Reg(buf[offset + 1]), offset + 2
    if kind == KIND_XMM:
        return Xmm(buf[offset + 1]), offset + 2
    if kind == KIND_IMM:
        (value,) = _I64.unpack_from(buf, offset + 1)
        return Imm(value), offset + 9
    if kind == KIND_MEM:
        base = buf[offset + 1]
        index = buf[offset + 2]
        scale = buf[offset + 3]
        (disp,) = _I64.unpack_from(buf, offset + 4)
        return (
            Mem(
                base=None if base == NO_REG else base,
                index=None if index == NO_REG else index,
                scale=scale,
                disp=disp,
            ),
            offset + 12,
        )
    raise IsaError(f"bad operand kind byte {kind:#x} at offset {offset}")


def decode_instruction(buf: bytes, offset: int) -> tuple[Instruction, int]:
    """Decode the instruction at *offset*; returns (instruction, size)."""
    if offset + 3 > len(buf):
        raise IsaError(f"truncated instruction at offset {offset}")
    (raw_op,) = _U16.unpack_from(buf, offset)
    try:
        opcode = Op(raw_op)
    except ValueError as exc:
        raise IsaError(f"unknown opcode {raw_op:#x} at offset {offset}") from exc
    count = buf[offset + 2]
    pos = offset + 3
    operands = []
    for _ in range(count):
        operand, pos = decode_operand(buf, pos)
        operands.append(operand)
    instr = Instruction(opcode, tuple(operands), addr=offset)
    return instr, pos - offset
