"""bfloat16 / binary16 encode/decode and arithmetic on 16-bit patterns.

These are the two extra rungs of the precision lattice below binary32
(see :mod:`repro.lattice`).  Both widths follow the same contract as the
binary32 helpers in :mod:`repro.fpbits.ieee`: values are computed in the
host's binary64 and then rounded to the target width, which is *exactly*
equivalent to native narrow arithmetic for ``+ - * / sqrt`` because the
intermediate precision exceeds ``2p + 2`` (53 >= 2*11 + 2 for binary16,
53 >= 2*8 + 2 for bfloat16 — Figueroa, "When is double rounding
innocuous?").  Transcendentals are documented as "double evaluation
rounded to the target width", the same contract the binary32 family
already carries.

* **bfloat16** (1 sign, 8 exponent, 7 mantissa) shares binary32's
  exponent field, so encode is a round-to-nearest-even truncation of the
  binary32 pattern and decode is an exact left shift.
* **binary16** (1 sign, 5 exponent, 10 mantissa) is IEEE half precision;
  CPython's ``struct`` ``<e`` format packs and unpacks it with
  round-to-nearest-even, including subnormals.  Overflow maps to a
  signed infinity, matching the ``cvtsd2ss`` convention of
  :func:`repro.fpbits.ieee.single_to_bits`.
"""

from __future__ import annotations

import math
import struct

from repro.fpbits.ieee import (
    _ieee_div_by_zero,
    bits_to_single,
    single_to_bits,
)

BITS16_MASK = 0xFFFF

_PACK_E = struct.Struct("<e")
_PACK_H = struct.Struct("<H")

_NAN_BF = 0x7FC0

_POS_INF_HF = 0x7C00
_NEG_INF_HF = 0xFC00
_NAN_HF = 0x7E00


# ---------------------------------------------------------------------------
# bfloat16 encode/decode.
# ---------------------------------------------------------------------------


def bf16_to_bits(value: float) -> int:
    """Round *value* (a binary64) to bfloat16; return its 16-bit pattern.

    Round-to-nearest-even via the carry trick on the binary32 pattern;
    the intermediate binary32 rounding is innocuous (see module
    docstring).  NaN inputs are forced quiet (mantissa MSB set) so a
    payload that truncates to zero cannot turn into an infinity.
    """
    bits = single_to_bits(value)
    if (bits & 0x7F800000) == 0x7F800000 and (bits & 0x007FFFFF) != 0:
        return ((bits >> 16) | 0x0040) & BITS16_MASK
    return ((bits + 0x7FFF + ((bits >> 16) & 1)) >> 16) & BITS16_MASK


def bits_to_bf16(bits: int) -> float:
    """Interpret a 16-bit bfloat16 pattern, widened exactly to a float."""
    return bits_to_single((bits & BITS16_MASK) << 16)


# ---------------------------------------------------------------------------
# binary16 (IEEE half) encode/decode.
# ---------------------------------------------------------------------------


def f16_to_bits(value: float) -> int:
    """Round *value* (a binary64) to binary16; return its 16-bit pattern.

    Overflow produces a signed infinity (``struct.pack`` raises
    ``OverflowError`` instead); NaNs pack to the canonical quiet NaN
    ``0x7E00``.
    """
    try:
        return _PACK_H.unpack(_PACK_E.pack(value))[0]
    except OverflowError:
        return _NEG_INF_HF if value < 0.0 else _POS_INF_HF


def bits_to_f16(bits: int) -> float:
    """Interpret a 16-bit binary16 pattern, widened exactly to a float."""
    return _PACK_E.unpack(_PACK_H.pack(bits & BITS16_MASK))[0]


def is_nan_bits_bf16(bits: int) -> bool:
    """True if the 16-bit bfloat16 pattern encodes a NaN (any payload)."""
    return (bits & 0x7F80) == 0x7F80 and (bits & 0x007F) != 0


def is_nan_bits_f16(bits: int) -> bool:
    """True if the 16-bit binary16 pattern encodes a NaN (any payload)."""
    return (bits & 0x7C00) == 0x7C00 and (bits & 0x03FF) != 0


# ---------------------------------------------------------------------------
# bfloat16 arithmetic on 16-bit patterns.
# ---------------------------------------------------------------------------


def bf16_add(a: int, b: int) -> int:
    return bf16_to_bits(bits_to_bf16(a) + bits_to_bf16(b))


def bf16_sub(a: int, b: int) -> int:
    return bf16_to_bits(bits_to_bf16(a) - bits_to_bf16(b))


def bf16_mul(a: int, b: int) -> int:
    return bf16_to_bits(bits_to_bf16(a) * bits_to_bf16(b))


def bf16_div(a: int, b: int) -> int:
    x = bits_to_bf16(a)
    y = bits_to_bf16(b)
    try:
        return bf16_to_bits(x / y)
    except ZeroDivisionError:
        r = _ieee_div_by_zero(x, y)
        return _NAN_BF if r != r else bf16_to_bits(r)


def bf16_sqrt(a: int) -> int:
    x = bits_to_bf16(a)
    if x != x or x < 0.0:
        return _NAN_BF
    return bf16_to_bits(math.sqrt(x))


def bf16_neg(a: int) -> int:
    return (a ^ 0x8000) & BITS16_MASK


def bf16_abs(a: int) -> int:
    return a & 0x7FFF


def bf16_min(a: int, b: int) -> int:
    # SSE min semantics: second operand if either is NaN, (a < b) ? a : b.
    x = bits_to_bf16(a)
    y = bits_to_bf16(b)
    if x != x or y != y:
        return b
    return a if x < y else b


def bf16_max(a: int, b: int) -> int:
    x = bits_to_bf16(a)
    y = bits_to_bf16(b)
    if x != x or y != y:
        return b
    return a if x > y else b


def bf16_sin(a: int) -> int:
    x = bits_to_bf16(a)
    if x != x or math.isinf(x):
        return _NAN_BF
    return bf16_to_bits(math.sin(x))


def bf16_cos(a: int) -> int:
    x = bits_to_bf16(a)
    if x != x or math.isinf(x):
        return _NAN_BF
    return bf16_to_bits(math.cos(x))


def bf16_exp(a: int) -> int:
    x = bits_to_bf16(a)
    if x != x:
        return _NAN_BF
    try:
        return bf16_to_bits(math.exp(x))
    except OverflowError:
        return bf16_to_bits(math.inf)


def bf16_log(a: int) -> int:
    x = bits_to_bf16(a)
    if x != x or x < 0.0:
        return _NAN_BF
    if x == 0.0:
        return bf16_to_bits(-math.inf)
    return bf16_to_bits(math.log(x))


# ---------------------------------------------------------------------------
# binary16 arithmetic on 16-bit patterns.
# ---------------------------------------------------------------------------


def f16_add(a: int, b: int) -> int:
    return f16_to_bits(bits_to_f16(a) + bits_to_f16(b))


def f16_sub(a: int, b: int) -> int:
    return f16_to_bits(bits_to_f16(a) - bits_to_f16(b))


def f16_mul(a: int, b: int) -> int:
    return f16_to_bits(bits_to_f16(a) * bits_to_f16(b))


def f16_div(a: int, b: int) -> int:
    x = bits_to_f16(a)
    y = bits_to_f16(b)
    try:
        return f16_to_bits(x / y)
    except ZeroDivisionError:
        r = _ieee_div_by_zero(x, y)
        return _NAN_HF if r != r else f16_to_bits(r)


def f16_sqrt(a: int) -> int:
    x = bits_to_f16(a)
    if x != x or x < 0.0:
        return _NAN_HF
    return f16_to_bits(math.sqrt(x))


def f16_neg(a: int) -> int:
    return (a ^ 0x8000) & BITS16_MASK


def f16_abs(a: int) -> int:
    return a & 0x7FFF


def f16_min(a: int, b: int) -> int:
    x = bits_to_f16(a)
    y = bits_to_f16(b)
    if x != x or y != y:
        return b
    return a if x < y else b


def f16_max(a: int, b: int) -> int:
    x = bits_to_f16(a)
    y = bits_to_f16(b)
    if x != x or y != y:
        return b
    return a if x > y else b


def f16_sin(a: int) -> int:
    x = bits_to_f16(a)
    if x != x or math.isinf(x):
        return _NAN_HF
    return f16_to_bits(math.sin(x))


def f16_cos(a: int) -> int:
    x = bits_to_f16(a)
    if x != x or math.isinf(x):
        return _NAN_HF
    return f16_to_bits(math.cos(x))


def f16_exp(a: int) -> int:
    x = bits_to_f16(a)
    if x != x:
        return _NAN_HF
    try:
        return f16_to_bits(math.exp(x))
    except OverflowError:
        return f16_to_bits(math.inf)


def f16_log(a: int) -> int:
    x = bits_to_f16(a)
    if x != x or x < 0.0:
        return _NAN_HF
    if x == 0.0:
        return f16_to_bits(-math.inf)
    return f16_to_bits(math.log(x))
