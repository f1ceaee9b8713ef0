"""IEEE-754 encode/decode and correctly-rounded scalar arithmetic on bit patterns.

The virtual machine stores every value as a 64-bit integer pattern; these
helpers are the single point where patterns are interpreted as IEEE-754
numbers.  Double-precision arithmetic uses the host's native binary64
(CPython floats), with explicit handling for the cases where Python raises
instead of producing IEEE special values (division by zero, ``sqrt`` of a
negative number, ``log`` of a non-positive number).

Single-precision arithmetic is computed in binary64 and then rounded to
binary32.  For ``+ - * / sqrt`` this is *exactly* equivalent to native
binary32 arithmetic: rounding to precision ``2p + 2`` (53 >= 2*24 + 2)
followed by rounding to ``p`` is innocuous (Figueroa, "When is double
rounding innocuous?").  Transcendentals are not correctly rounded on any
real hardware either; we document them as "double evaluation rounded to
single", the same contract as calling ``sinf`` via ``(float)sin(x)``.
"""

from __future__ import annotations

import math
import struct

BITS64_MASK = 0xFFFFFFFFFFFFFFFF
BITS32_MASK = 0xFFFFFFFF

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")
_PACK_F = struct.Struct("<f")
_PACK_I = struct.Struct("<I")

_POS_INF32 = 0x7F800000
_NEG_INF32 = 0xFF800000
_NAN32 = 0x7FC00000
_NAN64 = 0x7FF8000000000000


def double_to_bits(value: float) -> int:
    """Return the 64-bit IEEE binary64 pattern of *value*."""
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


def bits_to_double(bits: int) -> float:
    """Interpret a 64-bit pattern as an IEEE binary64 value."""
    return _PACK_D.unpack(_PACK_Q.pack(bits & BITS64_MASK))[0]


def single_to_bits(value: float) -> int:
    """Round *value* (a binary64) to binary32 and return its 32-bit pattern.

    Overflow produces a signed infinity, matching ``cvtsd2ss`` semantics
    (``struct.pack`` would raise ``OverflowError`` instead).
    """
    try:
        return _PACK_I.unpack(_PACK_F.pack(value))[0]
    except OverflowError:
        return _NEG_INF32 if value < 0.0 else _POS_INF32


def bits_to_single(bits: int) -> float:
    """Interpret a 32-bit pattern as binary32, widened exactly to a float."""
    return _PACK_F.unpack(_PACK_I.pack(bits & BITS32_MASK))[0]


def is_nan_bits64(bits: int) -> bool:
    """True if the 64-bit pattern encodes a NaN (any payload)."""
    return (bits & 0x7FF0000000000000) == 0x7FF0000000000000 and (
        bits & 0x000FFFFFFFFFFFFF
    ) != 0


def is_nan_bits32(bits: int) -> bool:
    """True if the 32-bit pattern encodes a NaN (any payload)."""
    return (bits & 0x7F800000) == 0x7F800000 and (bits & 0x007FFFFF) != 0


# ---------------------------------------------------------------------------
# Double-precision arithmetic on 64-bit patterns.
# ---------------------------------------------------------------------------


def double_add(a: int, b: int) -> int:
    return double_to_bits(bits_to_double(a) + bits_to_double(b))


def double_sub(a: int, b: int) -> int:
    return double_to_bits(bits_to_double(a) - bits_to_double(b))


def double_mul(a: int, b: int) -> int:
    return double_to_bits(bits_to_double(a) * bits_to_double(b))


def double_div(a: int, b: int) -> int:
    x = bits_to_double(a)
    y = bits_to_double(b)
    try:
        return double_to_bits(x / y)
    except ZeroDivisionError:
        return double_to_bits(_ieee_div_by_zero(x, y))


def _ieee_div_by_zero(x: float, y: float) -> float:
    # y is +/-0.0 here.  0/0 and nan/0 are NaN; otherwise signed infinity.
    if x != x or x == 0.0:
        return math.nan
    sign = math.copysign(1.0, x) * math.copysign(1.0, y)
    return math.inf if sign > 0 else -math.inf


def double_sqrt(a: int) -> int:
    x = bits_to_double(a)
    if x != x:
        return _NAN64
    if x < 0.0:
        return _NAN64
    return double_to_bits(math.sqrt(x))


def double_neg(a: int) -> int:
    # Pure sign-bit flip, like xorpd with a sign mask: works for NaN/inf too.
    return (a ^ 0x8000000000000000) & BITS64_MASK


def double_abs(a: int) -> int:
    return a & 0x7FFFFFFFFFFFFFFF


def double_min(a: int, b: int) -> int:
    # SSE minsd semantics: returns the second operand if either is NaN,
    # and min(a, b) computed as (a < b) ? a : b.
    x = bits_to_double(a)
    y = bits_to_double(b)
    if x != x or y != y:
        return b
    return a if x < y else b


def double_max(a: int, b: int) -> int:
    x = bits_to_double(a)
    y = bits_to_double(b)
    if x != x or y != y:
        return b
    return a if x > y else b


# ---------------------------------------------------------------------------
# Single-precision arithmetic on 32-bit patterns.
# ---------------------------------------------------------------------------


def single_add(a: int, b: int) -> int:
    return single_to_bits(bits_to_single(a) + bits_to_single(b))


def single_sub(a: int, b: int) -> int:
    return single_to_bits(bits_to_single(a) - bits_to_single(b))


def single_mul(a: int, b: int) -> int:
    return single_to_bits(bits_to_single(a) * bits_to_single(b))


def single_div(a: int, b: int) -> int:
    x = bits_to_single(a)
    y = bits_to_single(b)
    try:
        return single_to_bits(x / y)
    except ZeroDivisionError:
        r = _ieee_div_by_zero(x, y)
        return _NAN32 if r != r else single_to_bits(r)


def single_sqrt(a: int) -> int:
    x = bits_to_single(a)
    if x != x or x < 0.0:
        return _NAN32
    return single_to_bits(math.sqrt(x))


def single_neg(a: int) -> int:
    return (a ^ 0x80000000) & BITS32_MASK


def single_abs(a: int) -> int:
    return a & 0x7FFFFFFF


def single_min(a: int, b: int) -> int:
    x = bits_to_single(a)
    y = bits_to_single(b)
    if x != x or y != y:
        return b
    return a if x < y else b


def single_max(a: int, b: int) -> int:
    x = bits_to_single(a)
    y = bits_to_single(b)
    if x != x or y != y:
        return b
    return a if x > y else b


# ---------------------------------------------------------------------------
# Transcendentals (documented as double evaluation rounded to target width).
# ---------------------------------------------------------------------------


def double_sin(a: int) -> int:
    x = bits_to_double(a)
    if x != x or math.isinf(x):
        return _NAN64
    return double_to_bits(math.sin(x))


def double_cos(a: int) -> int:
    x = bits_to_double(a)
    if x != x or math.isinf(x):
        return _NAN64
    return double_to_bits(math.cos(x))


def double_exp(a: int) -> int:
    x = bits_to_double(a)
    if x != x:
        return _NAN64
    try:
        return double_to_bits(math.exp(x))
    except OverflowError:
        return double_to_bits(math.inf)


def double_log(a: int) -> int:
    x = bits_to_double(a)
    if x != x or x < 0.0:
        return _NAN64
    if x == 0.0:
        return double_to_bits(-math.inf)
    return double_to_bits(math.log(x))


def single_sin(a: int) -> int:
    x = bits_to_single(a)
    if x != x or math.isinf(x):
        return _NAN32
    return single_to_bits(math.sin(x))


def single_cos(a: int) -> int:
    x = bits_to_single(a)
    if x != x or math.isinf(x):
        return _NAN32
    return single_to_bits(math.cos(x))


def single_exp(a: int) -> int:
    x = bits_to_single(a)
    if x != x:
        return _NAN32
    try:
        return single_to_bits(math.exp(x))
    except OverflowError:
        return single_to_bits(math.inf)


def single_log(a: int) -> int:
    x = bits_to_single(a)
    if x != x or x < 0.0:
        return _NAN32
    if x == 0.0:
        return single_to_bits(-math.inf)
    return single_to_bits(math.log(x))
