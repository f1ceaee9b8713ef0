"""bfloat16 / binary16 encode/decode and arithmetic on 16-bit patterns.

These are the two extra rungs of the precision lattice below binary32
(see :mod:`repro.lattice`).  Their helpers are the 13 operations of
:mod:`repro.fpbits.ieee`, bound to the :data:`BF16` and :data:`F16`
records: values are computed in the host's binary64 and rounded once to
the target width.  That is *exactly* native narrow arithmetic for
``+ - * / sqrt``, because the intermediate precision exceeds ``2p + 2``
(53 >= 2*11 + 2 for binary16, 53 >= 2*8 + 2 for bfloat16 — Figueroa,
"When is double rounding innocuous?").  Transcendentals are "double
evaluation rounded to the target width", the contract every width
carries.

* **bfloat16** (1 sign, 8 exponent, 7 mantissa) shares binary32's
  exponent field, so decode is an exact left shift of the pattern into a
  binary32 one.  Encode rounds to binary32 first and finishes with the
  carry trick on the binary32 pattern; where the binary32 rounding lands
  exactly on a bfloat16 midpoint it is redone to odd, which makes the two
  steps one round-to-nearest-even from binary64.
* **binary16** (1 sign, 5 exponent, 10 mantissa) is IEEE half precision;
  CPython's ``struct`` ``<e`` format packs and unpacks it with
  round-to-nearest-even, including subnormals.  Overflow maps to a
  signed infinity, matching the ``cvtsd2ss`` convention of
  :func:`repro.fpbits.ieee.single_to_bits`.
"""

from __future__ import annotations

import struct

from repro.fpbits.ieee import FpFormat, bits_to_single, single_to_bits

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

    One round-to-nearest-even from binary64.  The carry trick rounds the
    binary32 pattern, which is exact unless the binary32 rounding itself
    moved the value onto a bfloat16 midpoint (low half ``0x8000``): a
    tie there would be broken by a rounding error, not by the value.  So
    that case is rounded to odd instead (truncated toward zero, sticky
    bit set), which keeps the value's side of the midpoint.  Overflow
    gives a signed infinity.  NaN inputs are forced quiet (mantissa MSB
    set) so a payload that truncates to zero cannot turn into an
    infinity.
    """
    bits = single_to_bits(value)
    if (bits & 0x7F800000) == 0x7F800000 and (bits & 0x007FFFFF) != 0:
        return ((bits >> 16) | 0x0040) & BITS16_MASK
    if bits & 0xFFFF == 0x8000:
        near = bits_to_single(bits)
        if near != value:
            if abs(near) > abs(value):
                bits -= 1
            bits |= 1
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
# The 13 operations at each 16-bit width.
# ---------------------------------------------------------------------------

BF16 = FpFormat(
    "bf16", flag="b", suffix="bf", sentinel=0x7FF4BEEF, exp_bits=8, digits=8,
    prefix="bf16", decode=bits_to_bf16, encode=bf16_to_bits, nan=_NAN_BF,
    sign=0x8000, mask=BITS16_MASK, module=__name__,
)
F16 = FpFormat(
    "f16", flag="h", suffix="hf", sentinel=0x7FF4FEED, exp_bits=5, digits=11,
    prefix="f16", decode=bits_to_f16, encode=f16_to_bits, nan=_NAN_HF,
    sign=0x8000, mask=BITS16_MASK, module=__name__,
)

# The helpers in BINARY_OPS + UNARY_OPS order (see repro.fpbits.ieee).
(bf16_add, bf16_sub, bf16_mul, bf16_div, bf16_min, bf16_max,
 bf16_sqrt, bf16_neg, bf16_abs,
 bf16_sin, bf16_cos, bf16_exp, bf16_log) = BF16.ops.values()
(f16_add, f16_sub, f16_mul, f16_div, f16_min, f16_max,
 f16_sqrt, f16_neg, f16_abs,
 f16_sin, f16_cos, f16_exp, f16_log) = F16.ops.values()
bf16_from_int = BF16.from_int
f16_from_int = F16.from_int
