"""The in-place replacement scheme (paper Section 2.3, Figure 5).

A *replaced* double is a 64-bit slot whose high word is the sentinel
``0x7FF4DEAD`` and whose low word holds the binary32 pattern of the value.
The sentinel was chosen by the authors so that

* ``0x7FF4...`` encodes a NaN — un-instrumented code that consumes a
  replaced slot computes NaNs instead of silently propagating a wrong
  value, and
* ``...DEAD`` is easy to spot in a hex dump.

Note the sentinel sits in the *signalling* NaN range of binary64 (quiet
bit 51 clear, payload non-zero); the paper calls it non-signalling in the
practical sense that x86 SSE does not trap on it by default.

The precision lattice (:mod:`repro.lattice`) extends the scheme below
binary32 with one **distinct sentinel per width** — ``0x7FF4BEEF`` for
bfloat16 and ``0x7FF4FEED`` for binary16, both sharing the ``0x7FF4``
NaN prefix — so a slot always records *which* width it was narrowed to
and un-instrumented consumers of any narrowed slot still fail loudly as
NaNs.  16-bit patterns occupy the low 16 bits of the slot, zero-extended
through the low word.  :data:`WIDTH_CODECS` pairs each sentinel with the
codec of its width's :class:`repro.fpbits.ieee.FpFormat` record.

The f32-only helpers (``downcast_in_place``, ``upcast_in_place``,
``read_operand_as_*``) predate the lattice and read only the f32
sentinel: a slot narrowed to another width is an ordinary (NaN) binary64
to them, which the channel observer (:mod:`repro.analysis.channels`)
relies on.  The ``*_at``/``*_any`` variants decode every width's
sentinel.
"""

from __future__ import annotations

from repro.fpbits.ieee import (
    BITS64_MASK,
    bits_to_double,
    bits_to_single,
    double_to_bits,
    single_to_bits,
)
from repro.fpbits.ieee import F32
from repro.fpbits.narrow import BF16, F16

#: High-word sentinel marking a replaced (single-in-double-slot) value.
REPLACED_FLAG = 0x7FF4DEAD

#: High-word sentinel marking a bfloat16-narrowed slot.
REPLACED_FLAG_BF16 = 0x7FF4BEEF

#: High-word sentinel marking a binary16-narrowed slot.
REPLACED_FLAG_F16 = 0x7FF4FEED

#: The sentinel positioned in the high word of a 64-bit slot.
REPLACED_FLAG_SHIFTED = REPLACED_FLAG << 32

HIGH_WORD_MASK = 0xFFFFFFFF00000000
LOW_WORD_MASK = 0x00000000FFFFFFFF

#: Narrow width name -> (high-word sentinel, encode from float, decode to
#: float), the codec taken from the width's record.  The keys are the
#: :mod:`repro.lattice` width names below f64.
WIDTH_CODECS = {
    fmt.name: (sentinel, fmt.encode, fmt.decode)
    for fmt, sentinel in (
        (F32, REPLACED_FLAG), (BF16, REPLACED_FLAG_BF16), (F16, REPLACED_FLAG_F16)
    )
}

_SENTINEL_TO_WIDTH = {codec[0]: name for name, codec in WIDTH_CODECS.items()}


def is_replaced(bits: int) -> bool:
    """True if the 64-bit slot carries the replacement sentinel."""
    return (bits & HIGH_WORD_MASK) == REPLACED_FLAG_SHIFTED


def make_replaced(single_bits: int) -> int:
    """Build a replaced slot from a 32-bit binary32 pattern."""
    return REPLACED_FLAG_SHIFTED | (single_bits & LOW_WORD_MASK)


def replaced_single_bits(bits: int) -> int:
    """Extract the binary32 pattern from a replaced slot."""
    return bits & LOW_WORD_MASK


def downcast_in_place(bits: int) -> int:
    """Narrow an (unreplaced) binary64 slot to a flagged binary32 slot.

    This is the "downcast conversion" of the paper's Figure 5: the value is
    rounded to single precision, stored in the low word, and the high word
    is set to the sentinel.  Idempotent on already-replaced slots.
    """
    if is_replaced(bits):
        return bits
    return make_replaced(single_to_bits(bits_to_double(bits)))


def upcast_in_place(bits: int) -> int:
    """Widen a replaced slot back to a plain binary64 slot.

    Identity on slots that do not carry the sentinel.
    """
    if not is_replaced(bits):
        return bits & BITS64_MASK
    return double_to_bits(bits_to_single(bits & LOW_WORD_MASK))


def read_operand_as_double(bits: int) -> float:
    """Value of a slot for a double-precision consumer (after upcast check)."""
    if is_replaced(bits):
        return bits_to_single(bits & LOW_WORD_MASK)
    return bits_to_double(bits)


def read_operand_as_single(bits: int) -> int:
    """Binary32 pattern of a slot for a single-precision consumer."""
    if is_replaced(bits):
        return bits & LOW_WORD_MASK
    return single_to_bits(bits_to_double(bits))


# ---------------------------------------------------------------------------
# Width-generic variants (the lattice's per-width sentinels).
# ---------------------------------------------------------------------------


def replaced_width(bits: int) -> str | None:
    """Width name a slot was narrowed to, or None for a plain binary64."""
    return _SENTINEL_TO_WIDTH.get((bits >> 32) & 0xFFFFFFFF)


def is_replaced_at(bits: int, width: str) -> bool:
    """True if the slot carries *width*'s sentinel in its high word."""
    return ((bits >> 32) & 0xFFFFFFFF) == WIDTH_CODECS[width][0]


def make_replaced_at(width: str, narrow_bits: int) -> int:
    """Build a narrowed slot from *width*'s native bit pattern."""
    return (WIDTH_CODECS[width][0] << 32) | (narrow_bits & LOW_WORD_MASK)


def downcast_in_place_at(bits: int, width: str) -> int:
    """Narrow a slot to *width* (the generalized Figure-5 downcast).

    A slot already narrowed to *any* lattice width is first widened back
    through its own codec, so re-narrowing never stacks sentinels.
    Idempotent on slots already at *width*.
    """
    if is_replaced_at(bits, width):
        return bits
    sentinel, encode, _ = WIDTH_CODECS[width]
    return (sentinel << 32) | (encode(read_operand_as_double_any(bits)) & LOW_WORD_MASK)


def upcast_in_place_any(bits: int) -> int:
    """Widen any narrowed slot back to a plain binary64 slot."""
    width = replaced_width(bits)
    if width is None:
        return bits & BITS64_MASK
    return double_to_bits(WIDTH_CODECS[width][2](bits & LOW_WORD_MASK))


def read_operand_as_double_any(bits: int) -> float:
    """Value of a slot for a double consumer, decoding any width's sentinel."""
    width = replaced_width(bits)
    if width is None:
        return bits_to_double(bits)
    return WIDTH_CODECS[width][2](bits & LOW_WORD_MASK)
