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
through the low word.  Each sentinel is its width's
:class:`repro.fpbits.FpFormat` record's ``sentinel``.

The f32-only helpers (``downcast_in_place``, ``upcast_in_place``,
``read_operand_as_*``) predate the lattice and read only the f32
sentinel: a slot narrowed to another width is an ordinary (NaN) binary64
to them, which the analysis observer (:mod:`repro.analysis.observer`)
relies on.  The ``*_at``/``*_any`` variants decode every width's
sentinel.
"""

from __future__ import annotations

from repro.fpbits import F32, FORMATS
from repro.fpbits.ieee import (
    BITS64_MASK,
    bits_to_double,
    bits_to_single,
    double_to_bits,
    single_to_bits,
)

#: High-word sentinel marking a replaced (single-in-double-slot) value:
#: the f32 record's, named for the f32-only helpers.
REPLACED_FLAG = F32.sentinel

#: The sentinel positioned in the high word of a 64-bit slot.
REPLACED_FLAG_SHIFTED = REPLACED_FLAG << 32

HIGH_WORD_MASK = 0xFFFFFFFF00000000
LOW_WORD_MASK = 0x00000000FFFFFFFF

#: high-word sentinel -> the record of the width it marks.
_BY_SENTINEL = {
    fmt.sentinel: fmt for fmt in FORMATS.values() if fmt.sentinel is not None
}


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
    fmt = _BY_SENTINEL.get((bits >> 32) & 0xFFFFFFFF)
    return None if fmt is None else fmt.name


def is_replaced_at(bits: int, width: str) -> bool:
    """True if the slot carries *width*'s sentinel in its high word."""
    return ((bits >> 32) & 0xFFFFFFFF) == FORMATS[width].sentinel


def make_replaced_at(width: str, narrow_bits: int) -> int:
    """Build a narrowed slot from *width*'s native bit pattern."""
    return (FORMATS[width].sentinel << 32) | (narrow_bits & LOW_WORD_MASK)


def downcast_in_place_at(bits: int, width: str) -> int:
    """Narrow a slot to *width* (the generalized Figure-5 downcast).

    A slot already narrowed to *any* lattice width is first widened back
    through its own codec, so re-narrowing never stacks sentinels.
    Idempotent on slots already at *width*.
    """
    if is_replaced_at(bits, width):
        return bits
    fmt = FORMATS[width]
    narrow = fmt.encode(read_operand_as_double_any(bits))
    return (fmt.sentinel << 32) | (narrow & LOW_WORD_MASK)


def upcast_in_place_any(bits: int) -> int:
    """Widen any narrowed slot back to a plain binary64 slot."""
    fmt = _BY_SENTINEL.get((bits >> 32) & 0xFFFFFFFF)
    if fmt is None:
        return bits & BITS64_MASK
    return double_to_bits(fmt.decode(bits & LOW_WORD_MASK))


def read_operand_as_double_any(bits: int) -> float:
    """Value of a slot for a double consumer, decoding any width's sentinel."""
    fmt = _BY_SENTINEL.get((bits >> 32) & 0xFFFFFFFF)
    if fmt is None:
        return bits_to_double(bits)
    return fmt.decode(bits & LOW_WORD_MASK)
