"""Bit-level IEEE-754 manipulation and the in-place replacement scheme.

This package is the foundation of the paper's core trick (its Section 2.3
and Figure 5): a double-precision value that has been *replaced* by its
single-precision equivalent is stored **in the same 64-bit slot** — the
32-bit single occupies the low word and the high word holds the sentinel
``0x7FF4DEAD``.  The sentinel encodes a non-signalling NaN, so any
un-instrumented code that consumes a replaced value produces NaNs and
fails loudly instead of silently computing with garbage.

All values in the virtual machine (registers, memory cells, XMM lanes)
are plain Python integers holding 64-bit patterns; the helpers here are
the only code that interprets those patterns as floating point.

Each width (f64, f32, bf16, f16) is one :class:`FpFormat` record, the
only place its facts are written: policy letter, mnemonic suffix,
sentinel, exponent bits and precision, codec, default NaN, sign bit and
mask (:data:`FORMATS`).  The lattice, opcode, policy and snippet tables
derive from these records.  The 13 scalar operations are written once
over a record (:mod:`repro.fpbits.ieee`) and every width's helpers —
``double_*``, ``single_*``, ``bf16_*``, ``f16_*`` — are those definitions
bound to it, so an IEEE special case or a NaN rule is one edit for every
width.  The helpers and codecs are imported from :mod:`~repro.fpbits.ieee`
and :mod:`~repro.fpbits.narrow`, the slot scheme from
:mod:`~repro.fpbits.replace`.
"""

from repro.fpbits.ieee import BINARY_OPS, F32, F64, UNARY_OPS, FpFormat
from repro.fpbits.narrow import BF16, F16

#: lattice width name -> its record, widest first.  A record's ``rank``
#: (its narrowness: f64 0, f32 1, bf16 2, f16 3) is its position here.
FORMATS = {fmt.name: fmt for fmt in (F64, F32, BF16, F16)}
for _rank, _fmt in enumerate(FORMATS.values()):
    _fmt.rank = _rank
del _rank, _fmt

__all__ = [
    "BF16",
    "BINARY_OPS",
    "F16",
    "F32",
    "F64",
    "FORMATS",
    "FpFormat",
    "UNARY_OPS",
]
