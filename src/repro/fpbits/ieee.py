"""IEEE-754 encode/decode and correctly-rounded scalar arithmetic on bit patterns.

The virtual machine stores every value as a 64-bit integer pattern; these
helpers are the single point where patterns are interpreted as IEEE-754
numbers.  Each width is an :class:`FpFormat` record, the one place its
facts are written (policy letter, sentinel, exponent bits, precision,
codec, default NaN, sign bit, mask), and each of the 13 scalar
operations (add, sub, mul, div, min, max, sqrt, neg, abs, sin, cos,
exp, log) is defined once, in :func:`_operations`, over that record.
This module builds the binary64 (``double_*``) and binary32
(``single_*``) helpers from it; :mod:`repro.fpbits.narrow` builds
bfloat16 and binary16.

Every operation computes in the host's binary64 (CPython floats) and
rounds once to its width, with explicit handling where Python raises
instead of producing IEEE special values (division by zero, ``sqrt`` of
a negative number, ``log`` of a non-positive number, ``exp`` overflow)
and x86 SSE's answers where IEEE leaves a choice (min/max with a NaN
return the second operand).  For ``+ - * / sqrt`` of narrower operands
this is *exactly* native arithmetic at that width: rounding to precision
``2p + 2`` (53 >= 2*24 + 2 for binary32) followed by rounding to ``p``
is innocuous (Figueroa, "When is double rounding innocuous?").
Transcendentals are not correctly rounded on any real hardware either;
we document them as "double evaluation rounded to the target width",
the same contract as calling ``sinf`` via ``(float)sin(x)``.
"""

from __future__ import annotations

import math
import struct
from typing import Callable

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
# The 13 scalar operations, written once over a width's record.
# ---------------------------------------------------------------------------

#: the binary and the unary operations, in helper order.
BINARY_OPS = ("add", "sub", "mul", "div", "min", "max")
UNARY_OPS = ("sqrt", "neg", "abs", "sin", "cos", "exp", "log")


class FpFormat:
    """One binary floating-point width: every fact of it the system uses.

    ``name`` is the lattice width name (``"f64"``, ``"f32"``, ...),
    ``flag`` its policy letter in the exchange format (``d``/``s``/``b``/
    ``h``), ``suffix`` its scalar mnemonic suffix (``addsd`` -> ``addss``,
    ``addbf``, ``addhf``) and ``sentinel`` the high word marking a slot
    narrowed to it (None for f64, which is never narrowed).
    ``exp_bits`` and ``digits`` are the exponent width and the
    significand's precision in bits (the hidden bit included), from which
    the range bounds and the lattice descriptor derive; ``rank`` is the
    record's position in :data:`repro.fpbits.FORMATS`, widest first.

    ``decode`` widens a pattern exactly to a binary64 value and
    ``encode`` rounds a binary64 value to a pattern once, overflow giving
    a signed infinity.  ``nan`` is the default NaN an invalid operation
    returns, ``sign`` the sign bit and ``mask`` all bits of a pattern.
    ``ops`` maps each operation name to the width's helper, named
    ``{prefix}_{op}`` and attributed to *module*, the module that
    exports it: fused source calls each helper by its ``__name__``.
    ``from_int`` (named ``{prefix}_from_int``) converts an integer to a
    pattern.
    """

    __slots__ = (
        "name", "flag", "suffix", "sentinel", "exp_bits", "digits", "rank",
        "prefix", "decode", "encode", "nan", "sign", "mask", "ops", "from_int",
    )

    def __init__(
        self,
        name: str,
        *,
        flag: str,
        suffix: str,
        sentinel: int | None,
        exp_bits: int,
        digits: int,
        prefix: str,
        decode: Callable[[int], float],
        encode: Callable[[float], int],
        nan: int,
        sign: int,
        mask: int,
        module: str,
    ) -> None:
        self.name = name
        self.flag = flag
        self.suffix = suffix
        self.sentinel = sentinel
        self.exp_bits = exp_bits
        self.digits = digits
        self.prefix = prefix
        self.decode = decode
        self.encode = encode
        self.nan = nan
        self.sign = sign
        self.mask = mask
        self.ops = _operations(self)
        self.from_int = _from_int(self)
        for op, fn in (*self.ops.items(), ("from_int", self.from_int)):
            helper = f"{prefix}_{op}"
            # A code object of the helper's own: CPython specializes each
            # code object's call sites and float ops on what it sees, so
            # one shared by all four widths would keep re-specializing.
            fn.__code__ = fn.__code__.replace(co_name=helper)
            fn.__name__ = fn.__qualname__ = helper
            fn.__module__ = module

    @property
    def max_finite(self) -> float:
        """Largest finite value: (2 - 2^(1 - digits)) * 2^emax."""
        emax = (1 << (self.exp_bits - 1)) - 1
        return (2.0 - 2.0 ** (1 - self.digits)) * 2.0**emax

    @property
    def min_normal(self) -> float:
        """Smallest positive normal value: 2^(1 - emax)."""
        emax = (1 << (self.exp_bits - 1)) - 1
        return 2.0 ** (1 - emax)

    def descriptor(self) -> str:
        """The lattice descriptor: name, exponent and mantissa bits."""
        return f"{self.name}({self.exp_bits},{self.digits - 1})"

    def __repr__(self) -> str:
        return f"FpFormat({self.name})"


def _operations(fmt: FpFormat) -> dict:
    """The 13 operations of *fmt*: computed in binary64 on the decoded
    operands and rounded once by ``encode``, with x86 SSE's answers where
    Python raises or IEEE leaves a choice."""
    dec, enc, nan, sign, mask = fmt.decode, fmt.encode, fmt.nan, fmt.sign, fmt.mask
    magnitude = mask ^ sign

    def add(a: int, b: int) -> int:
        return enc(dec(a) + dec(b))

    def sub(a: int, b: int) -> int:
        return enc(dec(a) - dec(b))

    def mul(a: int, b: int) -> int:
        return enc(dec(a) * dec(b))

    def div(a: int, b: int) -> int:
        x = dec(a)
        y = dec(b)
        try:
            return enc(x / y)
        except ZeroDivisionError:
            # y is +/-0.0.  0/0 and nan/0 are invalid; otherwise signed infinity.
            if x != x or x == 0.0:
                return nan
            return enc(math.copysign(math.inf, x) * math.copysign(1.0, y))

    def sqrt(a: int) -> int:
        x = dec(a)
        if x != x or x < 0.0:
            return nan
        return enc(math.sqrt(x))

    def neg(a: int) -> int:
        # Pure sign-bit flip, like xorpd with a sign mask: works for NaN/inf too.
        return (a ^ sign) & mask

    def abs(a: int) -> int:
        return a & magnitude

    def min(a: int, b: int) -> int:
        # SSE minsd semantics: returns the second operand if either is NaN,
        # and min(a, b) computed as (a < b) ? a : b.
        x = dec(a)
        y = dec(b)
        if x != x or y != y:
            return b
        return a if x < y else b

    def max(a: int, b: int) -> int:
        x = dec(a)
        y = dec(b)
        if x != x or y != y:
            return b
        return a if x > y else b

    # Transcendentals: binary64 evaluation rounded to the target width.

    def sin(a: int) -> int:
        x = dec(a)
        if x != x or math.isinf(x):
            return nan
        return enc(math.sin(x))

    def cos(a: int) -> int:
        x = dec(a)
        if x != x or math.isinf(x):
            return nan
        return enc(math.cos(x))

    def exp(a: int) -> int:
        x = dec(a)
        if x != x:
            return nan
        try:
            return enc(math.exp(x))
        except OverflowError:
            return enc(math.inf)

    def log(a: int) -> int:
        x = dec(a)
        if x != x or x < 0.0:
            return nan
        if x == 0.0:
            return enc(-math.inf)
        return enc(math.log(x))

    return dict(zip(
        BINARY_OPS + UNARY_OPS,
        (add, sub, mul, div, min, max, sqrt, neg, abs, sin, cos, exp, log),
    ))


#: integers of at most this magnitude are binary64 values.
_EXACT_INT = 1 << 53


def _from_int(fmt: FpFormat) -> Callable[[int], int]:
    """*fmt*'s ``cvtsi2`` conversion: the integer rounded to the width
    once, to nearest even.  An integer binary64 holds exactly is encoded
    from its float; a larger one is rounded to ``digits`` bits first,
    since going through binary64 would round it twice."""
    enc, digits = fmt.encode, fmt.digits

    def from_int(v: int) -> int:
        if -_EXACT_INT <= v <= _EXACT_INT:
            return enc(float(v))
        mag = -v if v < 0 else v
        shift = mag.bit_length() - digits
        rest = mag & ((1 << shift) - 1)
        half = 1 << (shift - 1)
        mag >>= shift
        if rest > half or (rest == half and mag & 1):
            mag += 1
        mag <<= shift
        return enc(float(-mag if v < 0 else mag))

    return from_int


F64 = FpFormat(
    "f64", flag="d", suffix="sd", sentinel=None, exp_bits=11, digits=53,
    prefix="double", decode=bits_to_double, encode=double_to_bits, nan=_NAN64,
    sign=1 << 63, mask=BITS64_MASK, module=__name__,
)
F32 = FpFormat(
    "f32", flag="s", suffix="ss", sentinel=0x7FF4DEAD, exp_bits=8, digits=24,
    prefix="single", decode=bits_to_single, encode=single_to_bits, nan=_NAN32,
    sign=1 << 31, mask=BITS32_MASK, module=__name__,
)

# The helpers in BINARY_OPS + UNARY_OPS order.
(double_add, double_sub, double_mul, double_div, double_min, double_max,
 double_sqrt, double_neg, double_abs,
 double_sin, double_cos, double_exp, double_log) = F64.ops.values()
(single_add, single_sub, single_mul, single_div, single_min, single_max,
 single_sqrt, single_neg, single_abs,
 single_sin, single_cos, single_exp, single_log) = F32.ops.values()
double_from_int = F64.from_int
single_from_int = F32.from_int
