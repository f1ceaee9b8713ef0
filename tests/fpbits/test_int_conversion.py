"""int64 -> narrow width conversions round once.

``cvtsi2ss``, ``cvtsi2bf`` and ``cvtsi2hf`` convert a signed 64-bit
integer to the width with one rounding to nearest even, as x86
``cvtsi2ss`` does.  Integers up to 2^53 are binary64 values, so encoding
their float is exact; above that, going through binary64 would round
twice.  Each width's ``from_int`` is checked against an exact
:class:`~fractions.Fraction` reference at its tie points, and the VM's
fused and reference paths against the known counterexamples.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.asm import AsmBuilder
from repro.fpbits import FORMATS
from repro.fpbits.ieee import single_to_bits
from repro.fpbits.narrow import bf16_to_bits
from repro.isa import Imm, Op, Reg, Xmm
from repro.vm import VM

#: width -> its int64 conversion opcode
_CONVERSIONS = {"f32": Op.CVTSI2SS, "bf16": Op.CVTSI2BF, "f16": Op.CVTSI2HF}
#: width -> the pattern of its largest finite value
_LARGEST = {"f32": 0x7F7FFFFF, "bf16": 0x7F7F, "f16": 0x7BFF}

#: (width, integer, its one-rounding result as an integer)
_COUNTEREXAMPLES = [
    ("f32", 2**60 + 2**36 + 1, 2**60 + 2**37),
    ("bf16", 2**60 + 2**52 + 1, 2**60 + 2**53),
]


def _reference(v: int, digits: int) -> Fraction:
    """*v* rounded to *digits* significant bits, ties to even: the nearer
    of its two neighbours on the grid, the one with an even last bit on
    a tie."""
    x = Fraction(v)
    ulp = Fraction(2) ** (abs(v).bit_length() - digits)
    below = math.floor(x / ulp) * ulp
    above = below + ulp
    if x - below != above - x:
        return below if x - below < above - x else above
    return below if (below / ulp) % 2 == 0 else above


def _tie_points(digits: int):
    """Integers on and beside each width's rounding ties, 2^53 < |v| < 2^63."""
    for exponent in range(54, 63):
        ulp = 1 << (exponent + 1 - digits)
        top = 1 << exponent
        for step in (0, 1, 2, 3, (1 << digits) - 3, (1 << digits) - 2, (1 << digits) - 1):
            tie = top + step * ulp + ulp // 2
            for v in (tie - 1, tie, tie + 1):
                if (1 << 53) < v < (1 << 63):
                    yield v
                    yield -v


@pytest.mark.parametrize("width", sorted(_CONVERSIONS))
def test_one_rounding_at_every_tie(width):
    fmt = FORMATS[width]
    largest = Fraction(fmt.decode(_LARGEST[width]))
    checked = 0
    for v in _tie_points(fmt.digits):
        got = fmt.decode(fmt.from_int(v))
        want = _reference(v, fmt.digits)
        if abs(want) > largest:
            assert got == math.copysign(math.inf, v), (width, v)
        else:
            assert Fraction(got) == want, (width, v)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("width", sorted(_CONVERSIONS))
def test_binary64_integers_encode_their_float(width):
    fmt = FORMATS[width]
    for v in (0, 1, -1, 3, 2**24 + 1, 2**53 - 1, 2**53, -(2**53), 12345678901):
        assert fmt.from_int(v) == fmt.encode(float(v)), (width, v)


def test_the_double_rounding_counterexamples():
    # Through binary64 each rounds to 2^60; one rounding does not.
    assert single_to_bits(float(2**60 + 2**36 + 1)) == single_to_bits(2.0**60)
    assert bf16_to_bits(float(2**60 + 2**52 + 1)) == bf16_to_bits(2.0**60)
    for width, v, want in _COUNTEREXAMPLES:
        fmt = FORMATS[width]
        assert fmt.decode(fmt.from_int(v)) == want
        assert fmt.decode(fmt.from_int(-v)) == -want


def _convert_program(op, value):
    b = AsmBuilder()
    b.func("_start")
    b.emit(Op.MOV, Reg(1), Imm(value))
    b.emit(op, Xmm(0), Reg(1))
    b.emit(Op.OUTSD, Xmm(0))
    b.emit(Op.HALT)
    b.endfunc()
    return b.link()


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("case", _COUNTEREXAMPLES, ids=lambda c: c[0])
def test_vm_converts_with_one_rounding(case, fused):
    width, v, want = case
    fmt = FORMATS[width]
    for value in (v, -v):
        program = _convert_program(_CONVERSIONS[width], value)
        (kind, bits), = VM(program, fused=fused).run().outputs
        assert kind == "d"
        assert bits >> 32 == 0  # the high word is preserved
        assert fmt.decode(bits & fmt.mask) == math.copysign(want, value)
