"""Every scalar FP helper of every width, pinned bit for bit.

Each of the 13 operations (add, sub, mul, div, sqrt, neg, abs, min, max,
sin, cos, exp, log) exists at four widths: ``double_*`` and ``single_*``
in :mod:`repro.fpbits.ieee`, ``bf16_*`` and ``f16_*`` in
:mod:`repro.fpbits.narrow`.  The digests below hash each helper's
outputs over a fixed grid.  They were generated from the per-width
implementations that the one definition per operation replaced, so any
change in a special case (division by zero, square root of a negative,
sin/cos of an infinity, exp overflow, log of zero, the SSE min/max NaN
rule) or in rounding shows up here.

The grid:

* the 16-bit widths' unary ops see all 65,536 patterns;
* f32 and f64 unary ops see zeros, subnormals, the normal range's
  edges, infinities, NaNs (quiet, signalling, both signs), a sweep of
  exponents and a seeded sample;
* binary ops see every pair of special values and 20,000 seeded pairs
  per width.

Pairs whose operands are both NaN are left out: which payload CPython's
float arithmetic propagates there depends on whether the calling code
object has specialized the operation yet.  The bfloat16 transcendentals
are checked against an exact rounding of the binary64 result instead of
a digest (every width rounds once from binary64).  The digests of sin,
cos, exp and log also pin the host's libm: they were generated with
glibc 2.36 on x86-64.
"""

from __future__ import annotations

import hashlib
import random
from array import array

import pytest

from repro.fpbits import ieee, narrow
from tests.fpbits.test_narrow import bf16_nearest_even

BINARY = ("add", "sub", "mul", "div", "min", "max")
UNARY = ("sqrt", "neg", "abs", "sin", "cos", "exp", "log")
TRANSCENDENTAL = ("sin", "cos", "exp", "log")

#: helper prefix -> (module, exponent bits, fraction bits)
WIDTHS = {
    "double": (ieee, 11, 52),
    "single": (ieee, 8, 23),
    "bf16": (narrow, 8, 7),
    "f16": (narrow, 5, 10),
}


def _is_nan(p: int, ebits: int, fbits: int) -> bool:
    exp = ((1 << ebits) - 1) << fbits
    return (p & exp) == exp and (p & ((1 << fbits) - 1)) != 0


def _specials(ebits: int, fbits: int) -> list[int]:
    """Zeros, subnormal and normal edges, one, infinities and NaNs, with
    both signs."""
    frac = (1 << fbits) - 1
    bias = (1 << (ebits - 1)) - 1
    inf = ((1 << ebits) - 1) << fbits
    positive = [
        0, 1, frac, 1 << fbits, inf - 1,           # 0, subnormals, normal edges
        bias << fbits, (bias << fbits) | 1,         # 1.0 and its successor
        (bias - 1) << fbits, (bias + 1) << fbits,   # 0.5, 2.0
        (bias << fbits) | (1 << (fbits - 1)),       # 1.5
        inf, inf | (1 << (fbits - 1)), inf | 1, inf | frac,  # inf, qNaN, sNaN
    ]
    sign = 1 << (ebits + fbits)
    return positive + [p | sign for p in positive]


def _sweep(ebits: int, fbits: int) -> list[int]:
    """Every exponent (a stride of them for f64), each with three
    fractions and both signs."""
    sign = 1 << (ebits + fbits)
    step = max(1, (1 << ebits) // 256)
    out = []
    for e in range(0, 1 << ebits, step):
        for f in (0, 1 << (fbits - 1), (1 << fbits) - 1):
            p = (e << fbits) | f
            out += [p, p | sign]
    return out


def _sample(rng: random.Random, ebits: int, fbits: int) -> int:
    """A seeded pattern: uniform over all bits, or of moderate magnitude."""
    total = 1 + ebits + fbits
    if rng.random() < 0.5:
        return rng.getrandbits(total)
    bias = (1 << (ebits - 1)) - 1
    e = bias + rng.randint(-min(bias - 1, 40), min(bias, 40))
    return (rng.getrandbits(1) << (ebits + fbits)) | (e << fbits) | rng.getrandbits(fbits)


def _unary_grid(prefix: str) -> list[int]:
    _module, ebits, fbits = WIDTHS[prefix]
    if ebits + fbits == 15:
        return list(range(1 << 16))
    rng = random.Random(f"unary-{prefix}")
    grid = _specials(ebits, fbits) + _sweep(ebits, fbits)
    return grid + [_sample(rng, ebits, fbits) for _ in range(20_000)]


def _binary_grid(prefix: str) -> list[tuple[int, int]]:
    _module, ebits, fbits = WIDTHS[prefix]
    specials = _specials(ebits, fbits)
    pairs = [(a, b) for a in specials for b in specials]
    rng = random.Random(f"binary-{prefix}")
    for _ in range(20_000):
        a = _sample(rng, ebits, fbits)
        if rng.random() < 0.25:  # a near neighbour: cancellation, ties
            b = a ^ rng.getrandbits(min(fbits, 8))
        else:
            b = _sample(rng, ebits, fbits)
        pairs.append((a, b))
    return [
        (a, b) for a, b in pairs
        if not (_is_nan(a, ebits, fbits) and _is_nan(b, ebits, fbits))
    ]


def _digest(outputs) -> str:
    return hashlib.sha256(array("Q", outputs).tobytes()).hexdigest()[:16]


def helper_digest(prefix: str, op: str) -> str:
    """The digest of helper ``{prefix}_{op}`` over its grid."""
    module = WIDTHS[prefix][0]
    fn = getattr(module, f"{prefix}_{op}")
    if op in BINARY:
        return _digest([fn(a, b) for a, b in _binary_grid(prefix)])
    return _digest([fn(a) for a in _unary_grid(prefix)])


PINNED = {
    "bf16_abs": "e472462d21cfbb7b",
    "bf16_add": "950695818c26d81b",
    "bf16_div": "2ae4512216ee6aa6",
    "bf16_max": "4039bc0a8eb86e31",
    "bf16_min": "c42aefcbd20f52e2",
    "bf16_mul": "40dc3b590796c578",
    "bf16_neg": "b77345835411d6b9",
    "bf16_sqrt": "31ef0ca642593695",
    "bf16_sub": "7844b19d1d91de5f",
    "double_abs": "c0946e1b75c447fb",
    "double_add": "d74cf24a38adc140",
    "double_cos": "309d9b89349152b5",
    "double_div": "64ad51de16be1ca6",
    "double_exp": "39c94a51ed0a1e68",
    "double_log": "e0247a92fcd00392",
    "double_max": "596a9c7503e18a6f",
    "double_min": "700f453fdb5a3989",
    "double_mul": "c72fdd7b797b151f",
    "double_neg": "4dace4570dcd146d",
    "double_sin": "5e1619937ba54414",
    "double_sqrt": "d2228708bbd61620",
    "double_sub": "780ac62b0d7ad4cf",
    "f16_abs": "e472462d21cfbb7b",
    "f16_add": "3298a9aa2b613757",
    "f16_cos": "e59d087104495684",
    "f16_div": "5edadd7a2582d8bc",
    "f16_exp": "8260053a0703028f",
    "f16_log": "0ad00ae6171e222e",
    "f16_max": "c62dfdd82fb38fa5",
    "f16_min": "8115a0527237b238",
    "f16_mul": "3d788514d1278d31",
    "f16_neg": "b77345835411d6b9",
    "f16_sin": "09a6e2c3e5746465",
    "f16_sqrt": "9d8c08b67ec63f9d",
    "f16_sub": "f73d19677670dc7e",
    "single_abs": "020a55e6fc74f10f",
    "single_add": "4b23d9878a30db73",
    "single_cos": "378c0e99a415fef1",
    "single_div": "f4071231d1a6f033",
    "single_exp": "5c7b68277f9428ae",
    "single_log": "de807b6099610aa3",
    "single_max": "82da3a351e05a882",
    "single_min": "060eefb5b0ab2628",
    "single_mul": "f5d987a69c3b9064",
    "single_neg": "251d5f3077470d95",
    "single_sin": "078170dc5fc55c50",
    "single_sqrt": "f6b5c75962670ae1",
    "single_sub": "ace5a59efc28baec",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_helper_outputs_are_pinned(name):
    prefix, op = name.split("_")
    assert helper_digest(prefix, op) == PINNED[name]


# -- bfloat16 transcendentals: one exact rounding of the binary64 result ----


@pytest.mark.parametrize("op", TRANSCENDENTAL)
def test_bf16_transcendentals_round_once_from_binary64(op):
    fn = getattr(narrow, f"bf16_{op}")
    wide = getattr(ieee, f"double_{op}")
    for p in range(1 << 16):
        result = ieee.bits_to_double(wide(ieee.double_to_bits(narrow.bits_to_bf16(p))))
        want = 0x7FC0 if result != result else bf16_nearest_even(result)
        assert fn(p) == want, hex(p)
