"""Property tests for the bfloat16/binary16 codecs and width sentinels.

The contract the lattice rests on: every 16-bit pattern survives
decode → encode bit-exactly (NaNs stay NaN), encoding rounds to nearest
even, and the three per-width sentinels never collide — a slot's high
word identifies its width unambiguously.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right

from hypothesis import given, strategies as st

from repro.fpbits import FORMATS, ieee, narrow, replace
from repro.fpbits.narrow import (
    bf16_to_bits,
    bits_to_bf16,
    bits_to_f16,
    f16_to_bits,
    is_nan_bits_bf16,
    is_nan_bits_f16,
)

bits16 = st.integers(min_value=0, max_value=0xFFFF)
finite_doubles = st.floats(allow_nan=False, allow_infinity=False)

#: every non-negative finite bfloat16 magnitude in pattern order, then
#: 2**128, where the pattern 0x7F80 (infinity) would sit with an
#: unbounded exponent: values at or past the midpoint below it overflow.
_BF16_MAGNITUDES = [bits_to_bf16(p) for p in range(0x7F80)] + [2.0**128]


def bf16_nearest_even(x: float) -> int:
    """The bfloat16 pattern nearest to binary64 *x*, ties to even.

    Exact: the bracketing magnitudes ``lo <= |x| < hi`` are adjacent
    bfloat16 values, so ``lo + hi`` and ``2 * |x|`` are binary64 values
    without rounding and compare exactly.
    """
    sign = 0x8000 if math.copysign(1.0, x) < 0 else 0
    mag = abs(x)
    p = bisect_right(_BF16_MAGNITUDES, mag) - 1
    if p < 0x7F80 and mag != _BF16_MAGNITUDES[p]:
        twice = 2.0 * mag
        mid = _BF16_MAGNITUDES[p] + _BF16_MAGNITUDES[p + 1]
        if twice > mid or (twice == mid and p & 1):
            p += 1
    return sign | min(p, 0x7F80)


@st.composite
def near_bf16_ties(draw):
    """A binary64 value a few binary64 ulps from a bfloat16 midpoint, or
    on it: every binade, the subnormals and the overflow edge (the
    midpoint above the largest finite value), either sign."""
    p = draw(st.integers(min_value=0, max_value=0x7F7F))
    hi = _BF16_MAGNITUDES[p + 1]
    mid = ieee.double_to_bits((_BF16_MAGNITUDES[p] + hi) / 2)
    # 2**29 binary64 ulps make one binary32 ulp: offsets below 2**28 land
    # where rounding through binary32 used to break the tie.
    offset = draw(st.one_of(
        st.integers(min_value=-64, max_value=64),
        st.integers(min_value=-(2**31), max_value=2**31),
    ))
    x = ieee.bits_to_double(mid + offset)
    return -x if draw(st.booleans()) else x


class TestBf16Codec:
    @given(bits16)
    def test_decode_encode_roundtrip(self, bits):
        value = bits_to_bf16(bits)
        back = bf16_to_bits(value)
        if is_nan_bits_bf16(bits):
            # NaN payloads may be quieted in transit but stay NaN.
            assert is_nan_bits_bf16(back)
        else:
            assert back == bits

    def test_roundtrip_exhaustive_non_nan(self):
        # 2^16 patterns is small enough to sweep outright.
        for bits in range(0x10000):
            if is_nan_bits_bf16(bits):
                continue
            assert bf16_to_bits(bits_to_bf16(bits)) == bits

    def test_decode_is_exact_shift(self):
        # bfloat16 shares binary32's exponent: decode must be lossless.
        assert bits_to_bf16(0x3FC0) == 1.5
        assert bits_to_bf16(0x0001) == ieee.bits_to_single(0x00010000)

    @given(finite_doubles)
    def test_encode_rounds_to_nearest(self, x):
        got = bits_to_bf16(bf16_to_bits(x))
        if math.isinf(got):
            return  # overflowed bf16's (huge) range
        # The result is one of the two bracketing bf16 values, and the
        # error is at most half a ulp of the wider bracket.
        ulp = max(abs(got), 2.0**-126) * 2.0**-7
        assert abs(got - x) <= ulp / 2 or got == x

    def test_encode_ties_to_even(self):
        # Halfway between 0x3F80 (1.0) and 0x3F81 (1.0078125): tie goes
        # to the even (low bit clear) pattern.
        tie = (bits_to_bf16(0x3F80) + bits_to_bf16(0x3F81)) / 2
        assert bf16_to_bits(tie) == 0x3F80
        tie2 = (bits_to_bf16(0x3F81) + bits_to_bf16(0x3F82)) / 2
        assert bf16_to_bits(tie2) == 0x3F82

    def test_encode_rounds_once_from_binary64(self):
        # Just above the midpoint of 1.0 and 1.0078125, by less than half
        # a binary32 ulp: rounding through binary32 first landed exactly
        # on the midpoint and tied to even (0x3F80).
        assert bf16_to_bits(1 + 2**-8 + 2**-40) == 0x3F81
        assert bf16_to_bits(-(1 + 2**-8 + 2**-40)) == 0xBF81
        assert bf16_to_bits(1 + 2**-8 - 2**-40) == 0x3F80

    @given(st.one_of(near_bf16_ties(), finite_doubles))
    def test_encode_matches_exact_rounding(self, x):
        assert bf16_to_bits(x) == bf16_nearest_even(x)

    def test_encode_overflow_edge(self):
        top = bits_to_bf16(0x7F7F)
        edge = (top + 2.0**128) / 2  # the midpoint above the largest finite
        assert bf16_to_bits(edge) == 0x7F80
        assert bf16_to_bits(ieee.bits_to_double(ieee.double_to_bits(edge) - 1)) == 0x7F7F
        assert bf16_to_bits(-edge) == 0xFF80
        assert bf16_to_bits(1e300) == 0x7F80
        assert bf16_to_bits(math.inf) == 0x7F80

    def test_nan_encodes_quiet_never_infinity(self):
        # A signaling-NaN payload whose top bits truncate away must not
        # collapse to the infinity pattern 0x7F80.
        snan = ieee.bits_to_double(0x7FF0000000000001)
        bits = bf16_to_bits(snan)
        assert is_nan_bits_bf16(bits)
        assert bits != 0x7F80

    def test_subnormals_roundtrip(self):
        for bits in (0x0001, 0x007F, 0x8001):  # smallest, largest, signed
            assert bf16_to_bits(bits_to_bf16(bits)) == bits


class TestF16Codec:
    @given(bits16)
    def test_decode_encode_roundtrip(self, bits):
        value = bits_to_f16(bits)
        back = f16_to_bits(value)
        if is_nan_bits_f16(bits):
            assert is_nan_bits_f16(back)
        else:
            assert back == bits

    def test_roundtrip_exhaustive_non_nan(self):
        for bits in range(0x10000):
            if is_nan_bits_f16(bits):
                continue
            assert f16_to_bits(bits_to_f16(bits)) == bits

    def test_known_values(self):
        assert bits_to_f16(0x3C00) == 1.0
        assert bits_to_f16(0x7BFF) == 65504.0  # max finite
        assert bits_to_f16(0x0400) == 2.0**-14  # min normal
        assert bits_to_f16(0x0001) == 2.0**-24  # min subnormal

    def test_overflow_is_signed_infinity(self):
        # struct.pack would raise OverflowError; the codec must follow
        # the cvtsd2ss convention instead.
        assert f16_to_bits(1e6) == 0x7C00
        assert f16_to_bits(-1e6) == 0xFC00
        assert f16_to_bits(65504.0) == 0x7BFF

    @given(st.floats(min_value=-65504.0, max_value=65504.0,
                     allow_nan=False))
    def test_encode_matches_struct_rne(self, x):
        # In-range values must agree with CPython's binary16 packing
        # (round-to-nearest-even, subnormals included).
        want = struct.unpack("<H", struct.pack("<e", x))[0]
        assert f16_to_bits(x) == want

    def test_subnormals_roundtrip(self):
        for bits in (0x0001, 0x03FF, 0x8001):
            assert f16_to_bits(bits_to_f16(bits)) == bits


class TestSentinels:
    def test_three_distinct_sentinels(self):
        sentinels = {
            replace.REPLACED_FLAG,
            narrow.BF16.sentinel,
            narrow.F16.sentinel,
        }
        assert len(sentinels) == 3
        assert replace.REPLACED_FLAG == 0x7FF4DEAD
        assert narrow.BF16.sentinel == 0x7FF4BEEF
        assert narrow.F16.sentinel == 0x7FF4FEED

    def test_all_sentinels_are_nan_high_words(self):
        # Every narrowed slot must read as NaN to an un-instrumented
        # double consumer, whatever its low word holds.
        for sentinel in (narrow.BF16.sentinel, narrow.F16.sentinel):
            slot = ieee.bits_to_double(sentinel << 32)
            assert slot != slot
            # 0x7FF4 prefix: same NaN family as the f32 flag.
            assert sentinel >> 16 == 0x7FF4

    @given(bits16)
    def test_narrow_slots_never_collide_with_f32_flag(self, low):
        for width in ("bf16", "f16"):
            slot = replace.make_replaced_at(width, low)
            assert not replace.is_replaced(slot)
            assert replace.replaced_width(slot) == width

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_f32_slots_report_their_width(self, sbits):
        slot = replace.make_replaced(sbits)
        assert replace.replaced_width(slot) == "f32"
        assert replace.is_replaced_at(slot, "f32")


class TestWidthGenericReplace:
    @given(finite_doubles, st.sampled_from(["f32", "bf16", "f16"]))
    def test_downcast_upcast_roundtrip(self, x, width):
        slot = replace.downcast_in_place_at(ieee.double_to_bits(x), width)
        assert replace.replaced_width(slot) == width
        got = ieee.bits_to_double(replace.upcast_in_place_any(slot))
        encode, decode = FORMATS[width].encode, FORMATS[width].decode
        want = decode(encode(x))
        assert got == want or (got != got and want != want)

    @given(finite_doubles, st.sampled_from(["f32", "bf16", "f16"]))
    def test_downcast_idempotent(self, x, width):
        slot = replace.downcast_in_place_at(ieee.double_to_bits(x), width)
        assert replace.downcast_in_place_at(slot, width) == slot

    @given(bits16)
    def test_renarrowing_never_stacks_sentinels(self, low):
        # bf16 slot re-narrowed to f16 decodes through its own codec
        # first; the result is a clean f16 slot.
        slot = replace.make_replaced_at("bf16", low)
        again = replace.downcast_in_place_at(slot, "f16")
        assert replace.replaced_width(again) == "f16"
        if not is_nan_bits_bf16(low):
            assert (again & 0xFFFF) == f16_to_bits(bits_to_bf16(low))

    def test_upcast_any_is_identity_on_plain_doubles(self):
        bits = ieee.double_to_bits(math.pi)
        assert replace.upcast_in_place_any(bits) == bits

    def test_codecs_cover_narrow_lattice(self):
        from repro.lattice import FULL_LATTICE

        for width in FULL_LATTICE.narrow_widths:
            assert width.name in FORMATS
            assert replace.make_replaced_at(width.name, 0) >> 32 == width.sentinel


class TestNarrowArithmetic:
    @given(bits16, bits16)
    def test_add_matches_decode_compute_encode(self, a, b):
        assert narrow.bf16_add(a, b) == bf16_to_bits(
            bits_to_bf16(a) + bits_to_bf16(b)
        )
        assert narrow.f16_add(a, b) == f16_to_bits(
            bits_to_f16(a) + bits_to_f16(b)
        )

    def test_div_by_zero_is_ieee(self):
        one_h, zero_h = f16_to_bits(1.0), f16_to_bits(0.0)
        assert bits_to_f16(narrow.f16_div(one_h, zero_h)) == math.inf
        assert is_nan_bits_f16(narrow.f16_div(zero_h, zero_h))
        one_b, zero_b = bf16_to_bits(1.0), bf16_to_bits(0.0)
        assert bits_to_bf16(narrow.bf16_div(one_b, zero_b)) == math.inf
        assert is_nan_bits_bf16(narrow.bf16_div(zero_b, zero_b))

    def test_sqrt_of_negative_is_nan(self):
        assert is_nan_bits_bf16(narrow.bf16_sqrt(bf16_to_bits(-1.0)))
        assert is_nan_bits_f16(narrow.f16_sqrt(f16_to_bits(-1.0)))

    @given(bits16)
    def test_neg_and_abs_are_sign_ops(self, a):
        assert narrow.bf16_neg(narrow.bf16_neg(a)) == a
        assert narrow.f16_abs(a) == a & 0x7FFF
