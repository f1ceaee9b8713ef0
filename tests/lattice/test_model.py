"""The precision lattice model: widths, ordering rules, identities."""

from __future__ import annotations

import pytest

from repro.config.model import Policy
from repro.fpbits.replace import REPLACED_FLAG
from repro.lattice import (
    BF16,
    BINARY_LATTICE,
    F16,
    F32,
    F64,
    FULL_LATTICE,
    Lattice,
    LatticeError,
    fits_width,
    parse_lattice,
)


class TestWidth:
    def test_canonical_formats(self):
        # mantissa bits exclude the hidden bit; a width's bits are its mask's
        assert (F64.exp_bits, F64.digits - 1, F64.mask.bit_length()) == (11, 52, 64)
        assert (F32.exp_bits, F32.digits - 1, F32.mask.bit_length()) == (8, 23, 32)
        assert (BF16.exp_bits, BF16.digits - 1, BF16.mask.bit_length()) == (8, 7, 16)
        assert (F16.exp_bits, F16.digits - 1, F16.mask.bit_length()) == (5, 10, 16)

    def test_sentinels_match_replace_module(self):
        assert F64.sentinel is None
        assert F32.sentinel == REPLACED_FLAG
        assert BF16.sentinel == 0x7FF4BEEF
        assert F16.sentinel == 0x7FF4FEED

    def test_flags_are_policy_values(self):
        assert Policy(F64.flag) is Policy.DOUBLE
        assert Policy(F32.flag) is Policy.SINGLE
        assert Policy(BF16.flag) is Policy.BF16
        assert Policy(F16.flag) is Policy.HALF

    def test_range_bounds(self):
        # IEEE binary16: max finite 65504, min normal 2^-14.
        assert F16.max_finite == 65504.0
        assert F16.min_normal == 2.0**-14
        # bfloat16 shares binary32's exponent range.
        assert BF16.min_normal == F32.min_normal == 2.0**-126
        assert BF16.max_finite > 3e38
        # binary32 max finite.
        assert F32.max_finite == (2.0 - 2.0**-23) * 2.0**127

    def test_descriptor(self):
        assert F16.descriptor() == "f16(5,10)"


class TestParse:
    def test_spec_roundtrip(self):
        for spec in ("f64,f32", "f64,f32,bf16", "f64,f32,f16",
                     "f64,f32,bf16,f16"):
            assert parse_lattice(spec).spec() == spec

    def test_whitespace_tolerated(self):
        assert parse_lattice(" f64 , f32 ").spec() == "f64,f32"

    def test_identity_on_lattice_instances(self):
        assert parse_lattice(FULL_LATTICE) is FULL_LATTICE

    def test_unknown_width_rejected(self):
        with pytest.raises(LatticeError, match="unknown width"):
            parse_lattice("f64,f32,fp8")

    def test_lattice_error_is_value_error(self):
        # SearchOptions validation catches ValueError; the subclass
        # relationship is load-bearing.
        assert issubclass(LatticeError, ValueError)

    @pytest.mark.parametrize("spec", [
        "f32,f64",            # must start at f64
        "f64",                # needs a narrow width
        "f64,bf16",           # first narrow width must be f32
        "f64,f32,f32",        # duplicates
        "f64,f32,f16,bf16",   # must descend in rank
    ])
    def test_ordering_rules(self, spec):
        with pytest.raises(LatticeError):
            parse_lattice(spec)


class TestLattice:
    def test_binary_is_binary(self):
        assert BINARY_LATTICE.is_binary
        assert not FULL_LATTICE.is_binary

    def test_descriptor_is_canonical(self):
        assert (FULL_LATTICE.descriptor()
                == "f64(11,52)>f32(8,23)>bf16(8,7)>f16(5,10)")
        assert BINARY_LATTICE.descriptor() == "f64(11,52)>f32(8,23)"

    def test_narrow_widths(self):
        assert BINARY_LATTICE.narrow_widths == (F32,)
        assert FULL_LATTICE.narrow_widths == (F32, BF16, F16)

    def test_direct_construction_validates(self):
        with pytest.raises(LatticeError):
            Lattice((F32, F64))


class TestFitsWidth:
    def test_overflow_fails(self):
        assert not fits_width(F16, 1.0, 1e5)
        assert fits_width(F16, 1.0, 65504.0)

    def test_underflow_to_subnormal_fails(self):
        assert not fits_width(F16, 1e-7, 1.0)
        assert fits_width(F16, 2.0**-14, 1.0)

    def test_zero_min_is_ignored(self):
        # min_abs == 0 means "no nonzero magnitudes observed below".
        assert fits_width(F16, 0.0, 1.0)

    def test_widths_nest(self):
        # Anything that fits f16's range fits bf16's and f32's.
        for bounds in [(1e-3, 1e3), (2.0**-14, 65504.0)]:
            assert fits_width(F16, *bounds)
            assert fits_width(BF16, *bounds)
            assert fits_width(F32, *bounds)
        # bf16 has f32's range but not f16's.
        assert fits_width(BF16, 1e-30, 1e30)
        assert not fits_width(F16, 1e-30, 1e30)
