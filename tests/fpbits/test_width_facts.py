"""Every width's facts, pinned.

Each fact of f64, f32, bf16 and f16 is written once, in its
:class:`repro.fpbits.FpFormat` record; the lattice descriptors, range
bounds, policy ranks, sentinels and opcode twins all derive from the
records.  The tables below were generated from the hand-written tables
those derivations replaced, so a change to a record, or to a rule that
reads one, shows here.
"""

from __future__ import annotations

import pytest

from repro.config.model import Policy
from repro.fpbits import FORMATS
from repro.isa.opcodes import NARROW_FAMILIES, OPCODE_INFO
from repro.lattice import FULL_LATTICE

#: name -> (policy letter, rank, exponent bits, mantissa bits,
#: descriptor, max_finite and min_normal as float.hex(), sentinel,
#: default NaN, sign bit, mask)
FACTS = {
    "f64": (
        "d", 0, 11, 52, "f64(11,52)",
        "0x1.fffffffffffffp+1023", "0x1.0000000000000p-1022",
        None, 0x7FF8000000000000, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF,
    ),
    "f32": (
        "s", 1, 8, 23, "f32(8,23)",
        "0x1.fffffe0000000p+127", "0x1.0000000000000p-126",
        0x7FF4DEAD, 0x7FC00000, 0x80000000, 0xFFFFFFFF,
    ),
    "bf16": (
        "b", 2, 8, 7, "bf16(8,7)",
        "0x1.fe00000000000p+127", "0x1.0000000000000p-126",
        0x7FF4BEEF, 0x7FC0, 0x8000, 0xFFFF,
    ),
    "f16": (
        "h", 3, 5, 10, "f16(5,10)",
        "0x1.ffc0000000000p+15", "0x1.0000000000000p-14",
        0x7FF4FEED, 0x7E00, 0x8000, 0xFFFF,
    ),
}

#: narrow width -> (each double mnemonic and its twin, in opcode order;
#: the downcast; the upcast)
TWINS = {
    "f32": (
        "addsd:addss subsd:subss mulsd:mulss divsd:divss sqrtsd:sqrtss "
        "minsd:minss maxsd:maxss abssd:absss negsd:negss "
        "ucomisd:ucomiss cvtsi2sd:cvtsi2ss cvttsd2si:cvttss2si "
        "sinsd:sinss cossd:cosss expsd:expss logsd:logss addpd:addps "
        "subpd:subps mulpd:mulps divpd:divps sqrtpd:sqrtps",
        "cvtsd2ss", "cvtss2sd",
    ),
    "bf16": (
        "addsd:addbf subsd:subbf mulsd:mulbf divsd:divbf sqrtsd:sqrtbf "
        "minsd:minbf maxsd:maxbf abssd:absbf negsd:negbf "
        "ucomisd:ucomibf cvtsi2sd:cvtsi2bf cvttsd2si:cvttbf2si "
        "sinsd:sinbf cossd:cosbf expsd:expbf logsd:logbf",
        "cvtsd2bf", "cvtbf2sd",
    ),
    "f16": (
        "addsd:addhf subsd:subhf mulsd:mulhf divsd:divhf sqrtsd:sqrthf "
        "minsd:minhf maxsd:maxhf abssd:abshf negsd:neghf "
        "ucomisd:ucomihf cvtsi2sd:cvtsi2hf cvttsd2si:cvtthf2si "
        "sinsd:sinhf cossd:coshf expsd:exphf logsd:loghf",
        "cvtsd2hf", "cvthf2sd",
    ),
}


def test_records_in_lattice_order():
    assert list(FORMATS) == list(FACTS) == FULL_LATTICE.spec().split(",")


@pytest.mark.parametrize("name", FACTS)
def test_record_facts(name):
    fmt = FORMATS[name]
    assert (
        fmt.flag, fmt.rank, fmt.exp_bits, fmt.digits - 1, fmt.descriptor(),
        fmt.max_finite.hex(), fmt.min_normal.hex(),
        fmt.sentinel, fmt.nan, fmt.sign, fmt.mask,
    ) == FACTS[name]


@pytest.mark.parametrize("name", FACTS)
def test_policy_reads_its_record(name):
    fmt = FORMATS[name]
    policy = Policy(fmt.flag)
    assert policy.width is fmt
    assert policy.rank() == fmt.rank
    assert policy.is_narrow == (fmt.rank > 0)


def test_ignore_has_no_width():
    assert Policy.IGNORE.width is None
    assert not Policy.IGNORE.is_narrow


@pytest.mark.parametrize("name", TWINS)
def test_twins_and_conversions(name):
    equiv, down, up = NARROW_FAMILIES[name]
    pairs = " ".join(
        f"{OPCODE_INFO[op].mnemonic}:{OPCODE_INFO[twin].mnemonic}"
        for op, twin in equiv.items()
    )
    mnemonics = (pairs, OPCODE_INFO[down].mnemonic, OPCODE_INFO[up].mnemonic)
    assert mnemonics == TWINS[name]


def test_every_narrow_width_has_a_family():
    assert list(NARROW_FAMILIES) == [n for n, f in FACTS.items() if f[1] > 0]
