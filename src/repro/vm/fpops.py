"""Floating-point opcode -> :mod:`repro.fpbits` helper tables.

The one definition of which helper computes each FP opcode, shared by
the reference closures (:mod:`repro.vm.machine`), the fused-run emitter
(:mod:`repro.vm.fuse`) and the shadow analysis (:mod:`repro.analysis`).
The emitter writes each helper into generated source by its
``__name__``, which for every helper here equals its attribute name in
its :mod:`repro.fpbits` module (tests/vm/test_fuse_coverage.py checks
this).
"""

from __future__ import annotations

from repro.fpbits import ieee, narrow
from repro.isa.opcodes import Op

#: scalar double binary ops: dst.lo = fn(dst.lo, src64).
FPD_BIN = {
    Op.ADDSD: ieee.double_add,
    Op.SUBSD: ieee.double_sub,
    Op.MULSD: ieee.double_mul,
    Op.DIVSD: ieee.double_div,
    Op.MINSD: ieee.double_min,
    Op.MAXSD: ieee.double_max,
}
#: scalar double unary ops: dst.lo = fn(src64).
FPD_UN = {
    Op.SQRTSD: ieee.double_sqrt,
    Op.ABSSD: ieee.double_abs,
    Op.NEGSD: ieee.double_neg,
    Op.SINSD: ieee.double_sin,
    Op.COSSD: ieee.double_cos,
    Op.EXPSD: ieee.double_exp,
    Op.LOGSD: ieee.double_log,
}
#: scalar single binary ops on 32-bit patterns.
FPS_BIN = {
    Op.ADDSS: ieee.single_add,
    Op.SUBSS: ieee.single_sub,
    Op.MULSS: ieee.single_mul,
    Op.DIVSS: ieee.single_div,
    Op.MINSS: ieee.single_min,
    Op.MAXSS: ieee.single_max,
}
FPS_UN = {
    Op.SQRTSS: ieee.single_sqrt,
    Op.ABSSS: ieee.single_abs,
    Op.NEGSS: ieee.single_neg,
    Op.SINSS: ieee.single_sin,
    Op.COSSS: ieee.single_cos,
    Op.EXPSS: ieee.single_exp,
    Op.LOGSS: ieee.single_log,
}
#: scalar narrow (bfloat16 / binary16) binary ops on 16-bit patterns.
#: Same slot discipline as the SS family: the result is written into the
#: low 32 bits (16-bit pattern zero-extended) and the upper 32 bits are
#: preserved, which is what keeps the per-width replacement sentinels
#: alive in the high word.
FPN_BIN = {
    Op.ADDBF: narrow.bf16_add,
    Op.SUBBF: narrow.bf16_sub,
    Op.MULBF: narrow.bf16_mul,
    Op.DIVBF: narrow.bf16_div,
    Op.MINBF: narrow.bf16_min,
    Op.MAXBF: narrow.bf16_max,
    Op.ADDHF: narrow.f16_add,
    Op.SUBHF: narrow.f16_sub,
    Op.MULHF: narrow.f16_mul,
    Op.DIVHF: narrow.f16_div,
    Op.MINHF: narrow.f16_min,
    Op.MAXHF: narrow.f16_max,
}
FPN_UN = {
    Op.SQRTBF: narrow.bf16_sqrt,
    Op.ABSBF: narrow.bf16_abs,
    Op.NEGBF: narrow.bf16_neg,
    Op.SINBF: narrow.bf16_sin,
    Op.COSBF: narrow.bf16_cos,
    Op.EXPBF: narrow.bf16_exp,
    Op.LOGBF: narrow.bf16_log,
    Op.SQRTHF: narrow.f16_sqrt,
    Op.ABSHF: narrow.f16_abs,
    Op.NEGHF: narrow.f16_neg,
    Op.SINHF: narrow.f16_sin,
    Op.COSHF: narrow.f16_cos,
    Op.EXPHF: narrow.f16_exp,
    Op.LOGHF: narrow.f16_log,
}
_BF16 = (narrow.bits_to_bf16, narrow.bf16_to_bits)
_F16 = (narrow.bits_to_f16, narrow.f16_to_bits)
#: narrow compare/convert ops -> (decode, encode) of their width.
FPN_CODEC = {
    Op.UCOMIBF: _BF16,
    Op.CVTSI2BF: _BF16,
    Op.CVTTBF2SI: _BF16,
    Op.CVTSD2BF: _BF16,
    Op.CVTBF2SD: _BF16,
    Op.UCOMIHF: _F16,
    Op.CVTSI2HF: _F16,
    Op.CVTTHF2SI: _F16,
    Op.CVTSD2HF: _F16,
    Op.CVTHF2SD: _F16,
}
#: packed double: applied to each 64-bit lane.
PD_BIN = {
    Op.ADDPD: ieee.double_add,
    Op.SUBPD: ieee.double_sub,
    Op.MULPD: ieee.double_mul,
    Op.DIVPD: ieee.double_div,
}
#: packed single: applied to each 32-bit half of each lane.
PS_BIN = {
    Op.ADDPS: ieee.single_add,
    Op.SUBPS: ieee.single_sub,
    Op.MULPS: ieee.single_mul,
    Op.DIVPS: ieee.single_div,
}

#: every helper the tables name, keyed by that name.
HELPERS = {
    fn.__name__: fn
    for table in (FPD_BIN, FPD_UN, FPS_BIN, FPS_UN, FPN_BIN, FPN_UN,
                  PD_BIN, PS_BIN)
    for fn in table.values()
}
HELPERS.update((fn.__name__, fn) for fn in _BF16 + _F16)
