"""Floating-point opcode -> :mod:`repro.fpbits` helper tables.

The one definition of which helper computes each FP opcode, shared by
the reference closures (:mod:`repro.vm.machine`), the fused-run emitter
(:mod:`repro.vm.fuse`) and the shadow analysis (:mod:`repro.analysis`).
Nothing here is listed by hand: a double opcode's operation is its
mnemonic without the ``sd``/``pd`` suffix (``addsd`` -> ``add``), its
narrow forms come from :data:`repro.isa.opcodes.NARROW_FAMILIES`, and
each helper from its width's :class:`repro.fpbits.FpFormat` record.
f32 is one narrow width among three: its scalar ops share the bf16/f16
tables, so the VM and the emitter treat every width below f64 alike.
The emitter writes each helper into generated source by its
``__name__``, which for every helper here equals its attribute name in
its :mod:`repro.fpbits` module (tests/vm/test_fuse_coverage.py checks
this).
"""

from __future__ import annotations

from repro.fpbits import BINARY_OPS, FORMATS, UNARY_OPS
from repro.isa.opcodes import NARROW_FAMILIES, OPCODE_INFO

_F32_EQUIV, _F32_DOWN, _F32_UP = NARROW_FAMILIES["f32"]

#: double opcode -> the operation it computes, for the 13 operations
#: (scalar and packed; UCOMISD and the conversions compute none).
_OPERATION = {
    op: OPCODE_INFO[op].mnemonic[:-2]
    for op in _F32_EQUIV
    if OPCODE_INFO[op].mnemonic[:-2] in BINARY_OPS + UNARY_OPS
}
_SCALAR = {op: name for op, name in _OPERATION.items() if not OPCODE_INFO[op].packed}

#: scalar double binary ops: dst.lo = fn(dst.lo, src64).
FPD_BIN = {op: FORMATS["f64"].ops[n] for op, n in _SCALAR.items() if n in BINARY_OPS}
#: scalar double unary ops: dst.lo = fn(src64).
FPD_UN = {op: FORMATS["f64"].ops[n] for op, n in _SCALAR.items() if n in UNARY_OPS}


def _narrow_tables() -> tuple[dict, dict, dict, dict]:
    binary: dict = {}
    unary: dict = {}
    codec: dict = {}
    f32_form: dict = {}
    for width, (equiv, down, up) in NARROW_FAMILIES.items():
        fmt = FORMATS[width]
        for op, narrow_op in equiv.items():
            if OPCODE_INFO[op].packed:
                continue
            codec[narrow_op] = fmt
            name = _OPERATION.get(op)
            if name in BINARY_OPS:
                binary[narrow_op] = fmt.ops[name]
            elif name in UNARY_OPS:
                unary[narrow_op] = fmt.ops[name]
            else:
                f32_form[narrow_op] = _F32_EQUIV[op]
        codec[down] = codec[up] = fmt
        f32_form[down] = _F32_DOWN
        f32_form[up] = _F32_UP
    return binary, unary, codec, f32_form


#: scalar narrow (f32, bfloat16, binary16) binary and unary ops on their
#: widths' patterns (FPN_BIN, FPN_UN).  The result is written into the
#: low 32 bits (a 16-bit pattern zero-extended) and the upper 32 bits are
#: preserved, which is what keeps the per-width replacement sentinels
#: alive in the high word.  FPN_CODEC maps every scalar narrow opcode to
#: its width's record (codec and mask), and F32_FORM each narrow compare
#: and conversion to its f32 form (the f32 family maps to itself), which
#: the VM and the emitter dispatch on.
FPN_BIN, FPN_UN, FPN_CODEC, F32_FORM = _narrow_tables()

#: packed double: applied to each 64-bit lane.
PD_BIN = {
    op: FORMATS["f64"].ops[n]
    for op, n in _OPERATION.items()
    if OPCODE_INFO[op].packed and n in BINARY_OPS
}
#: packed single: applied to each 32-bit half of each lane.
PS_BIN = {_F32_EQUIV[op]: FORMATS["f32"].ops[_OPERATION[op]] for op in PD_BIN}

#: every helper and codec of every width, keyed by its name.
HELPERS = {
    fn.__name__: fn
    for fmt in FORMATS.values()
    for fn in (*fmt.ops.values(), fmt.decode, fmt.encode, fmt.from_int)
}
