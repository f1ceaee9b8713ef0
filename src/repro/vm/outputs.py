"""Decoding and comparison of program outputs.

Programs emit raw records: ``("i", bits)`` from ``outi``, ``("d", bits)``
from ``outsd`` and ``("s", bits)`` from ``outss``.  Decoding is
*flag-transparent* for every lattice width: a double output whose high
word carries a replacement sentinel (``0x7FF4DEAD`` for binary32,
``0x7FF4BEEF``/``0x7FF4FEED`` for the 16-bit rungs) decodes to the
narrow value stored in its low word.  This mirrors how the paper
compares the output of an instrumented run with that of a manually
converted single-precision build.
"""

from __future__ import annotations

import math

from repro.fpbits.ieee import bits_to_single
from repro.fpbits.replace import read_operand_as_double_any


def decode_output(record: tuple) -> float | int:
    """Decode one raw output record to a Python number."""
    kind, bits = record
    if kind == "i":
        return bits - 0x10000000000000000 if bits >= 0x8000000000000000 else bits
    if kind == "d":
        return read_operand_as_double_any(bits)
    if kind == "s":
        return bits_to_single(bits)
    raise ValueError(f"unknown output record kind {kind!r}")


def decode_outputs(records: list) -> list:
    """Decode a whole output stream."""
    return [decode_output(r) for r in records]


def outputs_close(
    a: list,
    b: list,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
) -> bool:
    """Compare two decoded output streams element-wise.

    Integer records must match exactly; floating records must be within
    tolerance and must not be NaN (a NaN anywhere fails the comparison —
    the replacement sentinel is designed to surface as NaN).
    """
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, int) and isinstance(y, int):
            if x != y:
                return False
            continue
        x = float(x)
        y = float(y)
        if x != x or y != y:
            return False
        if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=abs_tol):
            return False
    return True
