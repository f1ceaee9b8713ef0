"""The precision-lattice subsystem: ordered width chains below binary64.

See :mod:`repro.lattice.model` for the data model.  Everything the rest
of the system needs — spec parsing, the canonical BINARY/FULL lattices,
the width records (:mod:`repro.fpbits`' ``F64``/``F32``/``BF16``/``F16``)
and the range check — is re-exported here.
"""

from repro.fpbits import BF16, F16, F32, F64
from repro.lattice.model import (
    BINARY_LATTICE,
    BINARY_SPEC,
    FULL_LATTICE,
    Lattice,
    LatticeError,
    fits_width,
    parse_lattice,
)

__all__ = [
    "BF16",
    "BINARY_LATTICE",
    "BINARY_SPEC",
    "F16",
    "F32",
    "F64",
    "FULL_LATTICE",
    "Lattice",
    "LatticeError",
    "fits_width",
    "parse_lattice",
]
