"""The ordered precision lattice: which widths the search may descend to.

The paper's configuration space is binary — every candidate is either
double or replaced-single.  This module generalizes it to an ordered
chain of widths, widest first::

    f64  ->  f32  ->  bf16  ->  f16

Each rung is a width's :class:`~repro.fpbits.FpFormat` record, which
holds everything that makes it concrete in the VM and the exchange
format: exponent and mantissa bits, high-word sentinel, policy letter.
A :class:`Lattice` is an ordered tuple of such records; the search
refines *downward* through it (a site that passes at f32 becomes a
bf16/f16 candidate).

Two canonical instances matter everywhere:

* :data:`BINARY_LATTICE` — ``f64,f32``, the paper's original space.  A
  search over it is differential-tested byte-identical to the
  pre-lattice binary search, and its policy digests are byte-identical
  to schema-v1 stores.
* :data:`FULL_LATTICE` — ``f64,f32,bf16,f16``, the default descent
  chain for lattice-aware searches.

Lattices are named by *spec strings* (``"f64,f32,bf16,f16"``) so they
ride through JSON-serialized :class:`~repro.search.bfs.SearchOptions`
unchanged, and by *canonical descriptors*
(``"f64(11,52)>f32(8,23)>..."``) that enter
:func:`repro.store.policy_digest` so results from different lattices can
never dedup against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpbits import F32, F64, FORMATS, FpFormat


class LatticeError(ValueError):
    """A lattice spec names unknown widths or breaks the ordering rules."""


@dataclass(frozen=True)
class Lattice:
    """An ordered chain of widths, widest first, anchored at f64."""

    widths: tuple[FpFormat, ...]

    def __post_init__(self):
        if not self.widths or self.widths[0] is not F64:
            raise LatticeError("a lattice must start at f64")
        if len(self.widths) < 2:
            raise LatticeError("a lattice needs at least one narrow width")
        names = [w.name for w in self.widths]
        if len(set(names)) != len(names):
            raise LatticeError(f"duplicate widths in lattice: {names}")
        if self.widths[1] is not F32:
            raise LatticeError("the first narrow width must be f32")
        for wide, narrow in zip(self.widths[1:], self.widths[2:]):
            if narrow.rank <= wide.rank:
                raise LatticeError(
                    f"lattice must descend: {wide.name} -> {narrow.name}"
                )

    # -- identity -------------------------------------------------------------

    def spec(self) -> str:
        """The comma-joined spec string; parse_lattice round-trips it."""
        return ",".join(w.name for w in self.widths)

    def descriptor(self) -> str:
        """Canonical descriptor for digests: names plus (exp, man) bits."""
        return ">".join(w.descriptor() for w in self.widths)

    @property
    def is_binary(self) -> bool:
        """True for the paper's original f64->f32 space."""
        return len(self.widths) == 2

    @property
    def narrow_widths(self) -> tuple[FpFormat, ...]:
        """Every rung below f64, widest first."""
        return self.widths[1:]


def parse_lattice(spec: "str | Lattice") -> Lattice:
    """Parse a spec string (``"f64,f32,bf16,f16"``) into a Lattice.

    Identity on Lattice instances, so call sites accept either form.
    """
    if isinstance(spec, Lattice):
        return spec
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [name for name in names if name not in FORMATS]
    if unknown:
        raise LatticeError(
            f"unknown width(s) {unknown} (known: {sorted(FORMATS)})"
        )
    return Lattice(tuple(FORMATS[name] for name in names))


#: The paper's original two-level space; the default everywhere.
BINARY_LATTICE = parse_lattice("f64,f32")

#: The full default descent chain.
FULL_LATTICE = parse_lattice("f64,f32,bf16,f16")

#: Spec string of the default lattice (SearchOptions' default value).
BINARY_SPEC = BINARY_LATTICE.spec()


def fits_width(width: FpFormat, min_abs: float, max_abs: float) -> bool:
    """Can every observed magnitude in [min_abs, max_abs] be represented
    at *width* without overflowing to infinity or flushing to subnormal?

    The bounds come from the shadow observer's per-instruction value
    ranges (zero magnitudes are ignored by passing ``min_abs == 0``).
    Used to predict the lowest safe width and prune descent candidates.
    """
    if max_abs > width.max_finite:
        return False
    if 0.0 < min_abs < width.min_normal:
        return False
    return True
