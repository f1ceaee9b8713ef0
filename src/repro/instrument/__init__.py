"""Binary modification: snippets, basic-block patching, rewriting.

This package implements Sections 2.3 and 2.4 of the paper:

* :mod:`repro.instrument.snippets` — the "mini-compiler" that emits the
  machine-code replacement snippets (flag test, conditional in-place
  downcast/upcast, precision-switched opcode, packed flag fix-up);
* :mod:`repro.instrument.rewriter` — the per-instruction splice: splits
  a basic block around each floating-point instruction and emits the
  snippet in its place (Dyninst's CFG-patching API);
* :mod:`repro.instrument.cache` — compiles each block once per policy
  slice into a relocatable template and lays the templates out into the
  new executable (Dyninst's binary rewriter, in one deterministic pass);
* :mod:`repro.instrument.engine` — the top-level entry point tying a
  :class:`~repro.config.model.Config` to a rewritten program; every
  build goes through an :class:`InstrumentCache`.
"""

from repro.instrument.cache import InstrumentCache
from repro.instrument.engine import (
    InstrumentedProgram,
    InstrumentError,
    instrument,
)
from repro.instrument.snippets import SnippetStats

__all__ = [
    "InstrumentCache",
    "InstrumentedProgram",
    "InstrumentError",
    "instrument",
    "SnippetStats",
]
