"""Top-level instrumentation entry point.

``instrument(program, config)`` produces the mixed-precision executable
for a configuration.  The key rule from the paper (Section 2.3): *once
any instruction is replaced with its single-precision equivalent, every
floating-point instruction must be snippeted* — even the ones kept in
double precision — because any of them might receive a replaced value
and needs the check-and-upcast guard.  Anything the analysis misses
surfaces as NaN (the sentinel is a NaN payload), which fails verification
loudly instead of silently mis-rounding.

Modes
-----
``auto``
    Snippet everything iff the configuration marks at least one
    instruction narrow — single or a 16-bit lattice width (the paper's
    rule, generalized down the lattice).
``all``
    Snippet everything regardless, *including floating-point moves*,
    which get a check-only guard — the paper's base-case overhead
    experiment ("replacing all instructions with double-precision
    snippets ... does not affect the semantics or results").
``none``
    Copy verbatim (layout round-trip; used in tests).

Forms
-----
Every build is *lean* unless ``plain=True``: snippets skip the Figure 6
test on operands whose width their block already decides, and drop the
scratch save/restore wherever the program never touches the scratch
registers (the paper's Section 2.5 proposals; see
:mod:`repro.instrument.snippets`).  Both forms compute the same outputs;
the plain form is the paper's Figure 6 snippet, kept for the overhead
experiments that reproduce its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binary.model import Program
from repro.config.model import Config, Policy
from repro.instrument.cache import InstrumentCache
from repro.instrument.snippets import SnippetError, SnippetStats, live_widths
from repro.telemetry import NULL_TELEMETRY


class InstrumentError(Exception):
    """Instrumentation could not be applied."""


@dataclass(slots=True)
class InstrumentedProgram:
    """Result of instrumenting one program under one configuration.

    ``program`` carries the template tiling it was assembled from
    (``Program.segments``), so every consumer loads it decode-free.
    """

    program: Program
    original: Program
    config: Config
    stats: SnippetStats
    snippeted: bool

    @property
    def growth(self) -> float:
        """Text-size growth factor of the rewritten binary."""
        return len(self.program.text) / max(1, len(self.original.text))


#: id(original program) -> the InstrumentCache serving calls that pass
#: none.  A cache holds a strong reference to its program, which pins the
#: id (and, like any cache, assumes the program no longer changes); the
#: FIFO cap bounds memory when many distinct programs flow through one
#: process.
_CACHES: dict[int, InstrumentCache] = {}
_CACHES_MAX = 8


def _cache_for(program: Program) -> InstrumentCache:
    cache = _CACHES.get(id(program))
    if cache is None:
        if len(_CACHES) >= _CACHES_MAX:
            _CACHES.pop(next(iter(_CACHES)))
        cache = _CACHES[id(program)] = InstrumentCache(program)
    return cache


def instrument(
    program: Program,
    config: Config,
    mode: str = "auto",
    plain: bool = False,
    telemetry=None,
    cache=None,
    policies: dict[int, Policy] | None = None,
) -> InstrumentedProgram:
    """Build the mixed-precision executable for *config* (see module doc).

    *plain* selects the paper's Figure 6 snippets over the default lean
    form (module doc).

    Every build is assembled from an
    :class:`~repro.instrument.cache.InstrumentCache`'s block templates.
    *cache* may be one bound to *program*, threaded through a search so
    that only blocks whose policy slice changed are re-snippeted; its
    block hits and misses are reported to *telemetry*.  Without one, the
    call takes the cache that :data:`_CACHES` holds for *program*.
    *policies* short-circuits ``config.instruction_policies()`` when the
    caller already has the resolved map (the evaluators do).
    """
    if mode not in ("auto", "all", "none"):
        raise InstrumentError(f"unknown mode {mode!r}")
    reported = cache is not None
    if not reported:
        cache = _cache_for(program)
    elif cache.program is not program:
        raise InstrumentError("instrument cache is bound to a different program")
    if policies is None:
        policies = config.instruction_policies()
    has_narrow = any(p.is_narrow for p in policies.values())
    snippet_all = mode == "all" or (mode == "auto" and has_narrow)

    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    try:
        cached = cache.instrument(
            policies, snippet_all, wrap_moves=(mode == "all"), plain=plain,
            widths=live_widths(policies),
        )
    except SnippetError as exc:
        raise InstrumentError(str(exc)) from exc
    new_program = cached.program
    stats = cached.stats
    if reported:
        telemetry.count("instr.block_cache_hits", cached.block_hits)
        telemetry.count("instr.block_cache_misses", cached.block_misses)
    result = InstrumentedProgram(
        program=new_program,
        original=program,
        config=config,
        stats=stats,
        snippeted=snippet_all,
    )
    if telemetry.enabled:
        telemetry.emit(
            "instr.stats",
            program=program.name,
            mode=mode,
            replaced_single=stats.replaced_single,
            wrapped_double=stats.wrapped_double,
            ignored=stats.ignored,
            copied=stats.copied,
            checks_emitted=stats.checks_emitted,
            checks_skipped=stats.checks_skipped,
            snippet_instructions=stats.snippet_instructions,
            saves_elided=stats.saves_elided,
            blocks_split=stats.blocks_split,
            bytes_grown=len(new_program.text) - len(program.text),
            growth=round(result.growth, 4),
        )
    return result
