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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binary.model import Program
from repro.config.model import Config, Policy
from repro.instrument.dataflow import compute_precleaned
from repro.instrument.rewriter import rewrite
from repro.instrument.snippets import SnippetError, SnippetStats, live_widths
from repro.telemetry import NULL_TELEMETRY


class InstrumentError(Exception):
    """Instrumentation could not be applied."""


@dataclass(slots=True)
class InstrumentedProgram:
    """Result of instrumenting one program under one configuration."""

    program: Program
    original: Program
    config: Config
    stats: SnippetStats
    snippeted: bool
    #: ordered (template bytes, template instructions, base address)
    #: triples tiling the text when the program came out of an
    #: :class:`InstrumentCache`; the VM's compiled-segment cache keys on
    #: the bytes and loads the instructions without decoding them.
    #: ``None`` on the cold path.
    segments: tuple | None = None

    @property
    def growth(self) -> float:
        """Text-size growth factor of the rewritten binary."""
        return len(self.program.text) / max(1, len(self.original.text))


def _scratch_registers_unused(program: Program) -> bool:
    """True if no instruction in *program* touches the snippet-reserved
    registers (R12/R13, X14/X15) — compiler output never does."""
    from repro.isa.operands import Mem, Reg, Xmm
    from repro.isa.registers import SNIPPET_GPRS, SNIPPET_XMMS

    for instr in program.decode_all():
        for operand in instr.operands:
            if isinstance(operand, Reg) and operand.index in SNIPPET_GPRS:
                return False
            if isinstance(operand, Xmm) and operand.index in SNIPPET_XMMS:
                return False
            if isinstance(operand, Mem):
                if operand.base in SNIPPET_GPRS or operand.index in SNIPPET_GPRS:
                    return False
    return True


def instrument(
    program: Program,
    config: Config,
    mode: str = "auto",
    optimize_checks: bool = False,
    streamline: bool = False,
    telemetry=None,
    cache=None,
    policies: dict[int, Policy] | None = None,
) -> InstrumentedProgram:
    """Build the mixed-precision executable for *config* (see module doc).

    *streamline* implements the paper's Section 2.5 suggestion of
    emitting "more compact and efficient snippets": the scratch-register
    save/restore around every snippet is elided.  Only legal when the
    program provably never uses those registers; the engine verifies this
    statically and raises otherwise.

    *cache* may be an :class:`~repro.instrument.cache.InstrumentCache`
    bound to *program*; block templates are then reused across calls and
    only blocks whose policy slice changed are re-snippeted.  The output
    is byte-identical to the uncached path.  *policies* short-circuits
    ``config.instruction_policies()`` when the caller already has the
    resolved map (the evaluators do).
    """
    if mode not in ("auto", "all", "none"):
        raise InstrumentError(f"unknown mode {mode!r}")
    if cache is not None and cache.program is not program:
        raise InstrumentError("instrument cache is bound to a different program")
    if streamline:
        scratch_free = (
            cache.scratch_registers_unused()
            if cache is not None
            else _scratch_registers_unused(program)
        )
        if not scratch_free:
            raise InstrumentError(
                "streamline requested but the program uses snippet-reserved "
                "registers; save/restore cannot be elided safely"
            )
    if policies is None:
        policies = config.instruction_policies()
    has_narrow = any(p.is_narrow for p in policies.values())
    snippet_all = mode == "all" or (mode == "auto" and has_narrow)
    widths = live_widths(policies)

    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    segments = None
    if cache is not None:
        try:
            cached = cache.instrument(
                policies, snippet_all,
                wrap_moves=(mode == "all"), streamline=streamline,
                optimize_checks=optimize_checks, widths=widths,
            )
        except SnippetError as exc:
            raise InstrumentError(str(exc)) from exc
        new_program = cached.program
        stats = cached.stats
        segments = cached.segments
        telemetry.count("instr.block_cache_hits", cached.block_hits)
        telemetry.count("instr.block_cache_misses", cached.block_misses)
    else:
        precleaned = None
        if optimize_checks and snippet_all:
            precleaned = compute_precleaned(program, policies)

        stats = SnippetStats()
        try:
            new_program = rewrite(
                program, policies, snippet_all, stats, precleaned,
                wrap_moves=(mode == "all"), streamline=streamline,
                widths=widths,
            )
        except SnippetError as exc:
            raise InstrumentError(str(exc)) from exc
    result = InstrumentedProgram(
        program=new_program,
        original=program,
        config=config,
        stats=stats,
        snippeted=snippet_all,
        segments=segments,
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
