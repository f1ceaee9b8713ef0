"""An independent layout of instrumented builds, for differential tests.

``repro.instrument`` lays every build out from relocatable block
templates and patches their label immediates itself.  This oracle emits
the same per-instruction splice (``_emit_instruction``) for the whole
program into one :class:`~repro.asm.builder.AsmBuilder` instead and lets
the assembler place functions, resolve labels and record debug lines.
A cached build must equal its output field for field, statistics
included.
"""

from __future__ import annotations

from repro.asm.builder import AsmBuilder
from repro.binary.model import Program
from repro.config.model import Config
from repro.instrument.cache import _scratch_registers_unused
from repro.instrument.dataflow import block_widths
from repro.instrument.rewriter import _addr_label, _emit_instruction
from repro.instrument.snippets import UNDECIDED, SnippetStats, live_widths


def fields(program: Program) -> tuple:
    """Every field of *program* its layout decides: text, entry, data
    image, globals, modules, the function table (CFG blocks aside), debug
    lines and name."""
    return (
        program.text,
        program.entry,
        program.data_image,
        program.globals,
        program.modules,
        [(fn.name, fn.module, fn.entry, fn.end) for fn in program.functions],
        program.debug_lines,
        program.name,
    )


def rewrite(
    program: Program,
    config: Config,
    mode: str = "auto",
    plain: bool = False,
) -> tuple[Program, SnippetStats]:
    """``instrument(program, config, ...)``'s program and statistics,
    linked by the assembler."""
    policies = config.instruction_policies()
    has_narrow = any(p.is_narrow for p in policies.values())
    snippet_all = mode == "all" or (mode == "auto" and has_narrow)
    widths = live_widths(policies)
    streamline = not plain and _scratch_registers_unused(program)
    program.ensure_cfg()
    known: dict = {}
    if snippet_all and not plain:
        for fn in program.functions:
            for block in fn.blocks:
                block_widths(block.instructions, policies, known)

    builder = AsmBuilder(program.name)
    for symbol in sorted(program.globals.values(), key=lambda s: s.addr):
        init = program.data_image[symbol.addr : symbol.addr + symbol.words]
        assert builder.global_(symbol.name, symbol.words, init) == symbol.addr
    entry_names = {fn.entry: fn.name for fn in program.functions}
    stats = SnippetStats()
    for fn in program.functions:
        builder.module(fn.module)
        builder.func(fn.name)
        for block in fn.blocks:
            before = stats.replaced_single + stats.wrapped_double
            for instr in block.instructions:
                builder.mark(_addr_label(instr.addr))
                _emit_instruction(
                    builder, instr, entry_names, policies, snippet_all, stats,
                    known.get(instr.addr, UNDECIDED), mode == "all",
                    streamline, widths,
                )
            if stats.replaced_single + stats.wrapped_double > before:
                stats.blocks_split += 1
        builder.endfunc()
    return builder.link(entry=entry_names[program.entry]), stats
