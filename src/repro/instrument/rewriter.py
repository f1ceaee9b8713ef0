"""The per-instruction splice of basic-block patching (paper Section 2.4,
Figure 7).

Each floating-point candidate conceptually splits its block into
*before / instruction / after*; the snippet code is spliced where the
instruction was and the surrounding edges re-point to it.  Because the
splice is inline, re-linearizing the patched CFG is exactly the original
layout with snippets expanded in place.  :func:`_emit_instruction` emits
one original instruction's share of that layout into a *builder* (any
object with ``emit(opcode, *operands, line=)`` and ``mark(label)``);
:class:`~repro.instrument.cache.InstrumentCache` drives it once per
basic block to build the block templates it lays out.

Every original instruction address becomes a label (:func:`_addr_label`);
branch operands are rewritten from absolute addresses to those labels, so
control flow survives arbitrary code growth.  Call targets resolve to
function-entry labels, and return addresses need no fix-up at all: the
rewritten ``call`` pushes the *new* return address at run time.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.asm.builder import LabelRef
from repro.config.model import Policy
from repro.instrument.snippets import (
    DEFAULT_WIDTHS,
    SnippetStats,
    emit_double_snippet,
    emit_move_guard,
    emit_single_snippet,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OPCODE_INFO, Op


def _addr_label(addr: int) -> str:
    return f".A{addr:x}"


def _emit_instruction(
    builder,
    instr: Instruction,
    entry_names: dict[int, str],
    policies: dict[int, Policy],
    snippet_all: bool,
    stats: SnippetStats,
    known: Mapping[int, str],
    wrap_moves: bool,
    streamline: bool,
    widths: tuple = DEFAULT_WIDTHS,
) -> None:
    info = OPCODE_INFO[instr.opcode]

    # Rewrite control-flow targets to labels.
    if info.is_call:
        target = instr.operands[0].value
        name = entry_names.get(target)
        if name is None:
            raise ValueError(f"call at {instr.addr:#x} targets non-function {target:#x}")
        builder.emit(instr.opcode, LabelRef(name), line=instr.line)
        stats.copied += 1
        return
    if info.is_branch:
        target = instr.operands[0].value
        builder.emit(instr.opcode, LabelRef(_addr_label(target)), line=instr.line)
        stats.copied += 1
        return

    if wrap_moves and snippet_all and instr.opcode in (Op.MOVSD, Op.MOVAPD, Op.MOVSS):
        emit_move_guard(builder, instr, stats)
        return

    if instr.is_candidate and snippet_all:
        policy = policies.get(instr.addr, Policy.DOUBLE)
        if policy.is_narrow:
            emit_single_snippet(
                builder, instr, stats, known, streamline, policy.width.name,
                widths,
            )
            return
        if policy is Policy.DOUBLE:
            emit_double_snippet(
                builder, instr, stats, known, streamline, widths
            )
            return
        stats.ignored += 1  # IGNORE: fall through to verbatim copy

    builder.emit(instr.opcode, *instr.operands, line=instr.line)
    if not (instr.is_candidate and snippet_all):
        stats.copied += 1
