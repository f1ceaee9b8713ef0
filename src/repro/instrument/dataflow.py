"""Static data-flow analysis for redundant-check elimination.

The paper's Section 2.5 proposes reducing overhead by "detecting
instructions that never encounter replaced double-precision numbers under
a given configuration".  This module implements the intra-block version:
it tracks, through each basic block, the set of XMM registers *proven* to
hold plain (unflagged) doubles, and reports that set at every
double-policy candidate so its guard snippet can skip those checks.

The analysis is deliberately conservative:

* the clean set is empty at block entry (no cross-block propagation);
* a call kills everything (callees are free to clobber XMM state);
* any write whose provenance we do not model (memory loads, bit moves,
  pops, MPI results) kills the written register;
* a narrow-policy candidate (single, bfloat16, binary16) marks all
  registers it touches as flagged.
"""

from __future__ import annotations

from repro.config.model import Policy
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OPCODE_INFO
from repro.isa.operands import Xmm


def block_precleaned(
    instructions: list[Instruction],
    policies: dict[int, Policy],
    out: dict[int, frozenset[int]] | None = None,
) -> dict[int, frozenset[int]]:
    """Map each double-policy candidate address of one basic block to the
    XMM registers statically clean there (added to *out*).

    The clean set is empty at block entry and never crosses block
    boundaries, so the result for one block depends only on that block's
    instructions and the policies of its own candidates — the property
    the instrumentation cache's per-block content addressing relies on.
    """
    if out is None:
        out = {}
    clean: set[int] = set()
    for instr in instructions:
        if instr.is_candidate:
            policy = policies.get(instr.addr, Policy.DOUBLE)
            if policy is Policy.DOUBLE:
                out[instr.addr] = frozenset(clean)
                _apply_double(instr, clean)
            elif policy.is_narrow:
                _apply_single(instr, clean)
            else:  # IGNORE: untouched instruction, unknown effects
                _kill_writes(instr, clean)
        else:
            _apply_plain(instr, clean)
    return out


def _xmm_inputs(instr: Instruction) -> list[int]:
    info = OPCODE_INFO[instr.opcode]
    return [
        instr.operands[i].index
        for i in info.fp_in
        if isinstance(instr.operands[i], Xmm)
    ]


def _xmm_writes(instr: Instruction) -> list[int]:
    info = OPCODE_INFO[instr.opcode]
    return [
        instr.operands[i].index
        for i in info.writes
        if i < len(instr.operands) and isinstance(instr.operands[i], Xmm)
    ]


def _apply_double(instr: Instruction, clean: set[int]) -> None:
    # The guard upcast every FP input in place; the result is a fresh double.
    clean.update(_xmm_inputs(instr))
    clean.update(_xmm_writes(instr))


def _apply_single(instr: Instruction, clean: set[int]) -> None:
    # Inputs were downcast in place and the result carries the sentinel.
    for reg in _xmm_inputs(instr):
        clean.discard(reg)
    for reg in _xmm_writes(instr):
        clean.discard(reg)


def _kill_writes(instr: Instruction, clean: set[int]) -> None:
    for reg in _xmm_writes(instr):
        clean.discard(reg)


def _apply_plain(instr: Instruction, clean: set[int]) -> None:
    op = instr.opcode
    info = OPCODE_INFO[op]
    if info.is_call:
        clean.clear()
        return
    if op in (Op.MOVSD, Op.MOVAPD):
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            if isinstance(src, Xmm):
                if src.index in clean:
                    clean.add(dst.index)
                else:
                    clean.discard(dst.index)
            else:  # memory load: unknown provenance
                clean.discard(dst.index)
        return
    if op is Op.CVTSS2SD:
        clean.add(instr.operands[0].index)
        return
    _kill_writes(instr, clean)
