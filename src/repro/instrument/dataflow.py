"""Static width inference: the Figure 6 checks a block already decides.

The paper's Section 2.5 proposes reducing overhead by "detecting
instructions that never encounter replaced double-precision numbers under
a given configuration".  This module implements the intra-block version.
Through each basic block it follows, per XMM register, what the low
lane's high word provably holds when the next snippet runs:

* nothing known (the register is absent): the snippet runs the Figure 6
  test;
* :data:`PLAIN` (``"f64"``): the test of every live sentinel falls
  through;
* a narrow width name (``"f32"``, ``"bf16"``, ``"f16"``): the high word
  is that width's sentinel.

A snippet whose operand is decided emits only the conversion the test
would have chosen (:mod:`repro.instrument.snippets`), so it loses the
test, its ``je``/``jne`` and the block split the branch causes.

Transfer rules:

* the state is empty at block entry and never crosses block boundaries;
* a double-policy scalar candidate leaves its guarded inputs and its
  result plain: the guard leaves no live sentinel behind, and each
  operation yields a number, a quiet NaN or (min/max) one of its guarded
  inputs.  ``negsd``/``abssd`` are the exception: a pure sign-bit
  operation maps an unflagged NaN whose high word is ``0xFFF4DEAD`` onto
  the f32 sentinel, so their result is unknown;
* a narrow candidate at width *w* leaves its inputs and its result
  flagged at *w* (the narrow operation writes the low word only);
* register-to-register ``movsd``/``movapd`` copy the state;
* a call clears every state; IGNORE and packed candidates, memory loads
  and any other XMM write make the registers they write unknown.
  Packed candidates keep their full checks.
"""

from __future__ import annotations

from repro.config.model import Policy
from repro.instrument.snippets import POLICY_WIDTHS
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op, OPCODE_INFO
from repro.isa.operands import Xmm

#: the state of a register whose every sentinel test falls through.
PLAIN = "f64"

_SIGN_OPS = (Op.NEGSD, Op.ABSSD)


def block_widths(
    instructions: list[Instruction],
    policies: dict[int, Policy],
    out: dict[int, dict[int, str]] | None = None,
) -> dict[int, dict[int, str]]:
    """Map each scalar candidate address of one basic block to the width
    state of its XMM registers there, omitting empty states (added to
    *out*).

    The state depends only on the block's own instructions and the
    policies of its own candidates, the property the instrumentation
    cache's per-block content addressing relies on.
    """
    if out is None:
        out = {}
    state: dict[int, str] = {}
    for instr in instructions:
        info = OPCODE_INFO[instr.opcode]
        if info.is_candidate:
            policy = policies.get(instr.addr, Policy.DOUBLE)
            if info.packed or policy is Policy.IGNORE:
                _forget(_xmm_inputs(instr) if info.packed else (), state)
                _forget(_xmm_writes(instr), state)
                continue
            if state:
                out[instr.addr] = dict(state)
            width = POLICY_WIDTHS.get(policy, PLAIN)
            for reg in _xmm_inputs(instr):
                state[reg] = width
            if width == PLAIN and instr.opcode in _SIGN_OPS:
                _forget(_xmm_writes(instr), state)
            else:
                for reg in _xmm_writes(instr):
                    state[reg] = width
        elif info.is_call:
            state.clear()
        elif instr.opcode in (Op.MOVSD, Op.MOVAPD) and isinstance(
            instr.operands[0], Xmm
        ):
            dst, src = instr.operands
            known = state.get(src.index) if isinstance(src, Xmm) else None
            if known is None:
                state.pop(dst.index, None)
            else:
                state[dst.index] = known
        else:
            _forget(_xmm_writes(instr), state)
    return out


def _forget(regs, state: dict[int, str]) -> None:
    for reg in regs:
        state.pop(reg, None)


def _xmm_inputs(instr: Instruction) -> list[int]:
    return [
        instr.operands[i].index
        for i in OPCODE_INFO[instr.opcode].fp_in
        if isinstance(instr.operands[i], Xmm)
    ]


def _xmm_writes(instr: Instruction) -> list[int]:
    return [
        instr.operands[i].index
        for i in OPCODE_INFO[instr.opcode].writes
        if i < len(instr.operands) and isinstance(instr.operands[i], Xmm)
    ]
