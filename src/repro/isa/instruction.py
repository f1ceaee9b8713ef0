"""Instruction objects: opcode + operands (+ address and debug info).

An :class:`Instruction` is immutable in its semantic fields; the *address*
is assigned by layout (assembler or rewriter) and recorded separately so
that the same logical instruction can be relocated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import Op, OPCODE_INFO
from repro.isa.operands import Imm, Operand, operand_letter


class IsaError(Exception):
    """Malformed instruction, operand, or encoding."""


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    ``addr`` is the byte offset of the instruction in its text section
    (``-1`` before layout); ``line`` is the source line from debug info
    (``0`` when unknown).
    """

    opcode: Op
    operands: tuple[Operand, ...] = ()
    addr: int = -1
    line: int = 0

    def __post_init__(self) -> None:
        validate_signature(self.opcode, self.operands)

    @property
    def info(self):
        return OPCODE_INFO[self.opcode]

    # -- queries used by analyses -------------------------------------------

    @property
    def is_candidate(self) -> bool:
        """True if this instruction may be replaced with single precision."""
        return self.info.single_equiv is not None

    def branch_target(self) -> int | None:
        """Absolute byte target of a branch/call, or None."""
        inf = self.info
        if (inf.is_branch or inf.is_call) and self.operands:
            op0 = self.operands[0]
            if isinstance(op0, Imm):
                return op0.value
        return None

    def render(self) -> str:
        """Instruction text in Intel operand order (destination first),
        e.g. ``addsd %x0, %x1`` meaning ``x0 += x1``."""
        inf = self.info
        if not self.operands:
            return inf.mnemonic
        rendered = [o.render() for o in self.operands]
        return f"{inf.mnemonic} {', '.join(rendered)}"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        prefix = f"{self.addr:#08x}: " if self.addr >= 0 else ""
        return prefix + self.render()


#: accepted (opcode, operand classes) pairs.  The ISA is finite and small,
#: so this converges to a few hundred entries; it turns the per-instruction
#: signature scan (every construction — assembly, decode, rewrite — pays
#: it) into one tuple hash.  Keyed by operand *classes* rather than kind
#: letters so the hot-path key is built by C-level ``map(type, ...)``.
_SIG_OK: set = set()


def validate_signature(opcode: Op, operands: tuple[Operand, ...]) -> None:
    """Raise :class:`IsaError` unless *operands* match one allowed signature."""
    key = (opcode, *map(type, operands))
    if key in _SIG_OK:
        return
    letters = tuple(operand_letter(o) for o in operands)
    inf = OPCODE_INFO.get(opcode)
    if inf is None:
        raise IsaError(f"unknown opcode {opcode!r}")
    for sig in inf.sigs:
        if len(sig) != len(letters):
            continue
        if all(letter in allowed for letter, allowed in zip(letters, sig)):
            _SIG_OK.add(key)
            return
    raise IsaError(
        f"{inf.mnemonic}: operand kinds {letters} do not match any signature "
        f"{inf.sigs}"
    )
