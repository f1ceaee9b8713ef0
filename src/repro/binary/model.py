"""The program model: text, data, symbols, functions, blocks, debug info.

Memory layout convention (word = 64-bit cell, word-addressed)::

    0 .. data_words-1      globals (initialized from ``data_image``)
    data_words .. top-1    free / heap (zero-initialized)
    top-1 downwards        stack (stack pointer starts at ``top``)

The text section lives in a separate address space (Harvard style): code
addresses are byte offsets into ``text`` and never alias data addresses.
This removes self-modification concerns and makes binary rewriting a pure
text-section transplant, which is also how Dyninst's rewriter treats
well-behaved binaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.encode import decode_instruction
from repro.isa.instruction import Instruction


@dataclass(frozen=True, slots=True)
class GlobalSymbol:
    """A named object in the data section."""

    name: str
    addr: int
    words: int


@dataclass(slots=True)
class BasicBlock:
    """A maximal straight-line run of instructions inside one function."""

    start: int
    instructions: list[Instruction]
    successors: tuple[int, ...] = ()

    @property
    def end(self) -> int:
        """Byte address one past the last instruction."""
        if not self.instructions:
            return self.start
        last = self.instructions[-1]
        from repro.isa.encode import encoded_length

        return last.addr + encoded_length(last)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(slots=True)
class FunctionInfo:
    """Extent and attribution of one function in the text section."""

    name: str
    module: str
    entry: int
    end: int
    blocks: list[BasicBlock] = field(default_factory=list)

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions


@dataclass(slots=True)
class Program:
    """A complete executable for the virtual machine."""

    text: bytes
    entry: int
    functions: list[FunctionInfo]
    data_image: list[int]
    globals: dict[str, GlobalSymbol]
    modules: list[str]
    #: byte address -> source line (debug info; empty when stripped)
    debug_lines: dict[int, int] = field(default_factory=dict)
    #: human-readable name, used in reports
    name: str = "a.out"
    #: the instrumentation cache's template tiling of ``text``, ordered
    #: (template bytes, template instructions, base address) triples the
    #: VM loads without decoding; None on compiled and decoded programs
    segments: tuple | None = field(default=None, compare=False, repr=False)

    def decode_all(self) -> list[Instruction]:
        """Decode the whole text section in address order."""
        out = []
        offset = 0
        text = self.text
        n = len(text)
        while offset < n:
            instr, size = decode_instruction(text, offset)
            out.append(instr)
            offset += size
        return out

    def ensure_cfg(self) -> "Program":
        """Build per-function basic blocks if not yet present.

        Instrumented programs defer CFG construction (the evaluation
        pipeline never needs blocks); consumers that do — the
        configuration generator, the disassembler — call this first.
        Idempotent and cheap when blocks exist.
        """
        if any(not fn.blocks and fn.entry < fn.end for fn in self.functions):
            from repro.binary.cfg import build_cfg

            build_cfg(self)
        return self

    def function_at(self, addr: int) -> FunctionInfo | None:
        for fn in self.functions:
            if fn.entry <= addr < fn.end:
                return fn
        return None

    def function_named(self, name: str) -> FunctionInfo:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function named {name!r}")

    @property
    def data_words(self) -> int:
        return len(self.data_image)

    def candidate_instructions(self) -> list[Instruction]:
        """All replacement-candidate instructions, in address order."""
        return [i for i in self.decode_all() if i.is_candidate]

    def stats(self) -> dict[str, int]:
        instrs = self.decode_all()
        return {
            "functions": len(self.functions),
            "instructions": len(instrs),
            "candidates": sum(1 for i in instrs if i.is_candidate),
            "text_bytes": len(self.text),
            "data_words": self.data_words,
        }
