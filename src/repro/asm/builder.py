"""Programmatic assembler: emit instructions, resolve labels, lay out a Program.

The builder is where compiled code becomes bytes: the mini-language
compiler and hand-assembled programs funnel through it, so their layout
rules (function extents, label resolution, debug info) live in one
place.  Instrumented builds are laid out from relocatable block
templates instead (:mod:`repro.instrument.cache`), which patch label
immediates exactly as :meth:`AsmBuilder.link` resolves them.

Labels
------
Two namespaces:

* **function names** — global; ``call`` targets.
* **local labels** — scoped to the function being built; branch targets.

Both are written as :class:`LabelRef` pseudo-operands and resolved to
absolute byte addresses at :meth:`AsmBuilder.link` time.  A ``LabelRef``
encodes to the same width as an ``Imm`` so layout needs only one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.binary.cfg import build_cfg
from repro.binary.model import FunctionInfo, GlobalSymbol, Program
from repro.isa.encode import encode_body, encode_instruction
from repro.isa.instruction import Instruction, validate_signature
from repro.isa.opcodes import Op, OPCODE_INFO
from repro.isa.operands import Imm, KIND_IMM, KIND_MEM, Operand


class AsmError(Exception):
    """Assembly-time error: duplicate/undefined label, bad structure."""


@dataclass(frozen=True, slots=True)
class LabelRef:
    """Placeholder operand naming a label; resolved to an ``Imm`` at link."""

    name: str

    kind = KIND_IMM  # takes an Imm slot in signatures and layout

    def render(self) -> str:
        return self.name


@dataclass(slots=True)
class _PendingInstr:
    opcode: Op
    operands: tuple
    line: int
    raw: bytes | None  # final encoding, known at emit time unless a label is involved
    size: int


@dataclass(slots=True)
class _PendingFunc:
    name: str
    module: str
    items: list  # _PendingInstr | str (label name)


class AsmBuilder:
    """Accumulates functions and globals, then links them into a Program."""

    def __init__(self, name: str = "a.out") -> None:
        self.name = name
        self._module = "main"
        self._modules: list[str] = []
        self._funcs: list[_PendingFunc] = []
        self._current: _PendingFunc | None = None
        self._globals: dict[str, GlobalSymbol] = {}
        self._data_image: list[int] = []
        self._label_counter = 0

    # -- modules ------------------------------------------------------------

    def module(self, name: str) -> None:
        """Switch the module that subsequent functions are attributed to."""
        self._module = name
        if name not in self._modules:
            self._modules.append(name)

    # -- data ---------------------------------------------------------------

    def global_(self, name: str, words: int, init: list[int] | None = None) -> int:
        """Reserve *words* 64-bit cells for a named global; returns its address."""
        if name in self._globals:
            raise AsmError(f"duplicate global {name!r}")
        if words <= 0:
            raise AsmError(f"global {name!r} has non-positive size {words}")
        addr = len(self._data_image)
        if init is None:
            cells = [0] * words
        else:
            if len(init) > words:
                raise AsmError(f"global {name!r}: {len(init)} initializers > {words} words")
            cells = list(init) + [0] * (words - len(init))
        self._data_image.extend(c & 0xFFFFFFFFFFFFFFFF for c in cells)
        self._globals[name] = GlobalSymbol(name, addr, words)
        return addr

    def global_addr(self, name: str) -> int:
        return self._globals[name].addr

    # -- code ---------------------------------------------------------------

    def func(self, name: str) -> None:
        if self._current is not None:
            raise AsmError(f"func {name!r} opened inside {self._current.name!r}")
        if any(f.name == name for f in self._funcs):
            raise AsmError(f"duplicate function {name!r}")
        self._current = _PendingFunc(name, self._module, [])
        if self._module not in self._modules:
            self._modules.append(self._module)

    def endfunc(self) -> None:
        if self._current is None:
            raise AsmError("endfunc outside a function")
        if not self._current.items:
            raise AsmError(f"function {self._current.name!r} is empty")
        self._funcs.append(self._current)
        self._current = None

    def emit(self, opcode: Op, *operands, line: int = 0) -> None:
        """Append one instruction to the current function."""
        if self._current is None:
            raise AsmError("emit outside a function")
        # Validate against the opcode signature now (LabelRef counts as Imm
        # — it carries KIND_IMM, so no placeholder substitution is needed).
        validate_signature(opcode, operands)
        size = 3
        has_label = False
        for o in operands:
            kind = o.kind  # LabelRef carries KIND_IMM
            size += 12 if kind == KIND_MEM else 9 if kind == KIND_IMM else 2
            if o.__class__ is LabelRef:
                has_label = True
        # Encodings are address-independent, so label-free instructions can
        # be encoded once here instead of again at every link.
        raw = None if has_label else encode_body(opcode, operands)
        self._current.items.append(_PendingInstr(opcode, tuple(operands), line, raw, size))

    def mark(self, label: str) -> None:
        """Define a local label at the current position."""
        if self._current is None:
            raise AsmError("label outside a function")
        self._current.items.append(label)

    def fresh_label(self, stem: str = "L") -> str:
        """Return a unique local label name."""
        self._label_counter += 1
        return f".{stem}{self._label_counter}"

    # -- link ---------------------------------------------------------------

    def link(self, entry: str = "_start") -> Program:
        """Resolve labels, lay out text, and build the final Program."""
        if self._current is not None:
            raise AsmError(f"function {self._current.name!r} left open")
        if not self._funcs:
            raise AsmError("no functions to link")

        # Pass 1: assign addresses.  LabelRef has the same width as Imm, so
        # instruction sizes are final before resolution.
        func_addrs: dict[str, int] = {}
        local_addrs: dict[tuple[str, str], int] = {}
        placed: list[tuple[_PendingFunc, int, int]] = []  # (func, entry, end)
        offset = 0
        for fn in self._funcs:
            func_addrs[fn.name] = offset
            start = offset
            for item in fn.items:
                if isinstance(item, str):
                    key = (fn.name, item)
                    if key in local_addrs:
                        raise AsmError(f"duplicate label {item!r} in {fn.name!r}")
                    local_addrs[key] = offset
                else:
                    offset += item.size
            placed.append((fn, start, offset))

        # Pass 2: resolve and encode.
        def resolve(fn_name: str, operand):
            if isinstance(operand, LabelRef):
                key = (fn_name, operand.name)
                if key in local_addrs:
                    return Imm(local_addrs[key])
                if operand.name in func_addrs:
                    return Imm(func_addrs[operand.name])
                raise AsmError(f"undefined label {operand.name!r} in {fn_name!r}")
            return operand

        chunks: list[bytes] = []
        debug_lines: dict[int, int] = {}
        functions: list[FunctionInfo] = []
        decoded: list[list[Instruction]] = []
        offset = 0
        for fn, start, end in placed:
            fn_instrs: list[Instruction] = []
            for item in fn.items:
                if isinstance(item, str):
                    continue
                raw = item.raw
                if raw is None:
                    ops = tuple(resolve(fn.name, o) for o in item.operands)
                    instr = Instruction(item.opcode, ops, addr=offset, line=item.line)
                    raw = encode_instruction(instr)
                else:
                    instr = Instruction(
                        item.opcode, item.operands, addr=offset, line=item.line
                    )
                if item.line:
                    debug_lines[offset] = item.line
                chunks.append(raw)
                fn_instrs.append(instr)
                offset += item.size
            functions.append(FunctionInfo(fn.name, fn.module, start, end))
            decoded.append(fn_instrs)

        if entry not in func_addrs:
            raise AsmError(f"entry function {entry!r} not defined")

        program = Program(
            text=b"".join(chunks),
            entry=func_addrs[entry],
            functions=functions,
            data_image=list(self._data_image),
            globals=dict(self._globals),
            modules=list(self._modules) or ["main"],
            debug_lines=debug_lines,
            name=self.name,
        )
        build_cfg(program, decoded)
        return program


