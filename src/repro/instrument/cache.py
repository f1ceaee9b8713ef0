"""Content-addressed per-block instrumentation cache.

The BFS tests hundreds of configurations that differ in a handful of
instruction flags, yet the seed pipeline re-snippets and re-encodes every
basic block for each of them.  This module makes the marginal cost of
instrumenting a configuration proportional to the *delta* from previously
seen configurations: each basic block is compiled once per distinct
*(policy slice, mode flags)* into a relocatable :class:`BlockTemplate`,
and :meth:`InstrumentCache.instrument` merely lays the cached templates
out and patches their relocations.

Why per-block content addressing is sound
-----------------------------------------
A block's emitted code is a pure function of

* the block's own instruction sequence (fixed for the lifetime of the
  cache, which is bound to one original program),
* the policies of the block's own candidates (``_emit_instruction``
  resolves every candidate with ``policies.get(addr, Policy.DOUBLE)``),
* the mode switches ``(snippet_all, wrap_moves, plain)`` plus the
  configuration's live narrow width tuple (a program-global fact: guard
  chains in *every* block test one sentinel per live width, so it keys
  templates like a mode switch); whether a lean build elides the scratch
  save/restore is a fact of the program the cache is bound to,

because the width inference of lean builds (``block_widths``) is
strictly intra-block — its state is empty at block entry.  Label *names*
never reach the byte stream (a ``LabelRef`` encodes as a zeroed ``Imm``
slot resolved at layout time), so templates are position-independent
byte strings plus a relocation table.

Byte identity with an independent layout
----------------------------------------
Blocks are laid out in program order, and relocations write the same
8-byte little-endian immediates ``AsmBuilder.link`` resolves for a label,
so a cached build is byte-for-byte the program the assembler links from
the same ``_emit_instruction`` stream.  The test suite keeps that link as
its layout oracle (``tests/instrument/layout_oracle.py``), and
``tests/instrument/test_incremental_cache.py`` compares every field of
cached builds, and their statistics, with it.

The assembled :class:`Program` carries the tiling it was laid out from
(``Program.segments``), so the VM loads it from the templates'
instructions without decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.builder import LabelRef
from repro.binary.model import BasicBlock, FunctionInfo, Program
from repro.config.model import Policy
from repro.instrument.dataflow import block_widths
from repro.instrument.rewriter import _addr_label, _emit_instruction
from repro.instrument.snippets import DEFAULT_WIDTHS, UNDECIDED, SnippetStats
from repro.isa.encode import encode_canonical
from repro.isa.instruction import Instruction
from repro.isa.operands import (
    KIND_IMM, KIND_MEM, KIND_REG, KIND_XMM, Imm, Mem, Reg, Xmm,
)
from repro.isa.registers import SNIPPET_GPRS, SNIPPET_XMMS

_M64 = 0xFFFFFFFFFFFFFFFF

#: block templates an :class:`InstrumentCache` holds before it flushes
#: them wholesale (a crude epoch flush; see docs/PERFORMANCE.md).
TEMPLATE_CACHE_MAX = 65536

# Relocation kinds: template-relative, original-address label, function name.
_REL_LOCAL = 0
_REL_ADDR = 1
_REL_FUNC = 2


class _TemplateBuilder:
    """The builder ``_emit_instruction`` writes one block into.

    Records the emitted instruction stream and label marks; performs no
    layout.
    """

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list = []  # (opcode, operands, line) | label str

    def emit(self, opcode, *operands, line: int = 0) -> None:
        self.items.append((opcode, operands, line))

    def mark(self, label: str) -> None:
        self.items.append(label)


def _operand_width(operand) -> int:
    kind = operand.kind  # LabelRef reports KIND_IMM
    if kind == KIND_REG or kind == KIND_XMM:
        return 2
    if kind == KIND_IMM:
        return 9
    if kind == KIND_MEM:
        return 12
    raise ValueError(f"cannot lay out operand {operand!r}")


_ZERO = Imm(0)


def _scratch_registers_unused(program: Program) -> bool:
    """True if no instruction in *program* touches the snippet-reserved
    registers (R12/R13, X14/X15) — compiler output never does."""
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


def _zero_labels(operands: tuple, offset: int, labelled: list) -> tuple:
    """Replace each label operand of the instruction at *offset* with a
    zeroed ``Imm``, recording ``(payload position, label name)``."""
    out = []
    position = offset + 3
    for operand in operands:
        if operand.__class__ is LabelRef:
            labelled.append((position + 1, operand.name))
            out.append(_ZERO)
        else:
            out.append(operand)
        position += _operand_width(operand)
    return tuple(out)


@dataclass(slots=True)
class BlockTemplate:
    """One basic block, instrumented and encoded position-independently."""

    #: encoded block code with every label operand's payload zeroed
    code: bytes
    #: the instructions of ``code`` exactly as ``decode_instruction``
    #: returns them (template-relative addresses, zeroed label payloads)
    instrs: tuple
    #: (payload offset, kind, value) — 8-byte LE patches at assembly time
    relocs: tuple
    #: (original instruction address, template-relative offset)
    defs: tuple
    #: (template-relative offset, source line) for debug info
    lines: tuple
    #: this block's share of the instrumentation counters
    stats: SnippetStats


def build_block_template(
    block: BasicBlock,
    entry_names: dict[int, str],
    policies: dict[int, Policy],
    snippet_all: bool,
    wrap_moves: bool,
    plain: bool,
    streamline: bool,
    instr_pool: dict,
    widths: tuple = DEFAULT_WIDTHS,
) -> BlockTemplate:
    """Instrument one block into a relocatable template (a cache miss).

    A lean build (*plain* false) decides checks from the block's width
    state; *streamline* elides the scratch save/restore.

    *instr_pool* maps (encoding, template offset) to the decoded-form
    instruction first built for it.  Re-instrumenting a block under
    another policy slice reproduces most of its instructions at the same
    offsets, and those reuse the pooled objects: the cyclic collector
    then has fewer long-lived objects to track, and fewer of its full
    collections are triggered from inside template builds.
    """
    known: dict[int, dict[int, str]] = {}
    if snippet_all and not plain:
        block_widths(block.instructions, policies, known)

    builder = _TemplateBuilder()
    stats = SnippetStats()
    for instr in block.instructions:
        builder.mark(_addr_label(instr.addr))
        _emit_instruction(
            builder, instr, entry_names, policies, snippet_all, stats,
            known.get(instr.addr, UNDECIDED), wrap_moves, streamline,
            widths,
        )
    if stats.replaced_single + stats.wrapped_double:
        stats.blocks_split = 1

    # One pass: encode with label payloads zeroed, keep each instruction
    # in its decoded form, and note where labels are defined and used.
    label_off: dict[str, int] = {}
    labelled: list = []  # (payload position, label name)
    chunks: list[bytes] = []
    instrs: list = []
    lines: list = []
    offset = 0
    for item in builder.items:
        if isinstance(item, str):
            label_off[item] = offset
            continue
        opcode, operands, line = item
        if LabelRef in map(type, operands):
            operands = _zero_labels(operands, offset, labelled)
        raw, operands = encode_canonical(opcode, operands)
        key = (raw, offset)
        instr = instr_pool.get(key)
        if instr is None:
            instr = instr_pool[key] = Instruction(opcode, operands, offset)
        instrs.append(instr)
        if line:
            lines.append((offset, line))
        chunks.append(raw)
        offset += len(raw)

    relocs: list = []
    for position, name in labelled:
        local = label_off.get(name)
        if local is not None:
            relocs.append((position, _REL_LOCAL, local))
        elif name.startswith(".A"):
            relocs.append((position, _REL_ADDR, int(name[2:], 16)))
        else:
            relocs.append((position, _REL_FUNC, name))

    return BlockTemplate(
        code=b"".join(chunks),
        instrs=tuple(instrs),
        relocs=tuple(relocs),
        defs=tuple((instr.addr, label_off[_addr_label(instr.addr)])
                   for instr in block.instructions),
        lines=tuple(lines),
        stats=stats,
    )


@dataclass(slots=True)
class CachedRewrite:
    """Result of one cache-backed rewrite."""

    program: Program
    stats: SnippetStats
    block_hits: int
    block_misses: int


class InstrumentCache:
    """Per-program cache of instrumented block templates.

    Bound to one original :class:`Program`; :meth:`instrument` produces
    the mixed-precision executable for a policy map by assembling cached
    block templates, building only the templates whose policy slice has
    not been seen before.  Thread the same instance through every
    evaluation of a search (``repro.search.evaluator`` does); a call of
    :func:`~repro.instrument.engine.instrument` without one takes the
    instance its module-level FIFO holds for the program.
    """

    def __init__(self, program: Program) -> None:
        program.ensure_cfg()
        self.program = program
        self.hits = 0
        self.misses = 0
        self._templates: dict = {}
        self._instr_pool: dict = {}  # see build_block_template
        self._scratch_ok: bool | None = None

        self.entry_names = {fn.entry: fn.name for fn in program.functions}
        entry_name = self.entry_names.get(program.entry)
        if entry_name is None:
            raise ValueError("program entry is not a function entry")
        self.entry_name = entry_name

        # (function name, module, blocks, per-block candidate addresses)
        self._functions = [
            (
                fn.name,
                fn.module,
                fn.blocks,
                [
                    tuple(i.addr for i in block.instructions if i.is_candidate)
                    for block in fn.blocks
                ],
            )
            for fn in program.functions
        ]
        # Modules exactly as AsmBuilder.module() registers them: unique
        # function modules in first-appearance order.
        modules: list[str] = []
        for fn in program.functions:
            if fn.module not in modules:
                modules.append(fn.module)
        self._modules = modules or ["main"]

        # Reproduce the data section exactly as AsmBuilder.global_() lays
        # it out (per-symbol concatenation at unchanged addresses).
        image: list[int] = []
        for symbol in sorted(program.globals.values(), key=lambda s: s.addr):
            if symbol.addr != len(image):
                raise AssertionError("data layout drifted during rewrite")
            init = program.data_image[symbol.addr : symbol.addr + symbol.words]
            image.extend(c & _M64 for c in init)
        self._data_image = image
        self._globals = dict(program.globals)

    def scratch_registers_unused(self) -> bool:
        """Cached result of the scan that lets lean builds elide the
        scratch save/restore."""
        if self._scratch_ok is None:
            self._scratch_ok = _scratch_registers_unused(self.program)
        return self._scratch_ok

    def instrument(
        self,
        policies: dict[int, Policy],
        snippet_all: bool,
        wrap_moves: bool,
        plain: bool,
        widths: tuple = DEFAULT_WIDTHS,
    ) -> CachedRewrite:
        """Assemble the executable implementing *policies* (see class doc)."""
        streamline = not plain and self.scratch_registers_unused()
        variant = (snippet_all, wrap_moves, plain, widths)
        templates = self._templates
        hits = misses = 0

        # Pass 1: fetch or build each block's template; lay out addresses.
        func_addrs: dict[str, int] = {}
        placed: list = []       # (name, module, entry, end)
        order: list = []        # (template, base address)
        addr_map: dict[int, int] = {}  # original address -> new address
        offset = 0
        for name, module, blocks, candidate_lists in self._functions:
            func_addrs[name] = offset
            start = offset
            for block, candidates in zip(blocks, candidate_lists):
                key = (
                    variant,
                    block.start,
                    tuple(policies.get(a, Policy.DOUBLE) for a in candidates),
                )
                template = templates.get(key)
                if template is None:
                    misses += 1
                    template = build_block_template(
                        block, self.entry_names, policies, snippet_all,
                        wrap_moves, plain, streamline,
                        self._instr_pool, widths,
                    )
                    if len(templates) >= TEMPLATE_CACHE_MAX:
                        templates.clear()
                        self._instr_pool.clear()
                    templates[key] = template
                else:
                    hits += 1
                order.append((template, offset))
                for orig_addr, rel in template.defs:
                    addr_map[orig_addr] = offset + rel
                offset += len(template.code)
            placed.append((name, module, start, offset))

        # Pass 2: concatenate and patch relocations.
        buf = bytearray()
        for template, _base in order:
            buf += template.code
        debug_lines: dict[int, int] = {}
        stats = SnippetStats()
        for template, base in order:
            for position, kind, value in template.relocs:
                if kind == _REL_LOCAL:
                    target = base + value
                elif kind == _REL_ADDR:
                    target = addr_map[value]
                else:
                    target = func_addrs[value]
                p = base + position
                buf[p : p + 8] = target.to_bytes(8, "little")
            for rel, line in template.lines:
                debug_lines[base + rel] = line
            stats.merge(template.stats)

        new_program = Program(
            text=bytes(buf),
            entry=func_addrs[self.entry_name],
            functions=[
                FunctionInfo(name, module, entry, end)
                for name, module, entry, end in placed
            ],
            data_image=list(self._data_image),
            globals=dict(self._globals),
            modules=list(self._modules),
            debug_lines=debug_lines,
            name=self.program.name,
            segments=tuple(
                (template.code, template.instrs, base)
                for template, base in order
            ),
        )
        self.hits += hits
        self.misses += misses
        return CachedRewrite(
            program=new_program,
            stats=stats,
            block_hits=hits,
            block_misses=misses,
        )
