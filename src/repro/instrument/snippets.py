"""The snippet mini-compiler (paper Section 2.3, Figure 6).

For every replaced instruction the engine splices in a short sequence of
*real* virtual-ISA instructions that

1. copies any memory operand into a reserved scratch XMM register (the
   paper does the same "to avoid hard-to-find synchronization bugs or
   writing to unwritable memory");
2. for each floating-point input register: tests the high word against
   the replacement sentinels and, depending on the target precision,
   downcasts (narrow) or upcasts (double) the value **in place**;
3. runs the original instruction with its opcode switched to the
   configured precision;
4. re-establishes the sentinel in the result's high word where the
   hardware would not preserve it (fresh scalar destinations, and both
   lanes of packed outputs — the paper's "fix flags in any packed
   outputs").

Two forms
---------
The *plain* form is the paper's Figure 6: every operand is flag-tested,
and scratch state (R12/R13, X14/X15) is saved and restored around every
snippet with push/pop, exactly like the paper's ``push %rax / push %rbx``
prologue.  The *lean* form, the default build, applies both of the
paper's Section 2.5 proposals:

* an operand whose width the block already decides
  (:mod:`repro.instrument.dataflow`) loses its test and branch and keeps
  only the conversion the test would have chosen;
* the save/restore is elided wherever the program never touches the
  scratch registers, which is true of all compiler output.

Snippets clobber the condition flags; this is safe for compiler-generated
code, which never keeps flags live across a floating-point instruction
(the same assumption Dyninst-based tools make unless asked to save
EFLAGS).

Lattice widths
--------------
Every emitter takes the tuple of *live* narrow widths — the distinct
narrow precisions the configuration actually uses, in lattice order.
Each width carries its own sentinel (``f32`` ``0x7FF4DEAD``, ``bf16``
``0x7FF4BEEF``, ``f16`` ``0x7FF4FEED``), so guard chains compare the
high word against one sentinel per live width.  With a single live width
the chain degenerates to exactly the one-compare sequence the binary
f64->f32 pipeline has always emitted — byte for byte — which is what
keeps the 2-level lattice differential tests trivially green.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.asm.builder import LabelRef
from repro.config.model import Policy
from repro.fpbits.replace import REPLACED_FLAG, REPLACED_FLAG_SHIFTED, WIDTH_CODECS
from repro.isa.instruction import Instruction
from repro.isa.opcodes import NARROW_FAMILIES, Op, OPCODE_INFO
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.isa.registers import SNIPPET_GPRS, SNIPPET_XMMS

_LOW_MASK = 0xFFFFFFFF

#: width name -> (sentinel, sentinel << 32, CVTSD2<w>, CVT<w>2SD).
_WIDTH_OPS = {
    name: (WIDTH_CODECS[name][0], WIDTH_CODECS[name][0] << 32, down, up)
    for name, (_equiv, down, up) in NARROW_FAMILIES.items()
}

#: narrow policy flag -> width name, in lattice (descending-width) order.
POLICY_WIDTHS = {Policy.SINGLE: "f32", Policy.BF16: "bf16", Policy.HALF: "f16"}

#: the live-widths value of every binary (f64->f32) configuration.
DEFAULT_WIDTHS = ("f32",)

#: the decided width of a register whose every sentinel test falls
#: through (see :mod:`repro.instrument.dataflow`).
PLAIN = "f64"

#: the width state of a plain build: no register decided.
UNDECIDED = MappingProxyType({})


def live_widths(policies: dict) -> tuple[str, ...]:
    """The distinct narrow widths *policies* uses, in lattice order.

    Guard chains test one sentinel per live width, so a configuration
    that only ever narrows to f32 pays exactly the historical single
    compare.  Falls back to ``("f32",)`` when nothing is narrowed (the
    mode="all" overhead experiment still guards moves against the
    classic sentinel).
    """
    present = set(policies.values())
    found = tuple(
        width for policy, width in POLICY_WIDTHS.items() if policy in present
    )
    return found or DEFAULT_WIDTHS

_SCRATCH_GPR = SNIPPET_GPRS[0]       # R12
_SCRATCH_GPR2 = SNIPPET_GPRS[1]      # R13
_SCRATCH_XMM = SNIPPET_XMMS[1]       # X15: memory-operand copies
_SCRATCH_XMM2 = SNIPPET_XMMS[0]      # X14: packed lane conversions


class SnippetError(Exception):
    """The instruction cannot be safely snippeted (scratch conflicts, ...)."""


@dataclass(slots=True)
class SnippetStats:
    """Counters accumulated while instrumenting one program."""

    replaced_single: int = 0
    wrapped_double: int = 0
    ignored: int = 0
    copied: int = 0
    checks_emitted: int = 0
    checks_skipped: int = 0
    snippet_instructions: int = 0
    saves_elided: int = 0
    blocks_split: int = 0     # basic blocks that had at least one snippet spliced
    by_opcode: dict = field(default_factory=dict)

    def merge(self, other: "SnippetStats") -> None:
        """Accumulate *other* (e.g. one block's counters) into this object."""
        self.replaced_single += other.replaced_single
        self.wrapped_double += other.wrapped_double
        self.ignored += other.ignored
        self.copied += other.copied
        self.checks_emitted += other.checks_emitted
        self.checks_skipped += other.checks_skipped
        self.snippet_instructions += other.snippet_instructions
        self.saves_elided += other.saves_elided
        self.blocks_split += other.blocks_split
        for key, value in other.by_opcode.items():
            self.by_opcode[key] = self.by_opcode.get(key, 0) + value


class _Emitter:
    """Counts instructions emitted through the builder on behalf of snippets.

    A *builder* is anything with ``emit(opcode, *operands, line=)`` and
    ``mark(label)``: the block-template builder of
    :mod:`repro.instrument.cache`, or an :class:`~repro.asm.builder.AsmBuilder`.

    With *streamline* set (paper Section 2.5: "reduce the runtime overhead
    by streamlining the machine code that is emitted"), the scratch
    save/restore pushes are elided — legal only when the whole program
    provably never touches the snippet-reserved registers, which the
    instrumentation cache verifies statically before setting it.
    """

    def __init__(
        self,
        builder,
        stats: SnippetStats,
        streamline: bool = False,
        addr: int = 0,
    ) -> None:
        self.builder = builder
        self.stats = stats
        self.streamline = streamline
        self.addr = addr
        self._counter = 0

    def save(self, opcode: Op, operand, line: int) -> None:
        if not self.streamline:
            self.emit(opcode, operand, line=line)
        else:
            self.stats.saves_elided += 1

    def emit(self, opcode: Op, *operands, line: int = 0) -> None:
        self.builder.emit(opcode, *operands, line=line)
        self.stats.snippet_instructions += 1

    def mark(self, label: str) -> None:
        self.builder.mark(label)

    def fresh(self, stem: str) -> str:
        # Labels are scoped by the snippeted instruction's original
        # address: deterministic across re-emissions of the same site,
        # and unique within a function, so an AsmBuilder can link the
        # same emission a block template captures.  Names never reach
        # the byte stream.
        self._counter += 1
        return f".{stem}{self.addr:x}x{self._counter}"


def _check_conflicts(instr: Instruction) -> None:
    for operand in instr.operands:
        if isinstance(operand, Xmm) and operand.index in SNIPPET_XMMS:
            raise SnippetError(
                f"instruction at {instr.addr:#x} uses reserved XMM x{operand.index}"
            )
        if isinstance(operand, Reg) and operand.index in SNIPPET_GPRS:
            raise SnippetError(
                f"instruction at {instr.addr:#x} uses reserved GPR r{operand.index}"
            )
        if isinstance(operand, Mem):
            for reg in (operand.base, operand.index):
                if reg in SNIPPET_GPRS:
                    raise SnippetError(
                        f"memory operand at {instr.addr:#x} uses reserved GPR r{reg}"
                    )


def _fp_input_regs(instr: Instruction, mem_to_scratch: bool) -> list[int]:
    """XMM register indices holding FP inputs, deduplicated, in order.

    When *mem_to_scratch* is set, a memory FP input has already been copied
    to the scratch XMM and is represented by it.
    """
    info = OPCODE_INFO[instr.opcode]
    regs: list[int] = []
    for pos in info.fp_in:
        operand = instr.operands[pos]
        if isinstance(operand, Xmm):
            if operand.index not in regs:
                regs.append(operand.index)
        elif isinstance(operand, Mem):
            if not mem_to_scratch:
                raise SnippetError("memory FP input without scratch copy")
            if _SCRATCH_XMM not in regs:
                regs.append(_SCRATCH_XMM)
    return regs


def _rewrite_mem_operands(instr: Instruction) -> tuple:
    """Replace FP-input memory operands with the scratch XMM register."""
    info = OPCODE_INFO[instr.opcode]
    operands = list(instr.operands)
    for pos in info.fp_in:
        if isinstance(operands[pos], Mem):
            operands[pos] = Xmm(_SCRATCH_XMM)
    return tuple(operands)


def _mem_fp_input(instr: Instruction) -> Mem | None:
    info = OPCODE_INFO[instr.opcode]
    for pos in info.fp_in:
        if isinstance(instr.operands[pos], Mem):
            return instr.operands[pos]
    return None


def _emit_scalar_check_downcast(
    e: _Emitter, reg: int, line: int,
    width: str = "f32", widths: tuple = DEFAULT_WIDTHS,
) -> None:
    """Flag-test *reg*'s low lane; downcast in place if not yet at *width*.

    A slot already replaced at a *different* live width is first upcast
    back to double (through the f64 hub) before narrowing to *width*, so
    mixed-width data flow re-rounds exactly once per site.
    """
    skip = e.fresh("sk")
    x = Xmm(reg)
    r12 = Reg(_SCRATCH_GPR)
    e.emit(Op.MOVQRX, r12, x, line=line)
    e.emit(Op.SHR, r12, Imm(32), line=line)
    e.emit(Op.CMP, r12, Imm(_WIDTH_OPS[width][0]), line=line)
    e.emit(Op.JE, LabelRef(skip), line=line)
    for other in widths:
        if other == width:
            continue
        o_flag, _o_shifted, _o_down, o_up = _WIDTH_OPS[other]
        plain = e.fresh("sk")
        e.emit(Op.CMP, r12, Imm(o_flag), line=line)
        e.emit(Op.JNE, LabelRef(plain), line=line)
        e.emit(o_up, x, x, line=line)
        e.mark(plain)
    _emit_downcast(e, reg, line, width)
    e.mark(skip)
    e.stats.checks_emitted += 1


def _emit_downcast(e: _Emitter, reg: int, line: int, width: str) -> None:
    """Round *reg*'s low lane, a plain double, to *width* in place and set
    that width's sentinel in its high word."""
    x = Xmm(reg)
    r12 = Reg(_SCRATCH_GPR)
    _flag, flag_shifted, down, _up = _WIDTH_OPS[width]
    e.emit(down, x, x, line=line)
    e.emit(Op.MOVQRX, r12, x, line=line)
    e.emit(Op.AND, r12, Imm(_LOW_MASK), line=line)
    e.emit(Op.OR, r12, Imm(flag_shifted), line=line)
    e.emit(Op.MOVQXR, x, r12, line=line)


def _emit_decided_downcast(
    e: _Emitter, reg: int, line: int, width: str, known: str
) -> None:
    """What the downcast check emits for an operand whose width the block
    decides (*known*): nothing at *width*, else the downcast, after an
    upcast from another narrow width."""
    if known == width:
        return
    if known != PLAIN:
        e.emit(_WIDTH_OPS[known][3], Xmm(reg), Xmm(reg), line=line)
    _emit_downcast(e, reg, line, width)


def _emit_scalar_check_upcast(
    e: _Emitter, reg: int, line: int, widths: tuple = DEFAULT_WIDTHS
) -> None:
    """Flag-test *reg*'s low lane; upcast in place if it was replaced."""
    skip = e.fresh("sk")
    x = Xmm(reg)
    r12 = Reg(_SCRATCH_GPR)
    e.emit(Op.MOVQRX, r12, x, line=line)
    e.emit(Op.SHR, r12, Imm(32), line=line)
    for pos, width in enumerate(widths):
        flag, _shifted, _down, up = _WIDTH_OPS[width]
        last = pos == len(widths) - 1
        miss = skip if last else e.fresh("sk")
        e.emit(Op.CMP, r12, Imm(flag), line=line)
        e.emit(Op.JNE, LabelRef(miss), line=line)
        e.emit(up, x, x, line=line)
        if not last:
            e.emit(Op.JMP, LabelRef(skip), line=line)
            e.mark(miss)
    e.mark(skip)
    e.stats.checks_emitted += 1


def _emit_scalar_flag_set(
    e: _Emitter, reg: int, line: int, width: str = "f32"
) -> None:
    """Force the sentinel into *reg*'s low lane high word (fresh results)."""
    x = Xmm(reg)
    r12 = Reg(_SCRATCH_GPR)
    e.emit(Op.MOVQRX, r12, x, line=line)
    e.emit(Op.AND, r12, Imm(_LOW_MASK), line=line)
    e.emit(Op.OR, r12, Imm(_WIDTH_OPS[width][1]), line=line)
    e.emit(Op.MOVQXR, x, r12, line=line)


def _emit_packed_check_downcast(
    e: _Emitter, reg: int, lane: int, line: int,
    widths: tuple = DEFAULT_WIDTHS,
) -> None:
    # Packed candidates only narrow to f32 (the 16-bit families have no
    # packed members), but a lane may still *hold* a 16-bit-replaced
    # value left by an earlier scalar site — rehydrate it first.
    skip = e.fresh("pk")
    x = Xmm(reg)
    x14 = Xmm(_SCRATCH_XMM2)
    r12 = Reg(_SCRATCH_GPR)
    r13 = Reg(_SCRATCH_GPR2)
    e.emit(Op.PEXTR, r12, x, Imm(lane), line=line)
    e.emit(Op.MOV, r13, r12, line=line)
    e.emit(Op.SHR, r13, Imm(32), line=line)
    e.emit(Op.CMP, r13, Imm(REPLACED_FLAG), line=line)
    e.emit(Op.JE, LabelRef(skip), line=line)
    for other in widths:
        if other == "f32":
            continue
        o_flag, _o_shifted, _o_down, o_up = _WIDTH_OPS[other]
        plain = e.fresh("pk")
        e.emit(Op.CMP, r13, Imm(o_flag), line=line)
        e.emit(Op.JNE, LabelRef(plain), line=line)
        e.emit(Op.MOVQXR, x14, r12, line=line)
        e.emit(o_up, x14, x14, line=line)
        e.emit(Op.MOVQRX, r12, x14, line=line)
        e.mark(plain)
    e.emit(Op.MOVQXR, x14, r12, line=line)
    e.emit(Op.CVTSD2SS, x14, x14, line=line)
    e.emit(Op.MOVQRX, r12, x14, line=line)
    e.emit(Op.AND, r12, Imm(_LOW_MASK), line=line)
    e.emit(Op.OR, r12, Imm(REPLACED_FLAG_SHIFTED), line=line)
    e.emit(Op.PINSR, x, r12, Imm(lane), line=line)
    e.mark(skip)
    e.stats.checks_emitted += 1


def _emit_packed_check_upcast(
    e: _Emitter, reg: int, lane: int, line: int,
    widths: tuple = DEFAULT_WIDTHS,
) -> None:
    skip = e.fresh("pk")
    x = Xmm(reg)
    x14 = Xmm(_SCRATCH_XMM2)
    r12 = Reg(_SCRATCH_GPR)
    r13 = Reg(_SCRATCH_GPR2)
    e.emit(Op.PEXTR, r12, x, Imm(lane), line=line)
    e.emit(Op.MOV, r13, r12, line=line)
    e.emit(Op.SHR, r13, Imm(32), line=line)
    for pos, width in enumerate(widths):
        flag, _shifted, _down, up = _WIDTH_OPS[width]
        last = pos == len(widths) - 1
        miss = skip if last else e.fresh("pk")
        e.emit(Op.CMP, r13, Imm(flag), line=line)
        e.emit(Op.JNE, LabelRef(miss), line=line)
        e.emit(Op.MOVQXR, x14, r12, line=line)
        e.emit(up, x14, x14, line=line)
        e.emit(Op.MOVQRX, r12, x14, line=line)
        e.emit(Op.PINSR, x, r12, Imm(lane), line=line)
        if not last:
            e.emit(Op.JMP, LabelRef(skip), line=line)
            e.mark(miss)
    e.mark(skip)
    e.stats.checks_emitted += 1


def _emit_packed_flag_fix(e: _Emitter, reg: int, line: int) -> None:
    """Restore the sentinel in both lanes of a packed-single result."""
    x = Xmm(reg)
    r12 = Reg(_SCRATCH_GPR)
    for lane in (0, 1):
        e.emit(Op.PEXTR, r12, x, Imm(lane), line=line)
        e.emit(Op.AND, r12, Imm(_LOW_MASK), line=line)
        e.emit(Op.OR, r12, Imm(REPLACED_FLAG_SHIFTED), line=line)
        e.emit(Op.PINSR, x, r12, Imm(lane), line=line)


def emit_single_snippet(
    builder,
    instr: Instruction,
    stats: SnippetStats,
    known: Mapping[int, str] = UNDECIDED,
    streamline: bool = False,
    width: str = "f32",
    widths: tuple = DEFAULT_WIDTHS,
) -> None:
    """Emit the narrow replacement of *instr* at *width* (paper Figure 6).

    ``width="f32"`` is the paper's single-precision snippet; ``bf16`` /
    ``f16`` swap in that family's equivalent opcode and sentinel.
    *widths* lists every narrow width live in the configuration so the
    input guards can rehydrate values replaced at sibling widths.
    *known* maps XMM registers to the width the block decides for them
    (lean builds); those inputs skip the test.
    """
    _check_conflicts(instr)
    e = _Emitter(builder, stats, streamline, instr.addr)
    info = OPCODE_INFO[instr.opcode]
    line = instr.line
    packed = info.packed
    mem = _mem_fp_input(instr)

    narrow_equiv = NARROW_FAMILIES[width][0].get(instr.opcode)
    if narrow_equiv is None:
        raise SnippetError(
            f"instruction at {instr.addr:#x} ({info.mnemonic}) has no "
            f"{width} equivalent"
        )

    if mem is not None:
        e.save(Op.PUSHX, Xmm(_SCRATCH_XMM), line)
        load = Op.MOVAPD if packed else Op.MOVSD
        e.emit(load, Xmm(_SCRATCH_XMM), mem, line=line)
    e.save(Op.PUSH, Reg(_SCRATCH_GPR), line)
    if packed:
        e.save(Op.PUSH, Reg(_SCRATCH_GPR2), line)
        e.save(Op.PUSHX, Xmm(_SCRATCH_XMM2), line)

    checked = _fp_input_regs(instr, mem_to_scratch=True)
    for reg in checked:
        decided = None if reg == _SCRATCH_XMM else known.get(reg)
        if packed:
            _emit_packed_check_downcast(e, reg, 0, line, widths)
            _emit_packed_check_downcast(e, reg, 1, line, widths)
        elif decided is None:
            _emit_scalar_check_downcast(e, reg, line, width, widths)
        else:
            _emit_decided_downcast(e, reg, line, width, decided)
            stats.checks_skipped += 1

    new_operands = _rewrite_mem_operands(instr)
    e.emit(narrow_equiv, *new_operands, line=line)

    # Fix result flags where the hardware does not preserve the sentinel.
    if info.fp_out:
        dst = instr.operands[info.fp_out[0]]
        assert isinstance(dst, Xmm)
        if packed:
            _emit_packed_flag_fix(e, dst.index, line)
        elif dst.index not in checked:
            _emit_scalar_flag_set(e, dst.index, line, width)

    if packed:
        e.save(Op.POPX, Xmm(_SCRATCH_XMM2), line)
        e.save(Op.POP, Reg(_SCRATCH_GPR2), line)
    e.save(Op.POP, Reg(_SCRATCH_GPR), line)
    if mem is not None:
        e.save(Op.POPX, Xmm(_SCRATCH_XMM), line)

    stats.replaced_single += 1
    key = info.mnemonic
    stats.by_opcode[key] = stats.by_opcode.get(key, 0) + 1


def emit_move_guard(
    builder,
    instr: Instruction,
    stats: SnippetStats,
    streamline: bool = False,
) -> None:
    """Guard a floating-point *move* with a flag check (base-case mode).

    The paper's overhead experiment "replaces all instructions with
    double-precision snippets", data movement included.  A move needs no
    conversion — a replaced slot is copied verbatim — so the snippet is
    the flag test alone on the moved value; with nothing replaced (the
    base case) the check always falls through and the program's results
    are bit-for-bit unchanged.
    """
    _check_conflicts(instr)
    e = _Emitter(builder, stats, streamline, instr.addr)
    line = instr.line
    e.emit(instr.opcode, *instr.operands, line=line)
    # Check the register side of the move (destination for loads and
    # register moves, source for stores).
    dst = instr.operands[0]
    if not isinstance(dst, Xmm):
        dst = instr.operands[1]
    if not isinstance(dst, Xmm):
        stats.wrapped_double += 1
        return
    skip = e.fresh("mg")
    r12 = Reg(_SCRATCH_GPR)
    e.save(Op.PUSH, r12, line)
    e.emit(Op.MOVQRX, r12, dst, line=line)
    e.emit(Op.SHR, r12, Imm(32), line=line)
    e.emit(Op.CMP, r12, Imm(REPLACED_FLAG), line=line)
    e.emit(Op.JNE, LabelRef(skip), line=line)
    e.mark(skip)
    e.save(Op.POP, r12, line)
    stats.wrapped_double += 1
    stats.checks_emitted += 1


def emit_double_snippet(
    builder,
    instr: Instruction,
    stats: SnippetStats,
    known: Mapping[int, str] = UNDECIDED,
    streamline: bool = False,
    widths: tuple = DEFAULT_WIDTHS,
) -> None:
    """Emit the double-precision guard around *instr*.

    The instruction itself is unchanged, but every floating-point input is
    flag-tested and upcast in place if some earlier replaced instruction
    left a narrow value there.  *known* maps XMM registers to the width
    the block decides for them (lean builds, the paper's Section 2.5
    data-flow optimization): a plain input needs nothing, and one flagged
    at a narrow width is upcast without a test.
    """
    _check_conflicts(instr)
    e = _Emitter(builder, stats, streamline, instr.addr)
    info = OPCODE_INFO[instr.opcode]
    line = instr.line
    packed = info.packed
    mem = _mem_fp_input(instr)

    checked = _fp_input_regs(instr, mem_to_scratch=mem is not None)
    decided = {} if packed else {
        reg: known[reg] for reg in checked
        if reg in known and reg != _SCRATCH_XMM
    }
    stats.checks_skipped += len(decided)

    if all(decided.get(reg) == PLAIN for reg in checked) and mem is None:
        # Nothing to guard: emit the instruction bare.
        e.emit(instr.opcode, *instr.operands, line=line)
        stats.wrapped_double += 1
        return

    if mem is not None:
        e.save(Op.PUSHX, Xmm(_SCRATCH_XMM), line)
        load = Op.MOVAPD if packed else Op.MOVSD
        e.emit(load, Xmm(_SCRATCH_XMM), mem, line=line)
    e.save(Op.PUSH, Reg(_SCRATCH_GPR), line)
    if packed:
        e.save(Op.PUSH, Reg(_SCRATCH_GPR2), line)
        e.save(Op.PUSHX, Xmm(_SCRATCH_XMM2), line)

    for reg in checked:
        if packed:
            _emit_packed_check_upcast(e, reg, 0, line, widths)
            _emit_packed_check_upcast(e, reg, 1, line, widths)
        elif reg not in decided:
            _emit_scalar_check_upcast(e, reg, line, widths)
        elif decided[reg] != PLAIN:
            e.emit(_WIDTH_OPS[decided[reg]][3], Xmm(reg), Xmm(reg), line=line)

    e.emit(instr.opcode, *_rewrite_mem_operands(instr), line=line)

    if packed:
        e.save(Op.POPX, Xmm(_SCRATCH_XMM2), line)
        e.save(Op.POP, Reg(_SCRATCH_GPR2), line)
    e.save(Op.POP, Reg(_SCRATCH_GPR), line)
    if mem is not None:
        e.save(Op.POPX, Xmm(_SCRATCH_XMM), line)

    stats.wrapped_double += 1
