"""Segment specialization: fused superinstruction closures.

The per-instruction interpreter (:mod:`repro.vm.machine`) pays one
Python call per executed instruction.  This module compiles each
straight-line *run* of a segment — a maximal sequence of non-control
instructions, optionally closed by its branch/call/ret terminator — into
ONE generated Python function that executes the whole run with operand
registers, addresses, immediates and per-instruction cycle costs folded
into its source as literals.  Common pairs (load+op, op+store,
cmp+branch) thereby execute inside a single frame; the cmp+branch pair
in particular turns a tight loop's body+test+back-edge into one call per
iteration.

A run continues across a forward conditional branch — a *diamond* —
whose target (the *join*) lies in the same segment, is targeted by no
other transfer, and is reached over at most :data:`MAX_ARM` members
with no compare, HALT or branch target among them (the *arm*): the
paper's Figure 6 check, ``movqrx; shr; cmp; je skip`` over a
five-instruction downcast, thereby stays inside the run of its block,
which is emitted as ``if <taken>: <repay the arm> else: <arm>``.  A
counting VM folds nothing (see below).

The generated code is specialized three ways:

* **register promotion** — a ``gpr``/``xl`` cell that two or more
  members touch lives in a Python local for the whole run: loaded once,
  after the budget check, if the run reads it before writing it or
  first writes it inside an arm (so the taken path reads a defined
  local), and written back once on every exit;
* **flag liveness** — :func:`flag_liveness` computes, over the control
  flow of the segment being scanned (one block template, or the whole
  program when it loads without templates), which flags some successor
  of each run's exit may read.  Every compare computes, as locals, the
  flags the branches it feeds test (folded ones and the terminator);
  the run's last compare also computes the exit-live ones and stores
  them, and no other compare stores anything;
* **inlined codecs** — scalar add/sub/mul, the single<->double
  conversions and the scalar compares decode their operands through
  :mod:`repro.fpbits.ieee`'s own ``struct.Struct`` methods instead of
  calling its helpers, and so does every binary64 encode.  Rounding to
  binary32 stays one ``single_to_bits`` call (its overflow rule lives
  there); division, min/max, square roots, transcendentals, packed lanes
  and the 16-bit widths keep their helpers.  f32, bf16 and f16 share one
  emitter branch, which takes each width's mask, decode and encode
  source from its record (:data:`repro.vm.fpops.FPN_CODEC`): binary32
  decodes inline, the 16-bit widths call their decoder.

Parity contract (asserted by tests/vm/test_fused_parity.py,
tests/vm/test_fused_generative.py and the differential suites): a fused
run is bit-identical and cycle-identical to the per-instruction loop on
registers, memory, outputs, cycles, steps and traps, and its flags are
exact wherever a conditional jump can read them —

* every normal exit writes the dirty promoted cells back.  A fault —
  a memory or stack guard, a ``ret`` to a non-instruction address,
  integer division by zero — and HALT leave ``gpr``/``xl``/``xh``
  exactly as the reference loop leaves them: guards raise
  :class:`FusedTrap` into one shared handler per run, which writes back
  the cells written before the faulting member, keyed by its relative
  index; HALT and division by zero write theirs back inline;
* a flag outside the run's exit mask is neither computed nor stored, so
  ``VM.flags`` may differ from the reference after a run only in flags
  that every path overwrites before reading (docs/ISA.md: flags are
  observable only through conditional jumps).  The analysis is
  conservative: after a CALL or RET, at a branch target it cannot
  resolve inside the segment and on every edge leaving the segment all
  flags are live; after HALT or a fault none are;
* cycles are accumulated as one constant-folded ``cyc[0] += TOTAL`` on
  fall-through; every fault charges exactly the partial sum of the
  instructions *before* the faulting one (the reference closures charge
  cost after the trap check);
* the step budget is tracked in a steps-left cell ``sl``: a run of K
  instructions decrements by K up front and every early exit adds back
  the unexecuted suffix, so ``steps`` accounting is exact to the
  instruction;
* a run whose remaining budget is smaller than K deoptimizes: the
  generated function hands control to the VM's single-step tail, which
  executes the reference closures one by one until the budget expires
  (or a trap/halt/yield wins the race) — byte-identical to the
  reference loop's timeout behaviour;
* memory/stack faults raise :class:`FusedTrap` carrying the *relative*
  index of the faulting instruction; the VM stamps the absolute text
  address on, producing the same message the reference loop produces.
  Integer division by zero raises a plain address-less ``VmTrap``,
  exactly like the reference helpers;
* a folded branch counts in K, in the fall-through total and in the
  partial sums as though its arm ran: the longer path is debited.  Its
  taken path repays the arm's length to ``sl`` and charges the cost
  model's taken extra less the arm's cycles, both constants, before the
  join; so a fault after the join, on either path, charges and repays
  what the reference charges.  Relative indices stay linear: a fault
  inside an arm, which only the path through the arm reaches, keeps the
  one handler and its partial-cycle tuple exact;
* a fold's arm length is baked into its factory, which is exact at
  every placement of a segment because intra-segment branches are
  template-relative (original branches target block starts, which
  start segments) and a whole-program segment serves one load.

Execution counting is not generated into runs: a counting VM wraps
each run head at load time, and the exits above tell the wrapper which
members ran (see ``VM._install_counters``).  That wrapper charges a
completed entry to every member of its run, so a counting VM scans its
segments without folding.

Generated factories are position- and VM-independent: branch targets,
return addresses, MPI identity and the state arrays are passed as
factory arguments, so one compiled factory (keyed by the run's
*unpatched template bytes* — a folded branch's without its target —,
its fold shape, the cost model and, for a run that writes flags, its
exit mask) is shared across every program, configuration and Machine
in the process.
"""

from __future__ import annotations

from repro.fpbits import ieee
from repro.isa.opcodes import Op, OPCODE_INFO, RED_MAX, RED_MIN, RED_SUM
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.vm.errors import VmTrap
from repro.vm.fpops import (
    F32_FORM,
    FPD_BIN,
    FPD_UN,
    FPN_BIN,
    FPN_CODEC,
    FPN_UN,
    HELPERS,
    PD_BIN,
    PS_BIN,
)

_M64 = 0xFFFFFFFFFFFFFFFF
_M32 = 0xFFFFFFFF
_HI32 = 0xFFFFFFFF00000000
_SIGN64 = 1 << 63
_INT_INDEFINITE = 0x8000000000000000
_XORSHIFT_MULT = 2685821657736338717


class FusedTrap(VmTrap):
    """Execution fault raised inside a fused run.

    Carries the untouched core message plus the *relative* index of the
    faulting instruction within the run; :meth:`VM.resume` stamps the
    absolute text address before the trap escapes."""

    def __init__(self, message: str, rel: int) -> None:
        super().__init__(message)
        self.core = message
        self.rel = rel


class Unfusable(Exception):
    """Internal: this instruction has no fused template."""


def _s64(v: int) -> int:
    return v - 0x10000000000000000 if v & _SIGN64 else v


def _oob(access: str, a: int, rel: int) -> FusedTrap:
    """The reference loop's bounds fault for *access* at address *a*.
    Guards call this rather than format an f-string inline, which keeps
    each factory's compile() cost down."""
    return FusedTrap(f"{access} out of bounds: {a}", rel)


#: globals handed to every exec'd factory — the same helpers the
#: reference closures call, bound once, plus the bound ``pack``/
#: ``unpack`` methods of ieee's own ``struct.Struct`` codecs for the
#: inlined decodes and encodes (``_pq``/``_uq``: ``<Q``, ``_pd``/``_ud``:
#: ``<d``, ``_pi``: ``<I``, ``_uf``: ``<f``).
_EXEC_GLOBALS = {
    "__builtins__": {"abs": abs, "float": float, "int": int, "len": len},
    "_M64": _M64,
    "_M32": _M32,
    "_HI32": _HI32,
    "_INT_INDEFINITE": _INT_INDEFINITE,
    "_XORSHIFT_MULT": _XORSHIFT_MULT,
    "_s64": _s64,
    "_FT": FusedTrap,
    "_oob": _oob,
    "VmTrap": VmTrap,
    "single_to_bits": ieee.single_to_bits,
    "_pq": ieee._PACK_Q.pack,
    "_uq": ieee._PACK_Q.unpack,
    "_pd": ieee._PACK_D.pack,
    "_ud": ieee._PACK_D.unpack,
    "_pi": ieee._PACK_I.pack,
    "_uf": ieee._PACK_F.unpack,
}
_EXEC_GLOBALS.update(HELPERS)


def _dec64(v: str) -> str:
    """Inlined ``bits_to_double(v)``."""
    return f"_ud(_pq({v} & _M64))[0]"


def _enc64(f: str) -> str:
    """Inlined ``double_to_bits(f)``."""
    return f"_uq(_pd({f}))[0]"


def _dec32(v: str) -> str:
    """Inlined ``bits_to_single(v)``."""
    return f"_uf(_pi({v} & _M32))[0]"


def _narrow_source(fmt) -> tuple:
    """(mask, decode, encode) source of a width below f64: its pattern
    mask, a function from an expression to its decoded value, and its
    encoder's name.  binary32 decodes inline, like binary64; the 16-bit
    widths call their decoder."""
    if fmt is ieee.F32:
        return "_M32", _dec32, fmt.encode.__name__
    mask = f"0x{fmt.mask:X}"
    name = fmt.decode.__name__
    return mask, lambda v: f"{name}({v} & {mask})", fmt.encode.__name__


#: narrow opcode -> its width's (mask, decode, encode) source.
_NARROW_SOURCE = {op: _narrow_source(fmt) for op, fmt in FPN_CODEC.items()}


#: scalar ops whose codecs are inlined: the operator applied between the
#: decoded operands (the helper computes exactly this in binary64).  A NaN
#: result is re-derived by the helper itself: when both operands are NaN,
#: which payload CPython's float arithmetic propagates depends on whether
#: the calling code object has specialized the operation yet, so only
#: the reference's own code may pick it.
_FP_INLINE = {
    Op.ADDSD: "+", Op.SUBSD: "-", Op.MULSD: "*",
    Op.ADDSS: "+", Op.SUBSS: "-", Op.MULSS: "*",
}
_INT_BIN_EXPR = {
    Op.ADD: "({d} + {s}) & _M64",
    Op.SUB: "({d} - {s}) & _M64",
    Op.IMUL: "({d} * {s}) & _M64",
    Op.AND: "{d} & {s}",
    Op.OR: "{d} | {s}",
    Op.XOR: "{d} ^ {s}",
    Op.SHL: "({d} << ({s} & 63)) & _M64",
    Op.SHR: "{d} >> ({s} & 63)",
    Op.SAR: "(_s64({d}) >> ({s} & 63)) & _M64",
}

# -- flag liveness -----------------------------------------------------------

#: flag bits: ``flags[0]`` (zf), ``flags[1]`` (lt), ``flags[2]`` (unord).
_ZF, _LT, _PF = 1, 2, 4
_ALL_FLAGS = _ZF | _LT | _PF

#: conditional branch -> (flags it reads, its test over flag expressions).
_COND = {
    Op.JE: (_ZF, "{z}"),
    Op.JNE: (_ZF, "not {z}"),
    Op.JL: (_LT, "{l}"),
    Op.JLE: (_LT | _ZF, "{l} or {z}"),
    Op.JG: (_ALL_FLAGS, "not ({l} or {z} or {p})"),
    Op.JGE: (_LT | _PF, "not {l} and not {p}"),
    Op.JP: (_PF, "{p}"),
    Op.JNP: (_PF, "not {p}"),
}

#: the compares; each writes all three flags.
_FLAG_WRITERS = frozenset(
    op for op, info in OPCODE_INFO.items() if info.writes_flags
)

#: liveness transfer class per opcode (absent: passes flags through):
#: 1 compare (kills every flag), 2 HALT (nothing is live after it),
#: 3 CALL/RET (everything is), 4 JMP, 5 conditional branch.
_FLOW = dict.fromkeys(_FLAG_WRITERS, 1)
_FLOW.update({Op.HALT: 2, Op.CALL: 3, Op.RET: 3, Op.JMP: 4})
_FLOW.update(dict.fromkeys(_COND, 5))


def flag_liveness(instrs, lo: int, hi: int, targets: dict) -> list[int] | None:
    """Flags live after each instruction of the span ``[lo, hi)``; None
    when the span has no compare, since then no run needs a mask.

    Entry ``r`` is the mask (``_ZF | _LT | _PF``) of the flags that some
    path leaving ``instrs[lo + r]`` may read before a compare rewrites
    them.  *targets* maps the index of each JMP/jcc whose target lies in
    the span to that target's index; any other branch target, like a
    fall-through off the span's end, counts as leaving the span.  The
    analysis is conservative wherever the span cannot see what follows:
    after a CALL, a RET and on every edge leaving the span all flags are
    live.  After HALT none are (and after a trap none are either: no
    normal exit follows it).
    """
    if _FLAG_WRITERS.isdisjoint([instrs[i].opcode for i in range(lo, hi)]):
        return None
    n = hi - lo
    flow = _FLOW
    kind = [0] * n
    tgt = [n] * n  # span-relative target; n is the span exit
    reads = [0] * n
    for r in range(n):
        k = flow.get(instrs[lo + r].opcode, 0)
        if k:
            kind[r] = k
            if k >= 4:
                t = targets.get(lo + r)
                if t is not None and lo <= t < hi:
                    tgt[r] = t - lo
                if k == 5:
                    reads[r] = _COND[instrs[lo + r].opcode][0]
    live = [0] * n + [_ALL_FLAGS]  # live before each instruction
    changed = True
    while changed:  # backward sweeps to the fixpoint (back edges)
        changed = False
        after = _ALL_FLAGS
        for r in range(n - 1, -1, -1):
            k = kind[r]
            if k == 0:
                v = after
            elif k <= 2:
                v = 0
            elif k == 3:
                v = _ALL_FLAGS
            elif k == 4:
                v = live[tgt[r]]
            else:
                v = reads[r] | after | live[tgt[r]]
            if v != live[r]:
                live[r] = v
                changed = True
            after = v
    out = live[1:]  # plain instructions and compares fall through
    for r in range(n):
        k = kind[r]
        if k == 2:
            out[r] = 0
        elif k == 3:
            out[r] = _ALL_FLAGS
        elif k == 4:
            out[r] = live[tgt[r]]
        elif k == 5:
            out[r] |= live[tgt[r]]
    return out


# -- code generation ---------------------------------------------------------

#: instructions that read and write ``gpr[15]`` implicitly.
_STACK_OPS = frozenset((Op.PUSH, Op.POP, Op.PUSHX, Op.POPX, Op.CALL, Op.RET))


def _promoted(instrs, start: int, end: int) -> frozenset:
    """Cells that two or more of ``instrs[start:end]`` touch.

    A cell is named like the local that holds it: ``g3`` for ``gpr[3]``,
    ``x5`` for ``xl[5]``.  Named operands over-approximate what the
    emitter touches (a lane-1 ``pextr`` reads only ``xh``), which costs
    nothing: a promoted cell the run never accesses emits no code.
    """
    seen: set = set()
    twice: set = set()
    for i in range(start, end):
        instr = instrs[i]
        cells = set()
        for o in instr.operands:
            if isinstance(o, Reg):
                cells.add(f"g{o.index}")
            elif isinstance(o, Xmm):
                cells.add(f"x{o.index}")
            elif isinstance(o, Mem):
                if o.base is not None:
                    cells.add(f"g{o.base}")
                if o.index is not None:
                    cells.add(f"g{o.index}")
        if instr.opcode in _STACK_OPS:
            cells.add("g15")
        twice |= cells & seen
        seen |= cells
    return frozenset(twice)


class _RunEmitter:
    """Accumulates the generated source of one fused run of ``k``
    instructions.

    ``j`` is the relative index of the instruction being emitted and
    ``cycles`` the cost of the members before it, in layout order, arms
    included.  Bodies reach the
    registers through :meth:`g`/:meth:`x` (reads, which must come before
    the same member's writes) and :meth:`set_g`/:meth:`set_x` (write
    targets).  A *promoted* cell is a local named like the cell, loaded
    before the body when its first access is a read or a write inside a
    folded arm; any other cell is
    accessed in its list.  ``spills`` maps each written promoted cell to
    its write-back statement and the smallest relative index whose fault
    must perform it.  ``need`` maps each compare to the flags it
    computes: those the branches it feeds test and, for ``writer``, the
    run's last compare, the ``mask`` ones it stores.
    """

    def __init__(
        self, size: int, k: int, promoted, writer: int, mask: int, need: dict
    ) -> None:
        self.size = size
        self.k = k
        self.promoted = promoted
        self.writer = writer
        self.mask = mask
        self.need = need
        self.lines: list[str] = []
        self.j = 0
        self.cycles = 0  # partial sum: cost of instructions < j
        self.partial: list[int] = []  # cycles charged by a fault at each j
        self.halted = False  # a HALT was emitted; run falls through no more
        self.loads: list[str] = []
        self.defined: set = set()
        self.spills: dict = {}
        self.trap_rels: list[int] = []  # j of every FusedTrap site
        self.targets = 0  # factory target slots the exit reads
        #: the flags a branch tests: the latest compare's locals, or the
        #: flag cells before the run's first compare
        self.flag_exprs = ("flags[0]", "flags[1]", "flags[2]")
        #: the open arm of a folded branch: where its lines start and
        #: the relative index of its join; -1 when none is open
        self.arm_at = 0
        self.join = -1

    # -- plumbing ---------------------------------------------------------

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def guard(self, cond: str, fault: str, arg: str) -> None:
        """Fault if *cond*: raise ``fault(arg, j)``, a :class:`FusedTrap`.
        The run's shared handler charges the partial cycles, repays the
        unexecuted suffix to the budget and spills the cells written so
        far."""
        self.trap_rels.append(self.j)
        self.emit(f"if {cond}:", f"    raise {fault}({arg}, {self.j})")

    def fault_inline(self, raise_stmt: str, extra_cycles: int = 0) -> list[str]:
        """A fault exit that bypasses the handler (HALT, division by
        zero): spill, charge, repay the budget, raise."""
        out = [stmt for stmt, _first in self.spills.values()]
        charge = self.cycles + extra_cycles
        if charge:
            out.append(f"cyc[0] += {charge}")
        left = self.k - self.j - 1
        if left:
            out.append(f"sl[0] += {left}")
        out.append(raise_stmt)
        return out

    def _get(self, cell: str, arr: str, i: int) -> str:
        if cell not in self.promoted:
            return f"{arr}[{i}]"
        if cell not in self.defined:
            self.defined.add(cell)
            self.loads.append(f"{cell} = {arr}[{i}]")
        return cell

    def _set(self, cell: str, arr: str, i: int, early: bool) -> str:
        if cell not in self.promoted:
            return f"{arr}[{i}]"
        if cell not in self.defined and self.join >= 0:
            # First written inside an arm: the taken path skips the
            # write, so the local starts from the cell.
            self.loads.append(f"{cell} = {arr}[{i}]")
        self.defined.add(cell)
        if cell not in self.spills:
            # A fault at this member itself spills the cell only if the
            # write precedes the member's own check (*early*).
            self.spills[cell] = (f"{arr}[{i}] = {cell}", self.j + (not early))
        return cell

    def g(self, i: int) -> str:
        return self._get(f"g{i}", "gpr", i)

    def x(self, i: int) -> str:
        return self._get(f"x{i}", "xl", i)

    def set_g(self, i: int, early: bool = False) -> str:
        return self._set(f"g{i}", "gpr", i, early)

    def set_x(self, i: int) -> str:
        return self._set(f"x{i}", "xl", i, False)

    def once(self, expr: str, name: str) -> str:
        """*expr* as a name: list reads are bound to *name* first."""
        if "[" not in expr:
            return expr
        self.emit(f"{name} = {expr}")
        return name

    # -- operand fragments ------------------------------------------------

    def addr(self, m: Mem) -> str:
        parts = []
        if m.base is not None:
            parts.append(self.g(m.base))
        if m.index is not None:
            index = self.g(m.index)
            parts.append(f"{index} * {m.scale}" if m.scale != 1 else index)
        if m.disp or not parts:
            parts.append(str(m.disp))
        return " + ".join(parts)

    def read64(self, m: Mem) -> str:
        """Emit the bounds check of a read of *m*; returns the cell."""
        a = f"a{self.j}"
        self.emit(f"{a} = {self.addr(m)}")
        self.guard(f"not 0 <= {a} < top", "_oob", f'"memory read", {a}')
        return f"mem[{a}]"

    def store_addr(self, m: Mem, width: int = 1) -> str:
        """Emit the address and bounds check of a *width*-cell write."""
        a = f"w{self.j}"
        self.emit(f"{a} = {self.addr(m)}")
        if width == 1:
            self.guard(f"not 0 <= {a} < top", "_oob", f'"memory write", {a}')
        else:
            self.guard(
                f"not (0 <= {a} and {a} + 1 < top)",
                "_oob",
                f'"packed memory write", {a}',
            )
        return a

    def src64(self, operand) -> str:
        """Expression for a 64-bit source; Mem emits a checked read."""
        if isinstance(operand, Reg):
            return self.g(operand.index)
        if isinstance(operand, Imm):
            return str(operand.value & _M64)
        if isinstance(operand, Mem):
            var = f"v{self.j}"
            self.emit(f"{var} = {self.read64(operand)}")
            return var
        raise Unfusable

    def xsrc64(self, operand) -> str:
        if isinstance(operand, Xmm):
            return self.x(operand.index)
        if isinstance(operand, Mem):
            var = f"v{self.j}"
            self.emit(f"{var} = {self.read64(operand)}")
            return var
        raise Unfusable

    def xsrc128(self, operand) -> tuple[str, str]:
        """(lo, hi) expressions; Mem emits a checked 2-cell read."""
        if isinstance(operand, Xmm):
            i = operand.index
            return self.x(i), f"xh[{i}]"
        if isinstance(operand, Mem):
            a = f"a{self.j}"
            self.emit(f"{a} = {self.addr(operand)}")
            self.guard(
                f"not (0 <= {a} and {a} + 1 < top)",
                "_oob",
                f'"packed memory read", {a}',
            )
            return f"mem[{a}]", f"mem[{a} + 1]"
        raise Unfusable

    # -- flags ------------------------------------------------------------

    def publish_flags(self, z: str, l: str, p: str, int_lt: bool = False) -> None:
        """Make a compare's flag locals the ones the following branches
        test; the last compare also stores the exit-live ones as 0/1
        like the reference closures (``p == "0"``: a constant clear
        flag; *int_lt*: ``l`` already holds 0/1)."""
        self.flag_exprs = (z, l, p)
        if self.j != self.writer:
            return
        for bit, k, v in ((_ZF, 0, z), (_LT, 1, l), (_PF, 2, p)):
            if self.mask & bit:
                if v == "0" or (bit == _LT and int_lt):
                    self.emit(f"flags[{k}] = {v}")
                else:
                    self.emit(f"flags[{k}] = 1 if {v} else 0")

    def fp_compare(self, a: str, b: str, need: int) -> None:
        """Flags of a decoded floating-point compare of *a* and *b*:
        unordered sets zf and unord, and clears lt (NaN compares false)."""
        j = self.j
        self.emit(f"fa{j} = {a}", f"fb{j} = {b}")
        if need & (_ZF | _PF):
            self.emit(f"p{j} = fa{j} != fa{j} or fb{j} != fb{j}")
        if need & _ZF:
            self.emit(f"z{j} = p{j} or fa{j} == fb{j}")
        if need & _LT:
            self.emit(f"l{j} = fa{j} < fb{j}")
        self.publish_flags(f"z{j}", f"l{j}", f"p{j}")

    # -- one instruction --------------------------------------------------

    def instruction(self, instr, cost: int) -> None:
        """Emit the body of one straight-line instruction.

        Mirrors ``VM._build`` exactly: same state effects, same trap
        messages, same evaluation order (source reads trap before
        destination writes; overflow checks precede source reads where
        the reference closure checks first).  Raises :class:`Unfusable`
        for opcodes/operand shapes without a template.
        """
        self.rejoin()
        op = instr.opcode
        ops = instr.operands
        j = self.j
        e = self.emit
        self.partial.append(self.cycles)
        need = self.need.get(j, 0)

        if op is Op.NOP:
            pass

        elif op is Op.HALT:
            # Charges its own cost, then stops the machine: the fault
            # preamble with the HALT's cost included is exactly the
            # reference accounting.
            e(*self.fault_inline("raise halt", extra_cycles=cost))
            self.halted = True

        elif op is Op.OUTI:
            e(f'outputs.append(("i", {self.g(ops[0].index)}))')
        elif op is Op.OUTSD:
            e(f'outputs.append(("d", {self.x(ops[0].index)}))')
        elif op is Op.OUTSS:
            e(f'outputs.append(("s", {self.x(ops[0].index)} & _M32))')

        elif op is Op.RAND:
            e(f"s{j} = rng[0]",
              f"s{j} ^= s{j} >> 12",
              f"s{j} = (s{j} ^ (s{j} << 25)) & _M64",
              f"s{j} ^= s{j} >> 27",
              f"rng[0] = s{j}",
              f"{self.set_g(ops[0].index)} = (s{j} * _XORSHIFT_MULT) & _M64")

        elif op is Op.MOV:
            dst, src = ops
            if isinstance(dst, Reg):
                if isinstance(src, Reg):
                    v = self.g(src.index)
                elif isinstance(src, Imm):
                    v = str(src.value & _M64)
                elif isinstance(src, Mem):
                    v = self.read64(src)
                else:
                    raise Unfusable
                e(f"{self.set_g(dst.index)} = {v}")
            elif isinstance(dst, Mem):
                # Reference order: source evaluated first (its read may
                # trap), then the destination bounds check.
                sv = self.src64(src)
                a = self.store_addr(dst)
                e(f"mem[{a}] = {sv}")
            else:
                raise Unfusable

        elif op is Op.LEA:
            v = self.addr(ops[1])
            e(f"{self.set_g(ops[0].index)} = ({v}) & _M64")

        elif op in _INT_BIN_EXPR:
            d = ops[0].index
            dv = self.g(d)
            sv = self.src64(ops[1])
            expr = _INT_BIN_EXPR[op].format(d=dv, s=sv)
            e(f"{self.set_g(d)} = {expr}")

        elif op is Op.IDIV or op is Op.IREM:
            d = ops[0].index
            sv = self.src64(ops[1])
            e(f"b{j} = {sv}")
            # Plain address-less VmTrap, exactly like the reference
            # _idiv/_irem helpers (resume() must not stamp an address).
            e(f"if b{j} == 0:")
            e(*("    " + ln for ln in self.fault_inline(
                'raise VmTrap("integer division by zero")')))
            e(f"sa{j} = _s64({self.g(d)})",
              f"sb{j} = _s64(b{j})")
            if op is Op.IDIV:
                e(f"q{j} = abs(sa{j}) // abs(sb{j})",
                  f"if (sa{j} < 0) != (sb{j} < 0):",
                  f"    q{j} = -q{j}")
            else:
                e(f"q{j} = abs(sa{j}) % abs(sb{j})",
                  f"if sa{j} < 0:",
                  f"    q{j} = -q{j}")
            e(f"{self.set_g(d)} = q{j} & _M64")

        elif op is Op.NOT:
            d = ops[0].index
            v = self.g(d)
            e(f"{self.set_g(d)} = {v} ^ _M64")
        elif op is Op.NEG:
            d = ops[0].index
            v = self.g(d)
            e(f"{self.set_g(d)} = (-{v}) & _M64")
        elif op is Op.INC:
            d = ops[0].index
            v = self.g(d)
            e(f"{self.set_g(d)} = ({v} + 1) & _M64")
        elif op is Op.DEC:
            d = ops[0].index
            v = self.g(d)
            e(f"{self.set_g(d)} = ({v} - 1) & _M64")

        elif op is Op.CMP:
            src = ops[1]
            b = self.src64(src)  # a memory source traps even if unread
            if need:
                a = self.g(ops[0].index)
                if need & _ZF:
                    e(f"z{j} = {a} == {b}")
                if need & _LT:
                    # Signed less-than on the unsigned patterns: flipping
                    # the sign bit maps two's complement order onto
                    # unsigned order.
                    if isinstance(src, Imm):
                        bx = str((src.value & _M64) ^ _SIGN64)
                    else:
                        bx = f"({b} ^ {_SIGN64})"
                    e(f"l{j} = ({a} ^ {_SIGN64}) < {bx}")
            self.publish_flags(f"z{j}", f"l{j}", "0")

        elif op is Op.TEST:
            sv = self.src64(ops[1])
            if need & (_ZF | _LT):
                e(f"tv{j} = {self.g(ops[0].index)} & {sv}")
                if need & _ZF:
                    e(f"z{j} = tv{j} == 0")
                if need & _LT:
                    e(f"l{j} = (tv{j} >> 63) & 1")
            self.publish_flags(f"z{j}", f"l{j}", "0", int_lt=True)

        elif op is Op.PUSH:
            e(f"sp{j} = {self.g(15)} - 1")
            self.guard(f"sp{j} < limit", "_FT", '"stack overflow"')
            self.guard(f"sp{j} >= top", "_FT", '"stack underflow"')
            sv = self.src64(ops[0])
            e(f"mem[sp{j}] = {sv}",
              f"{self.set_g(15)} = sp{j}")

        elif op is Op.POP:
            e(f"sp{j} = {self.g(15)}")
            self.guard(f"sp{j} >= top", "_FT", '"stack underflow"')
            e(f"{self.set_g(ops[0].index)} = mem[sp{j}]",
              f"{self.set_g(15)} = sp{j} + 1")

        elif op is Op.PUSHX:
            x = ops[0].index
            e(f"sp{j} = {self.g(15)} - 2")
            self.guard(f"sp{j} < limit", "_FT", '"stack overflow"')
            self.guard(f"sp{j} + 1 >= top", "_FT", '"stack underflow"')
            e(f"mem[sp{j}] = {self.x(x)}",
              f"mem[sp{j} + 1] = xh[{x}]",
              f"{self.set_g(15)} = sp{j}")

        elif op is Op.POPX:
            x = ops[0].index
            e(f"sp{j} = {self.g(15)}")
            self.guard(f"sp{j} + 1 >= top", "_FT", '"stack underflow"')
            e(f"{self.set_x(x)} = mem[sp{j}]",
              f"xh[{x}] = mem[sp{j} + 1]",
              f"{self.set_g(15)} = sp{j} + 2")

        elif op is Op.MOVSD:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    v = self.x(src.index)
                    e(f"{self.set_x(d)} = {v}")
                elif isinstance(src, Mem):
                    v = self.read64(src)
                    e(f"{self.set_x(d)} = {v}",
                      f"xh[{d}] = 0")
                else:
                    raise Unfusable
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                sv = self.x(src.index)
                a = self.store_addr(dst)
                e(f"mem[{a}] = {sv}")
            else:
                raise Unfusable

        elif op is Op.MOVAPD:
            dst, src = ops
            if isinstance(dst, Xmm):
                lo, hi = self.xsrc128(src)
                d = dst.index
                e(f"{self.set_x(d)} = {lo}",
                  f"xh[{d}] = {hi}")
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                s = src.index
                sv = self.x(s)
                a = self.store_addr(dst, width=2)
                e(f"mem[{a}] = {sv}",
                  f"mem[{a} + 1] = xh[{s}]")
            else:
                raise Unfusable

        elif op in FPD_BIN:
            d = ops[0].index
            dv = self.x(d)
            sv = self.xsrc64(ops[1])
            if op in _FP_INLINE:
                e(f"f{j} = {_dec64(dv)} {_FP_INLINE[op]} {_dec64(sv)}")
                rhs = (
                    f"{_enc64(f'f{j}')} if f{j} == f{j} "
                    f"else {FPD_BIN[op].__name__}({dv}, {sv})"
                )
            else:
                rhs = f"{FPD_BIN[op].__name__}({dv}, {sv})"
            e(f"{self.set_x(d)} = {rhs}")

        elif op in FPD_UN:
            sv = self.xsrc64(ops[1])
            e(f"{self.set_x(ops[0].index)} = {FPD_UN[op].__name__}({sv})")

        elif op is Op.UCOMISD:
            sv = self.xsrc64(ops[1])
            if need:
                self.fp_compare(_dec64(self.x(ops[0].index)), _dec64(sv), need)

        elif op is Op.CVTSI2SD:
            v = self.g(ops[1].index)
            e(f"{self.set_x(ops[0].index)} = {_enc64(f'float(_s64({v}))')}")

        elif op is Op.CVTTSD2SI:
            sv = self.x(ops[1].index)
            e(f"f{j} = {_dec64(sv)}")
            self.truncate(ops[0].index)

        elif op in FPN_CODEC:
            # f32, bf16 and f16 alike: the width's mask, decode and encode.
            m, dec, enc = _NARROW_SOURCE[op]
            d = ops[0].index
            form = F32_FORM.get(op)
            if op in FPN_BIN:
                sv = self.xsrc64(ops[1])
                dv = self.once(self.x(d), f"v{j}d")
                helper = f"{FPN_BIN[op].__name__}({dv} & {m}, {sv} & {m})"
                if op in _FP_INLINE:
                    e(f"f{j} = {dec(dv)} {_FP_INLINE[op]} {dec(sv)}")
                    rhs = f"({enc}(f{j}) if f{j} == f{j} else {helper})"
                else:
                    rhs = helper
                e(f"{self.set_x(d)} = ({dv} & _HI32) | {rhs}")
            elif op in FPN_UN:
                sv = self.xsrc64(ops[1])
                dv = self.x(d)
                e(f"{self.set_x(d)} = ({dv} & _HI32) | {FPN_UN[op].__name__}({sv} & {m})")
            elif form is Op.UCOMISS:
                sv = self.xsrc64(ops[1])
                if need:
                    self.fp_compare(dec(self.x(d)), dec(sv), need)
            elif form is Op.CVTSI2SS:
                v = self.g(ops[1].index)
                dv = self.x(d)
                conv = FPN_CODEC[op].from_int.__name__
                e(f"{self.set_x(d)} = ({dv} & _HI32) | {conv}(_s64({v}))")
            elif form is Op.CVTTSS2SI:
                e(f"f{j} = {dec(self.x(ops[1].index))}")
                self.truncate(d)
            elif form is Op.CVTSD2SS:
                dv = self.x(d)
                sv = self.x(ops[1].index)
                e(f"{self.set_x(d)} = ({dv} & _HI32) | {enc}({_dec64(sv)})")
            else:  # CVTSS2SD
                sv = self.x(ops[1].index)
                e(f"{self.set_x(d)} = {_enc64(dec(sv))}")

        elif op is Op.MOVQXR:
            v = self.g(ops[1].index)
            e(f"{self.set_x(ops[0].index)} = {v}")
        elif op is Op.MOVQRX:
            v = self.x(ops[1].index)
            e(f"{self.set_g(ops[0].index)} = {v}")

        elif op in PD_BIN:
            fn = PD_BIN[op].__name__
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}")
            dv = self.x(d)
            e(f"{self.set_x(d)} = {fn}({dv}, lo{j})",
              f"xh[{d}] = {fn}(xh[{d}], hi{j})")

        elif op is Op.SQRTPD:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}",
              f"{self.set_x(d)} = double_sqrt(lo{j})",
              f"xh[{d}] = double_sqrt(hi{j})")

        elif op is Op.MOVSS:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    dv = self.x(d)
                    sv = self.x(src.index)
                    e(f"{self.set_x(d)} = ({dv} & _HI32) | ({sv} & _M32)")
                elif isinstance(src, Mem):
                    v = self.read64(src)
                    e(f"{self.set_x(d)} = {v} & _M32",
                      f"xh[{d}] = 0")
                else:
                    raise Unfusable
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                sv = self.x(src.index)
                a = self.store_addr(dst)
                e(f"mem[{a}] = (mem[{a}] & _HI32) | ({sv} & _M32)")
            else:
                raise Unfusable

        elif op in PS_BIN:
            fn = PS_BIN[op].__name__
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}")
            pa = self.once(self.x(d), f"pa{j}")
            e(f"{self.set_x(d)} = ({fn}(({pa} >> 32) & _M32, (lo{j} >> 32) & _M32) << 32) | {fn}({pa} & _M32, lo{j} & _M32)",
              f"pb{j} = xh[{d}]",
              f"xh[{d}] = ({fn}((pb{j} >> 32) & _M32, (hi{j} >> 32) & _M32) << 32) | {fn}(pb{j} & _M32, hi{j} & _M32)")

        elif op is Op.SQRTPS:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}",
              f"{self.set_x(d)} = (single_sqrt((lo{j} >> 32) & _M32) << 32) | single_sqrt(lo{j} & _M32)",
              f"xh[{d}] = (single_sqrt((hi{j} >> 32) & _M32) << 32) | single_sqrt(hi{j} & _M32)")

        elif op is Op.PEXTR or op is Op.PINSR:
            lane = ops[2].value
            if lane not in (0, 1):
                raise Unfusable
            x = ops[1].index if op is Op.PEXTR else ops[0].index
            if op is Op.PEXTR:
                v = self.x(x) if lane == 0 else f"xh[{x}]"
                e(f"{self.set_g(ops[0].index)} = {v}")
            else:
                v = self.g(ops[1].index)
                t = self.set_x(x) if lane == 0 else f"xh[{x}]"
                e(f"{t} = {v}")

        elif op is Op.MPIRANK:
            e(f"{self.set_g(ops[0].index)} = rank")
        elif op is Op.MPISIZE:
            e(f"{self.set_g(ops[0].index)} = size")

        elif op in (Op.ALLRED, Op.ALLREDSS, Op.BCASTSD, Op.BARRIER):
            # Local no-ops at size 1 (cost only); multi-rank collectives
            # yield to the scheduler, so they never join a fused run.
            if self.size != 1:
                raise Unfusable
            if op is not Op.BCASTSD and op is not Op.BARRIER:
                if ops[1].value not in (RED_SUM, RED_MIN, RED_MAX):
                    raise Unfusable

        elif op in (Op.ALLREDV, Op.ALLREDVSS):
            if self.size != 1:
                raise Unfusable
            if ops[1].value not in (RED_SUM, RED_MIN, RED_MAX):
                raise Unfusable
            e(f"a{j} = {self.addr(ops[0])}",
              f"n{j} = {self.g(ops[2].index)}")
            self.guard(
                f"not (0 <= a{j} and a{j} + n{j} <= top)",
                "_FT",
                f'f"vector collective out of bounds: {{a{j}}}+{{n{j}}}"',
            )

        else:
            raise Unfusable

        self.j += 1
        self.cycles += cost

    def truncate(self, d: int) -> None:
        """``gpr[d]`` = the decoded ``f<j>`` truncated toward zero, or
        the integer indefinite value when it does not fit (cvtt*2si)."""
        j = self.j
        t = self.set_g(d)
        self.emit(
            f"if f{j} != f{j} or f{j} >= 9.223372036854776e18 or f{j} < -9.223372036854776e18:",
            f"    {t} = _INT_INDEFINITE",
            "else:",
            f"    {t} = int(f{j}) & _M64",
        )

    # -- folded branches --------------------------------------------------

    def fork(self, instr, cost: int, arm: int, taken_extra: int) -> None:
        """Emit a folded forward branch over the next *arm* members.

        The run's budget and cycle totals count every member, so the
        taken path repays the skipped arm's steps and charges
        *taken_extra*, the branch's taken extra less the arm's cycles;
        the arm itself becomes the ``else`` block that :meth:`rejoin`
        closes at the join.
        """
        self.rejoin()
        z, l, p = self.flag_exprs
        taken = []
        if arm:
            taken.append(f"    sl[0] += {arm}")
        if taken_extra:
            taken.append(f"    cyc[0] += {taken_extra}")
        if taken:
            self.emit(f"if {_COND[instr.opcode][1].format(z=z, l=l, p=p)}:",
                      *taken)
        self.partial.append(self.cycles)
        self.j += 1
        self.cycles += cost
        if arm:
            self.arm_at = len(self.lines)
            self.join = self.j + arm

    def rejoin(self) -> None:
        """Close the open arm once emission reaches its join."""
        if self.j != self.join:
            return
        arm = ["    " + ln for ln in self.lines[self.arm_at :]]
        if arm:
            self.lines[self.arm_at :] = ["else:", *arm]
        self.join = -1

    # -- terminators ------------------------------------------------------

    def terminator(self, instr, cost: int, branch_extra: int) -> list[str]:
        """Emit the run's closing control transfer: its checks join the
        body, and the returned exit statements run after the spills.

        The fall-through total (all straight-line costs plus the
        terminator's own cost) is folded into each exit path as one
        constant; taken branches add the cost model's extra.
        """
        self.rejoin()
        op = instr.opcode
        e = self.emit
        total = self.cycles + cost
        self.partial.append(self.cycles)

        if op is Op.JMP:
            self.targets = 1
            out = [f"cyc[0] += {total + branch_extra}", "return t0"]

        elif op in _COND:
            z, l, p = self.flag_exprs
            self.targets = 1
            out = [
                f"if {_COND[op][1].format(z=z, l=l, p=p)}:",
                f"    cyc[0] += {total + branch_extra}",
                "    return t0",
                f"cyc[0] += {total}",
                f"return idx + {self.k}",
            ]

        elif op is Op.CALL:
            e(f"spc = {self.g(15)} - 1")
            self.guard("spc < limit", "_FT", '"stack overflow on call"')
            self.guard("spc >= top", "_FT", '"stack underflow on call"')
            e("mem[spc] = t1",
              f"{self.set_g(15)} = spc")
            self.targets = 2
            out = [f"cyc[0] += {total}", "return t0"]

        elif op is Op.RET:
            e(f"spr = {self.g(15)}")
            self.guard("spr >= top", "_FT", '"stack underflow on ret"')
            # The reference pops before it checks the return address.
            e("ra = mem[spr]",
              f"{self.set_g(15, early=True)} = spr + 1",
              "tr = a2i.get(ra)")
            self.guard(
                "tr is None",
                "_FT",
                'f"return to non-instruction address {ra:#x}"',
            )
            out = [f"cyc[0] += {total}", "return tr"]

        else:
            raise Unfusable

        self.j += 1
        return out

    def handler(self) -> list[str]:
        """The run's one ``except FusedTrap`` clause: charge the cycles
        of the members before the faulting one, repay the unexecuted
        suffix and spill every cell written before the fault."""
        rels = self.trap_rels
        first, last = min(rels), max(rels)
        out = ["except _FT as exc:", "    rel = exc.rel"]
        charges = {self.partial[r] for r in rels}
        if len(charges) > 1:
            out.append(f"    cyc[0] += {tuple(self.partial[: last + 1])}[rel]")
        elif charges != {0}:
            out.append(f"    cyc[0] += {charges.pop()}")
        if first != last:
            out.append(f"    sl[0] += {self.k - 1} - rel")
        elif self.k - 1 - first:
            out.append(f"    sl[0] += {self.k - 1 - first}")
        # Group the spills by the first fault that owes them; a cell first
        # written after the last fault site is never spilled here.
        groups: dict[int, list[str]] = {}
        for stmt, at in self.spills.values():
            if at <= last:
                groups.setdefault(max(at, first), []).append(stmt)
        for at in sorted(groups):
            if at == first:
                out += ["    " + stmt for stmt in groups[at]]
            else:
                out.append(f"    if rel >= {at}:")
                out += ["        " + stmt for stmt in groups[at]]
        out.append("    raise")
        return out


# -- factory assembly ------------------------------------------------------

#: a run must replace at least this many dispatches to be worth a frame.
MIN_RUN = 2

_FACTORY_SIG = (
    "def _factory(gpr, mem, xl, xh, flags, outputs, rng, cyc, sl, "
    "limit, top, a2i, tail, targets, rank, size, halt):"
)

#: cost model -> {(run template bytes, terminator opcode, size==1, exit
#: mask or -1): exec'd factory}.  Factories are position- and
#: VM-independent, so the cache is process-global: every Machine, worker
#: and rebind in the process shares compiled run bodies.  The model (a
#: frozen dataclass whose hash walks every field) is paid once per load
#: via the outer dict instead of once per run.
_FACTORIES: dict = {}

#: number of run bodies actually exec-compiled (cache misses), kept for
#: the dispatch microbenchmark and tests.
_COMPILED = [0]


def compiled_runs() -> int:
    return _COMPILED[0]


def clear_factory_cache() -> None:
    _FACTORIES.clear()
    _COMPILED[0] = 0


#: marker distinguishing "never compiled" from the None sentinel that
#: records a run whose emission raised :class:`Unfusable`.
_MISS = object()


def _assemble(em: _RunEmitter, exits: list[str]) -> str:
    """Render the emitter's body into factory source: budget check,
    loads, body (inside the shared fault handler when the run has guard
    sites), then — unless the run ends in HALT — spills and *exits*."""
    lines = [_FACTORY_SIG]
    if em.targets:
        lines.append("    t0 = targets[0]")
    if em.targets > 1:
        lines.append("    t1 = targets[1]")
    lines += [
        "    def _fused(idx):",
        f"        left = sl[0] - {em.k}",
        "        if left < 0:",
        "            return tail(idx)",
        "        sl[0] = left",
    ]
    lines += ["        " + ln for ln in em.loads]
    if em.trap_rels:
        lines.append("        try:")
        lines += ["            " + ln for ln in em.lines]
        lines += ["        " + ln for ln in em.handler()]
    else:
        lines += ["        " + ln for ln in em.lines]
    if not em.halted:
        lines += ["        " + stmt for stmt, _at in em.spills.values()]
        lines += ["        " + ln for ln in exits]
    lines.append("    return _fused")
    return "\n".join(lines) + "\n"


def _run_source(instrs, costs, start, k_members, term_i, size, branch_extra,
                mask, folds=()) -> str | None:
    """Generate the factory source for one run; None if emission refuses.

    *mask* is the run's exit mask: the flags live after its last
    instruction.  *folds* lists the run's folded branches as ``(relative
    index, arm length)`` pairs.
    """
    end = start + k_members
    k = k_members + (term_i >= 0)
    # Each compare computes the flags of the branches it feeds, folded
    # ones and the terminator; the last one also the exit mask.
    need: dict = {}
    writer = -1
    for r in range(k):
        op = instrs[start + r].opcode
        if op in _FLAG_WRITERS:
            writer = r
            need[r] = 0
        elif op in _COND and writer >= 0:
            need[writer] |= _COND[op][0]
    if writer >= 0:
        need[writer] |= mask
    em = _RunEmitter(
        size, k, _promoted(instrs, start, start + k), writer, mask, need
    )
    arms = dict(folds)
    try:
        for i in range(start, end):
            arm = arms.get(i - start)
            if arm is None:
                em.instruction(instrs[i], costs[i])
            else:
                skipped = sum(costs[i + 1 : i + 1 + arm])
                em.fork(instrs[i], costs[i], arm, branch_extra - skipped)
        if term_i >= 0:
            exits = em.terminator(instrs[term_i], costs[term_i], branch_extra)
        else:
            em.rejoin()
            exits = [f"cyc[0] += {em.cycles}"] if em.cycles else []
            exits.append(f"return idx + {em.k}")
    except Unfusable:
        return None
    return _assemble(em, exits)


def _compile_run(*run):
    """Exec-compile the factory for one run (the arguments of
    :func:`_run_source`); None if emission refuses.

    Covers the rare operand shapes the cheap fusability tables admit but
    the emitter has no template for: the None lands in ``_FACTORIES`` as
    a sentinel, so the shape is probed exactly once per unique run key.
    """
    src = _run_source(*run)
    if src is None:
        return None
    ns: dict = {}
    exec(compile(src, "<fused-run>", "exec"), _EXEC_GLOBALS, ns)
    _COMPILED[0] += 1
    return ns["_factory"]


_TERMINATORS = frozenset(_COND) | {Op.JMP, Op.CALL, Op.RET}

#: collectives become straight-line code only in single-rank mode; with
#: size > 1 they yield to the rank scheduler and stay on the slow path.
_MPI_MEMBERS = frozenset(
    (Op.ALLRED, Op.ALLREDSS, Op.BCASTSD, Op.BARRIER, Op.ALLREDV, Op.ALLREDVSS)
)

#: every opcode ``_RunEmitter.instruction`` has a template for.  Used for
#: run *detection*, which must be cheap: source is generated only when the
#: process-global factory cache misses the run's key.
_MEMBER_OPS = (
    frozenset(
        (
            Op.NOP, Op.HALT, Op.OUTI, Op.OUTSD, Op.OUTSS, Op.RAND, Op.MOV,
            Op.LEA, Op.IDIV, Op.IREM, Op.NOT, Op.NEG, Op.INC, Op.DEC,
            Op.CMP, Op.TEST, Op.PUSH, Op.POP, Op.PUSHX, Op.POPX,
            Op.MOVSD, Op.MOVAPD, Op.MOVSS, Op.UCOMISD,
            Op.CVTSI2SD, Op.CVTTSD2SI, Op.MOVQXR, Op.MOVQRX,
            Op.SQRTPD, Op.SQRTPS, Op.PEXTR, Op.PINSR,
            Op.MPIRANK, Op.MPISIZE,
        )
    )
    | frozenset(_INT_BIN_EXPR)
    | frozenset(FPD_BIN)
    | frozenset(FPD_UN)
    | frozenset(FPN_CODEC)
    | frozenset(PD_BIN)
    | frozenset(PS_BIN)
    | _MPI_MEMBERS
)


#: the longest arm a forward conditional branch folds over: the Figure 6
#: downcast is five members.
MAX_ARM = 8


def _scan_span(vm, lo: int, hi: int, targets: dict, live) -> list:
    """Detect the fusable runs of instruction span ``[lo, hi)``.

    *targets* maps each control transfer of the span whose target lies
    inside it to that target (every target is a run *leader*); *live* is
    the span's :func:`flag_liveness` (None when it has no compare).
    Returns the span's
    *partition*: ``(rel_start, k_total, term_rel, term_opcode)`` tuples
    plus the run's compiled factory, all relative to *lo* and free of
    any per-load data — branch targets stay out (the terminator's
    operand is resolved at instantiation time), so a partition computed
    once for a segment template is valid for every later placement of
    the same template.

    A run continues across a forward conditional branch — a *diamond* —
    whose target (the *join*) no other transfer targets and whose
    skipped *arm* is at most :data:`MAX_ARM` members with no compare,
    HALT or leader among them.  A counting VM folds nothing: its run
    heads charge each completed entry to every member.

    Run keys into the factory cache are the members' *raw text bytes*
    (a folded branch's without its target) plus the fold shape, the
    terminator's opcode and, for a run containing a compare, its exit
    mask.  Member encodings carry no positional data, so identical bytes
    at any address decode to identical instructions, and factories are
    shared across layouts, configurations, VMs and rebinds process-wide.
    A bytes slice hashes at C speed, which keeps the per-load key cost
    negligible when a partition is not cached.
    """
    instrs = vm._instrs
    costs = vm._inst_costs
    addrs = vm._instr_addrs
    text = vm.program.text
    n = len(instrs)
    size = vm.size
    model = vm.cost_model
    branch_extra = model.branch_taken_extra
    size_one = size == 1
    members = _MEMBER_OPS
    mpi = _MPI_MEMBERS
    terms = _TERMINATORS
    writers = _FLAG_WRITERS
    factories = _FACTORIES.setdefault(model, {})
    leaders: dict = {}  # target -> how many transfers aim at it
    for t in targets.values():
        leaders[t] = leaders.get(t, 0) + 1
    joins = () if vm._counting else {t for t, c in leaders.items() if c == 1}

    def arm_join(b: int) -> int:
        """The join of the branch at *b* when it folds, else -1."""
        t = targets.get(b, -1)
        if t not in joins or not b < t <= b + 1 + MAX_ARM:
            return -1
        for a in range(b + 1, t):
            op = instrs[a].opcode
            if (a in leaders or op not in members or op in writers
                    or op is Op.HALT or (op in mpi and not size_one)):
                return -1
        return t

    part: list = []
    i = lo
    while i < hi:
        start = i
        halted = False
        writes = False
        folds: list = []
        join = -1
        while i < hi:
            if i in leaders and i > start and i != join:
                break
            op = instrs[i].opcode
            if op not in members or (op in mpi and not size_one):
                t = arm_join(i) if op in _COND else -1
                if t < 0:
                    break
                folds.append((i - start, t - i - 1))
                i = join = t
                continue
            if op in writers:
                writes = True
            i += 1
            if op is Op.HALT:
                halted = True
                break
        term_i = -1
        if (
            not halted
            and i > start
            and i < hi
            and instrs[i].opcode in terms
        ):
            term_i = i
            i += 1
        k_members = (term_i if term_i >= 0 else i) - start
        k_total = k_members + (term_i >= 0)
        if k_total >= MIN_RUN:
            m_end = start + k_members
            term_op = instrs[term_i].opcode if term_i >= 0 else None
            # The flags live after the run's last instruction; a run
            # without a compare never computes or stores one.
            mask = live[i - 1 - lo] if writes else -1
            # A folded branch keys by its opcode word, not its target.
            a = addrs[start]
            body = []
            for rel, _arm in folds:
                body.append(text[a : addrs[start + rel] + 4])
                a = addrs[start + rel + 1]
            body.append(text[a : addrs[m_end] if m_end < n else len(text)])
            key = (
                b"".join(body) if folds else body[0],
                tuple(folds),
                term_op,
                size_one,
                mask,
            )
            factory = factories.get(key, _MISS)
            if factory is _MISS:
                vm.fuse_misses += 1
                factory = _compile_run(
                    instrs, costs, start, k_members, term_i, size,
                    branch_extra, mask, folds,
                )
                factories[key] = factory
            elif factory is not None:
                vm.fuse_hits += 1
            if factory is not None:
                part.append(
                    (
                        start - lo,
                        k_total,
                        term_i - lo if term_i >= 0 else -1,
                        term_op,
                        factory,
                    )
                )
            else:
                # Emission refused a member: rescan past the first
                # instruction so a fusable suffix still gets found.
                i = start + 1
        elif i == start:
            i += 1  # non-fusable: stays on the per-instruction path
    return part


def build_fcode(vm, tiles, halt, runs) -> list:
    """Build the fused dispatch array for *vm*'s freshly loaded program.

    ``tiles`` is the load's ``(record, lo)`` tiling: one segment record
    per block template, or one for the whole program (see
    ``repro.vm.machine``), each with the index of its first instruction.
    Returns the list the VM's fused loop indexes: a fused closure at
    every run head, None elsewhere (interior entries single-step the
    reference closures).  *runs* collects each run's ``(head,
    length)``; None when the VM does not count.

    A segment's run partition depends only on its own instructions:
    member operands are final in the template bytes, terminator
    *targets* stay outside the partition, and interior run leaders —
    every branch or call target starts a run, so transfers land on a
    fused head, unless a folded branch alone aims at it — and folds can
    only come from the segment's own branches (original branches target
    block starts, snippet branches are intra-block and
    template-relative).  Flag liveness sees only the segment too: every edge
    leaving it has all flags live, a branch back to its own head
    included, since another placement of the same bytes may aim it
    elsewhere.  For the whole-program segment that is whole-program
    liveness, with a branch to instruction 0 counted as leaving.  So the
    scan runs once per record, kept in ``record.partition``, and a later
    load of a template only re-resolves targets and re-binds factories.
    """
    instrs = vm._instrs
    addrs = vm._instr_addrs
    a2i = vm._addr2idx
    n = len(instrs)
    fcode: list = [None] * n
    state = (
        vm.gpr, vm.mem, vm.xmm_lo, vm.xmm_hi, vm.flags, vm.outputs,
        vm.rng, vm._cyc, vm._sl, vm.stack_limit, len(vm.mem),
        vm._addr2idx, vm._tail,
    )
    rank = vm.rank
    size = vm.size
    for record, lo in tiles:
        part = record.partition
        if part is None:
            hi = lo + len(record.instrs)
            targets = {}
            for j in record.ctl:
                t = a2i.get(instrs[lo + j].operands[0].value)
                if t is not None and lo < t < hi:
                    targets[lo + j] = t
            live = flag_liveness(instrs, lo, hi, targets)
            part = record.partition = _scan_span(vm, lo, hi, targets, live)
        else:
            vm.fuse_hits += len(part)
        # Bind the partition to this load: resolve each terminator's
        # target from the patched text and call the run's factory.
        for rel, k_total, term_rel, term_op, factory in part:
            start = lo + rel
            dests: tuple = ()
            if term_rel >= 0:
                ti = lo + term_rel
                if term_op is Op.CALL:
                    dests = (
                        vm._branch_index(instrs[ti].operands[0], addrs[ti]),
                        addrs[ti + 1] if ti + 1 < n else -1,
                    )
                elif term_op is not Op.RET:
                    dests = (
                        vm._branch_index(instrs[ti].operands[0], addrs[ti]),
                    )
            fcode[start] = factory(*state, dests, rank, size, halt)
            if runs is not None:
                runs.append((start, k_total))
    return fcode
