"""The interpreter.

Programs are *pre-compiled* at load time: every decoded instruction
becomes a specialized Python closure that mutates the machine state and
returns the index of the next instruction.  Branch targets are resolved
to instruction indices once, immediates are folded into the closures, and
the execution loop is nothing but ``idx = code[idx](idx)``.

The machine model: every closure adds its instruction's cycle cost (base
cost from the opcode table plus a per-memory-operand charge priced by
access width).  Taken branches pay one extra cycle.  These cycles are the
deterministic stand-in for the paper's wall-clock measurements.
"""

from __future__ import annotations

import functools
import os
import struct
import weakref

from dataclasses import dataclass, field

from repro.binary.model import Program
from repro.fpbits import ieee
from repro.fpbits.ieee import (
    bits_to_double,
    bits_to_single,
    double_to_bits,
    single_to_bits,
)
from repro.isa.encode import decode_instruction, encoded_length
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    Op,
    OPCODE_INFO,
    RED_MAX,
    RED_MIN,
    RED_SUM,
)
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.telemetry import NULL_TELEMETRY
from repro.vm import fuse
from repro.vm.costs import DEFAULT_COST_MODEL, CostModel
from repro.vm.errors import CollectiveYield, VmTimeout, VmTrap
from repro.vm.fpops import (
    FPD_BIN,
    FPD_UN,
    FPN_BIN,
    FPN_CODEC,
    FPN_UN,
    FPS_BIN,
    FPS_UN,
    PD_BIN,
    PS_BIN,
)

#: escape hatch: set REPRO_NO_FUSE=1 to force the per-instruction
#: reference loop everywhere (used by the dispatch microbenchmark and
#: when bisecting a suspected specialization bug).
_NO_FUSE = bool(os.environ.get("REPRO_NO_FUSE"))

_M64 = 0xFFFFFFFFFFFFFFFF
_M32 = 0xFFFFFFFF
_SIGN64 = 1 << 63
_HI32 = 0xFFFFFFFF00000000

#: x86 "integer indefinite" result for unrepresentable FP->int conversions.
_INT_INDEFINITE = 0x8000000000000000

_XORSHIFT_MULT = 2685821657736338717


class _Halt(Exception):
    pass


_HALT = _Halt()


class _PendingTrap(VmTrap):
    """Execution fault raised inside a position-independent closure.

    A segment record's closures are shared between the programs a VM
    loads, so they cannot embed the faulting instruction's text address;
    :meth:`VM.resume` stamps the current program's address on before the
    trap escapes."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.core = message


def _s64(v: int) -> int:
    return v - 0x10000000000000000 if v & _SIGN64 else v


@dataclass(slots=True)
class ExecResult:
    """Outcome of a program run."""

    outputs: list
    cycles: int
    steps: int
    halted: bool = True
    #: text address -> execution count (only when profiling was enabled)
    exec_counts: dict = field(default_factory=dict)

    def values(self) -> list:
        """Outputs decoded to Python numbers (flag-transparent)."""
        from repro.vm.outputs import decode_outputs

        return decode_outputs(self.outputs)


_INT_BIN_PLAIN = {
    Op.ADD: lambda a, b: (a + b) & _M64,
    Op.SUB: lambda a, b: (a - b) & _M64,
    Op.IMUL: lambda a, b: (a * b) & _M64,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: (a << (b & 63)) & _M64,
    Op.SHR: lambda a, b: a >> (b & 63),
    Op.SAR: lambda a, b: (_s64(a) >> (b & 63)) & _M64,
}


def _idiv(a: int, b: int) -> int:
    if b == 0:
        raise VmTrap("integer division by zero")
    sa, sb = _s64(a), _s64(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & _M64


def _irem(a: int, b: int) -> int:
    if b == 0:
        raise VmTrap("integer division by zero")
    sa, sb = _s64(a), _s64(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & _M64


#: memo for :func:`_static_costs`: cost model -> {(opcode, operands):
#: cost}.  The cost is a pure function of (opcode, operands, model) —
#: all hashable and drawn from a small set of shapes that repeat across
#: every rewrite of the same program — so one dict hit replaces the
#: cost-table lookup and operand scan, and the model (whose hash walks
#: every field) is hashed once per call instead of once per instruction.
_COST_CACHE: dict = {}


def _static_costs(instrs, model: CostModel) -> list[int]:
    """Fall-through cycle cost of each instruction (position-independent)."""
    memo = _COST_CACHE.get(model)
    if memo is None:
        memo = _COST_CACHE[model] = {}
    out = []
    for instr in instrs:
        key = (instr.opcode, instr.operands)
        cost = memo.get(key)
        if cost is None:
            info = OPCODE_INFO[instr.opcode]
            cost = model.op_cost(instr.opcode)
            for o in instr.operands:
                if isinstance(o, Mem):
                    cost += model.mem_cost(info.mem_width, o.base == 14)
            memo[key] = cost
        out.append(cost)
    return out


def _harvest_blocks(program: Program) -> list[Instruction] | None:
    """The program's instructions from its CFG blocks, or None.

    A program loaded without a template tiling is one whole-program
    segment.  Programs assembled by :class:`~repro.asm.builder.AsmBuilder`
    (compiled ones) carry their decoded instructions in ``fn.blocks`` —
    the loader reuses them instead of decoding the text again.  The
    harvest is verified against the text layout (every address in
    sequence, total length matching); on any mismatch, or for a program
    without blocks, the loader decodes the text (:func:`_decode`).
    """
    fns = program.functions
    if not fns:
        return None
    out: list[Instruction] = []
    offset = 0
    for fn in fns:
        if not fn.blocks and fn.entry < fn.end:
            return None
        for block in fn.blocks:
            for instr in block.instructions:
                if instr.addr != offset:
                    return None
                out.append(instr)
                offset += encoded_length(instr)
    return out if offset == len(program.text) else None


def _decode(text: bytes) -> list[Instruction]:
    """Every instruction of *text*, decoded in layout order."""
    out: list[Instruction] = []
    offset = 0
    n = len(text)
    while offset < n:
        instr, size = decode_instruction(text, offset)
        out.append(instr)
        offset += size
    return out


#: template records a VM keeps before it flushes them wholesale: the
#: bound of :data:`repro.instrument.cache.TEMPLATE_CACHE_MAX`, so the
#: records of a long-lived worker's VM stay as bounded as the template
#: cache that feeds them.
SEGMENT_CACHE_MAX = 65536

#: control transfers (jmp / jcc / call).  Each takes exactly one
#: immediate operand (the opcode table's only signature for them), so
#: its target's 8-byte payload sits 4 bytes into the instruction.
_CONTROL = frozenset(
    op for op, info in OPCODE_INFO.items() if info.is_branch or info.is_call
)

_I64 = struct.Struct("<q")


class _SegmentRecord:
    """Everything the VM derives from one segment, built once.

    A segment is a block template — keyed by its *unpatched* bytes,
    which two occurrences share exactly up to control-transfer targets —
    or, for a program loaded without templates, the whole program, whose
    record serves one load only.  ``instrs`` are its instructions as
    given (segment-relative addresses, zeroed label payloads), ``offs``
    their offsets and ``costs`` their static costs.  ``ctl`` lists the
    slots of the control transfers: their closures embed resolved target
    indices and return addresses, which depend on where the segment
    landed, so every load reads their targets from the patched text and
    rebuilds them.  Every other instruction advances ``idx + 1`` wherever
    it sits, so its slot in ``closures`` is compiled once and reused
    verbatim — or holds a lazy stand-in until its first dispatch (see
    :meth:`VM._lazy`).  ``partition`` is the fused-run partition (see
    :func:`repro.vm.fuse.build_fcode`), None until scanned; ``ready``
    turns True once every slot outside ``ctl`` is filled.
    """

    __slots__ = ("instrs", "offs", "costs", "ctl", "closures", "partition",
                 "ready")

    def __init__(self, instrs, model: CostModel) -> None:
        self.instrs = instrs
        self.offs = tuple([instr.addr for instr in instrs])
        self.costs = _static_costs(instrs, model)
        self.ctl = tuple(
            [j for j, instr in enumerate(instrs) if instr.opcode in _CONTROL]
        )
        self.closures: list = [None] * len(instrs)
        self.partition = None
        self.ready = False


class VM:
    """One virtual machine instance executing one Program.

    Parameters
    ----------
    program:
        The program to run.  An instrumented build loads from the
        template tiling it carries (``Program.segments``); the VM keeps
        one record per template and reuses it on later loads (see
        :meth:`_load`).  Any other program loads as one whole-program
        segment.
    stack_words:
        Stack size in 64-bit cells, placed above the data image.
    seed:
        Deterministic seed for the ``rand`` opcode (xorshift64*).
    rank, size:
        MPI identity.  With ``size == 1`` the collective opcodes are local
        no-ops; with ``size > 1`` they raise :class:`CollectiveYield` so a
        scheduler can coordinate ranks.
    max_steps:
        Hard budget on executed instructions (guards runaway configs).
    profile:
        Record per-address execution counts (needed for the search's
        prioritization and the dynamic-replacement metric).  The counters
        ride fused dispatch (see :meth:`_install_counters`).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`.  When enabled, the
        VM counts executions per instruction (the same counters
        ``profile`` installs — cycle accounting itself is untouched, so
        costs are byte-identical with telemetry on or off), emits a
        ``vm.trap`` event on any hard fault, and :meth:`publish` reports
        the per-opcode execution/cycle census as a ``vm.opcodes`` event.
    observer:
        Optional execution observer (see :mod:`repro.analysis`): an
        object whose ``wrap(vm, index, instr, addr, closure)`` may
        return a replacement closure for instructions it wants to watch
        (or None to leave the instruction alone).  Wrappers go only into
        the load's own dispatch array, never into a segment record, and
        an observed VM never fuses (the only deopt left).  Detached-is-free:
        with ``observer=None`` the hook is a single None check at load
        time.  Observers must not mutate architectural state;
        outputs, cycle counts, step counts and trap addresses are
        identical with the hook attached or not (asserted by
        tests/vm/test_observer_parity.py).
    """

    def __init__(
        self,
        program: Program,
        stack_words: int = 8192,
        seed: int = 0x9E3779B97F4A7C15,
        rank: int = 0,
        size: int = 1,
        max_steps: int = 200_000_000,
        profile: bool = False,
        cost_model: CostModel | None = None,
        telemetry=None,
        observer=None,
        fused: bool = True,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        if not 0 <= rank < size:
            raise ValueError("rank out of range")
        self._observer = observer
        self.program = program
        self.rank = rank
        self.size = size
        self.max_steps = max_steps
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.profile = profile
        self._counting = profile or self.telemetry.enabled
        self.cost_model = cost_model or DEFAULT_COST_MODEL

        self.mem = list(program.data_image) + [0] * stack_words
        self.stack_limit = program.data_words
        self.gpr = [0] * 16
        self.gpr[15] = len(self.mem)  # stack pointer: one past the top
        self.xmm_lo = [0] * 16
        self.xmm_hi = [0] * 16
        self.flags = [0, 0, 0]  # zf, lt, unord
        self.outputs: list = []
        self._seed0 = seed & _M64 or 1
        self.rng = [self._seed0]
        self._cyc = [0]
        self.steps = 0
        self.finished = False
        #: steps-left scratch cell shared with the fused closures; only
        #: meaningful inside one _resume_fused call.
        self._sl = [0]
        self._fused = fused and not _NO_FUSE
        self._fcode = None
        self.fuse_hits = 0
        self.fuse_misses = 0
        #: template bytes -> record; closures capture this VM's state
        #: arrays, so records live and die with the VM.
        self._records: dict[bytes, _SegmentRecord] = {}
        self.compile_hits = 0
        self.compile_misses = 0

        self._data_image0 = list(program.data_image)
        self._stack_zero = [0] * stack_words
        self._instrs: list[Instruction] = []
        #: text address of each instruction (``_instrs[i].addr`` is
        #: segment-relative when the instruction came from a template)
        self._instr_addrs: list[int] = []
        self._addr2idx: dict[int, int] = {}
        #: static (fall-through) cost per instruction, used by the opcode
        #: census; never consulted by the execution loop.
        self._inst_costs: list[int] = []
        #: execution counters; only a counting VM fills them in
        self._counts = self._entries = self._runs = ()
        self._code: list = []
        # Closures kept beside the state (lazy stand-ins, the fused runs'
        # budget tail) reach the VM through a weak proxy, so a VM nobody
        # holds is freed at once instead of by the cyclic collector.
        self._weak = weakref.proxy(self)
        self._tail = functools.partial(VM._fused_tail, self._weak)
        self._load(program)

    # -- public API -----------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self._cyc[0]

    def run(self) -> ExecResult:
        """Run from the entry point to HALT (single-rank convenience)."""
        if self.size != 1:
            raise VmTrap("VM.run() is single-rank; use repro.mpi for size > 1")
        self.resume(self._entry_idx)
        return self.result()

    def resume(self, index: int) -> bool:
        """Execute from instruction *index*; True on HALT.

        In multi-rank mode a :class:`CollectiveYield` escapes to the caller
        (the rank scheduler) with the resume index inside.
        """
        if self._fcode is not None:
            # Fast path: fused superinstruction dispatch.  Only observed
            # and ``fused=False`` VMs take the reference loop below.
            return self._resume_fused(index)
        code = self._code
        remaining = self.max_steps - self.steps
        n = 0
        try:
            # A halt or trap during iteration n leaves the loop variable
            # at n; running the budget dry charges remaining + 1 (or a
            # single step when the budget was already exhausted).
            if remaining > 0:
                for n in range(1, remaining + 1):
                    index = code[index](index)
                n = remaining + 1
            else:
                n = 1
            raise VmTimeout(f"step budget exceeded ({self.max_steps})")
        except _Halt:
            self.steps += n
            self.finished = True
            # _HALT is a module-level singleton: drop the traceback it
            # just acquired, or it pins the whole raising frame stack
            # (and everything those frames reference) until the next run.
            _HALT.__traceback__ = None
            return True
        except CollectiveYield:
            self.steps += n
            raise
        except VmTrap as exc:
            self.steps += n
            if type(exc) is _PendingTrap:
                exc = VmTrap(exc.core, self._instr_addrs[index])
            self.telemetry.emit(
                "vm.trap",
                message=str(exc),
                addr=exc.addr,
                rank=self.rank,
                steps=self.steps,
            )
            raise exc from None

    def _resume_fused(self, index: int) -> bool:
        """Execute from *index* through the fused dispatch array.

        ``_fcode`` holds a fused closure at every run head and None
        everywhere else (run interiors, control flow the builder left
        alone) — interior entries, e.g. a branch target or a collective
        resume point landing mid-run, single-step the reference closures
        until dispatch reaches the next run head.  The steps-left cell
        ``_sl`` carries the budget: fused runs debit it in bulk and
        repay the unexecuted suffix on any early exit, so ``steps`` is
        exact to the instruction on every path (asserted against the
        reference loop by tests/vm/test_fused_parity.py).
        """
        fcode = self._fcode
        code = self._code
        sl = self._sl
        remaining = self.max_steps - self.steps
        sl[0] = remaining
        try:
            while True:
                f = fcode[index]
                if f is not None:
                    index = f(index)
                elif sl[0] > 0:
                    sl[0] -= 1
                    index = code[index](index)
                else:
                    raise VmTimeout(
                        f"step budget exceeded ({self.max_steps})"
                    )
        except _Halt:
            self.steps += remaining - sl[0]
            self.finished = True
            _HALT.__traceback__ = None
            return True
        except VmTimeout as exc:
            # The attempted step past the budget is charged, matching
            # the reference loop's n = remaining + 1 accounting.
            self.steps += remaining - sl[0] + 1
            self.telemetry.emit(
                "vm.trap",
                message=str(exc),
                addr=exc.addr,
                rank=self.rank,
                steps=self.steps,
            )
            raise
        except CollectiveYield:
            self.steps += remaining - sl[0]
            raise
        except VmTrap as exc:
            self.steps += remaining - sl[0]
            if type(exc) is _PendingTrap:
                exc = VmTrap(exc.core, self._instr_addrs[index])
            elif type(exc) is fuse.FusedTrap:
                exc = VmTrap(exc.core, self._instr_addrs[index + exc.rel])
            self.telemetry.emit(
                "vm.trap",
                message=str(exc),
                addr=exc.addr,
                rank=self.rank,
                steps=self.steps,
            )
            raise exc from None

    def _fused_tail(self, idx: int):
        """Deoptimized tail: the next fused run is larger than the
        remaining budget, so no fused entry can be correct — single-step
        the reference closures until the budget expires or a trap, halt
        or collective yield wins the race.  Never returns normally."""
        code = self._code
        sl = self._sl
        try:
            while True:
                if sl[0] <= 0:
                    raise VmTimeout(
                        f"step budget exceeded ({self.max_steps})"
                    )
                sl[0] -= 1
                idx = code[idx](idx)
        except _PendingTrap as exc:
            raise VmTrap(exc.core, self._instr_addrs[idx]) from None

    def result(self) -> ExecResult:
        exec_counts = {}
        if self.profile:
            addrs = self._instr_addrs
            exec_counts = {addrs[i]: c for i, c in enumerate(self._tally()) if c}
        return ExecResult(
            outputs=list(self.outputs),
            cycles=self._cyc[0],
            steps=self.steps,
            halted=self.finished,
            exec_counts=exec_counts,
        )

    def entry_index(self) -> int:
        return self._entry_idx

    def opcode_stats(self) -> dict:
        """Per-mnemonic execution/cycle census of everything run so far.

        Cycles are attributed statically (execution count times the
        instruction's fall-through cost), so taken-branch extras and
        collective synchronization jumps are not included — the census
        is a profile shape, not a re-derivation of the exact clock.
        Requires telemetry (or profiling) to have been enabled.
        """
        per: dict[str, list] = {}
        for _addr, mnemonic, execs, cycles in self.instruction_stats():
            entry = per.setdefault(mnemonic, [0, 0])
            entry[0] += execs
            entry[1] += cycles
        return {
            m: {"execs": e, "cycles": c} for m, (e, c) in sorted(per.items())
        }

    def instruction_stats(self) -> list:
        """Per-instruction ``(addr, mnemonic, execs, cycles)`` census.

        Same static cycle attribution as :meth:`opcode_stats`, but at
        instruction-address granularity — the substrate for per-site
        profiles.  Cold path only: nothing here touches the execution
        loop.
        """
        instrs = self._instrs
        addrs = self._instr_addrs
        costs = self._inst_costs
        return [
            (
                addrs[i],
                OPCODE_INFO[instrs[i].opcode].mnemonic,
                count,
                count * costs[i],
            )
            for i, count in enumerate(self._tally())
            if count
        ]

    def _tally(self) -> list:
        """Execution count per instruction index: single steps plus each
        completed fused entry charged to every member of its run."""
        counts = list(self._counts)
        entries = self._entries
        for head, k in self._runs:
            e = entries[head]
            if e:
                for i in range(head, head + k):
                    counts[i] += e
        return counts

    def publish(self) -> None:
        """Emit the ``vm.opcodes`` census event (no-op when disabled)."""
        if not self.telemetry.enabled:
            return
        self.telemetry.emit(
            "vm.opcodes",
            program=self.program.name,
            rank=self.rank,
            steps=self.steps,
            cycles=self._cyc[0],
            opcodes=self.opcode_stats(),
        )

    def rebind(self, program: Program) -> None:
        """Reset all architectural state in place and load *program*.

        Cached closures captured the state arrays (``mem``, ``gpr``,
        ``xmm_*``, flags, outputs, rng, cycle counter) by reference, so
        the reset mutates them rather than replacing them.  Only legal
        for a program with the same data image and stack size as the one
        this VM was created with — :class:`Machine` checks that.
        """
        if program.data_image != self._data_image0:
            raise ValueError("rebind requires an identical data image")
        mem = self.mem
        dw = self.stack_limit
        mem[:dw] = self._data_image0
        mem[dw:] = self._stack_zero
        self.gpr[:] = [0] * 16
        self.gpr[15] = len(mem)
        self.xmm_lo[:] = [0] * 16
        self.xmm_hi[:] = [0] * 16
        self.flags[:] = (0, 0, 0)
        self.outputs.clear()
        self.rng[0] = self._seed0
        self._cyc[0] = 0
        self.steps = 0
        self.finished = False
        self._load(program)

    # -- compilation -----------------------------------------------------------

    def _load(self, program: Program) -> None:
        """(Re)compile *program* into the closure array.

        An instrumented build carries the template tiling it was
        assembled from (``Program.segments``): ``(code, instructions,
        base)`` triples.  Each template's record comes from this VM's
        table, built on a miss from the template's instructions (nothing
        is decoded) and reused verbatim on later loads.  A program
        without a tiling is one whole-program segment ``(text,
        instructions, 0)`` whose record serves this load only.  Either way
        the records are tiled in bulk, control transfers are rebuilt with
        targets read from the patched text, and the rest of the load is
        one path.
        """
        self.program = program
        instrs = self._instrs
        addrs = self._instr_addrs
        a2i = self._addr2idx
        instrs.clear()
        addrs.clear()
        a2i.clear()  # in place: cached ret closures captured this dict
        text = program.text
        model = self.cost_model
        fuse_here = self._fused and self._observer is None
        #: (head, length) of every fused run, recorded only when counting.
        runs = [] if self._counting else None
        self._fcode = None
        segments = program.segments
        whole = segments is None
        if whole:
            segments = ((text, _harvest_blocks(program) or _decode(text), 0),)
        records = self._records
        tiles: list = []  # (record, first instruction index)
        costs: list[int] = []
        expect = 0
        for seg_bytes, seg_instrs, base in segments:
            if base != expect:
                raise ValueError("segments do not tile the text section")
            expect += len(seg_bytes)
            record = None if whole else records.get(seg_bytes)
            if record is None:
                record = _SegmentRecord(seg_instrs, model)
                if not whole:
                    self.compile_misses += 1
                    if len(records) >= SEGMENT_CACHE_MAX:
                        records.clear()
                    records[seg_bytes] = record
            else:
                self.compile_hits += 1
            tiles.append((record, len(instrs)))
            instrs.extend(record.instrs)
            # At base 0 (the whole program) the offsets are the addresses;
            # reusing them spares one int object per instruction.
            addrs.extend(
                [base + off for off in record.offs] if base else record.offs
            )
            costs.extend(record.costs)
        if expect != len(text):
            raise ValueError("segments do not tile the text section")
        a2i.update(zip(addrs, range(len(addrs))))
        self._inst_costs = costs
        # Control transfers carry a zeroed target in a template; read the
        # patched 8-byte immediate instead of decoding.  A whole-program
        # segment's instructions already hold theirs.
        unpack = _I64.unpack_from
        transfers: list[int] = []
        for record, lo in tiles:
            for j in record.ctl:
                i = lo + j
                target = unpack(text, addrs[i] + 4)[0]
                instr = instrs[i]
                if instr.operands[0].value != target:
                    instrs[i] = Instruction(instr.opcode, (Imm(target),), addrs[i])
                transfers.append(i)
        # Fused superinstruction dispatch (see repro.vm.fuse).  Observed
        # VMs never fuse: wrappers must see every dispatch.
        if fuse_here:
            fcode = fuse.build_fcode(self, tiles, _HALT, runs)
            # A program with no fusable run gains nothing from the fused
            # loop's extra None checks; keep the reference loop.
            self._fcode = fcode if any(fcode) else None
        # Fused-run members compile lazily (see _fill); a counting VM
        # compiles eagerly, since a stand-in replaces itself in _code and
        # would drop the counter wrapped around it.
        lazy = fuse_here and runs is None
        shared = self._lazy() if lazy and whole else None
        for record, lo in tiles:
            if not record.ready:
                self._fill(record, lo, lazy, shared)
        code: list = []
        for record, _lo in tiles:
            code.extend(record.closures)
        # Transfers compile at every load, except those a whole-program
        # load left to the shared stand-in.
        build = self._build
        for i in transfers:
            if code[i] is None:
                code[i] = build(i)
        self._code = code
        observer = self._observer
        if observer is not None:
            for i, instr in enumerate(instrs):
                wrapped = observer.wrap(self, i, instr, addrs[i], code[i])
                if wrapped is not None:
                    code[i] = wrapped
        if runs is not None:
            self._install_counters(runs)
        self._entry_idx = a2i[program.entry]

    def _fill(self, record: _SegmentRecord, lo: int, lazy: bool,
              shared) -> None:
        """Fill a new record's closure slots from its placement at *lo*.

        With *lazy* (a fused, non-counting VM), each slot a fused run
        covers gets a stand-in that compiles on first dispatch — only
        deopt paths (mid-run resume, budget tail) ever dispatch there.
        A record that serves one load gets the *shared* position-
        independent stand-in, control transfers included; a template
        record gets one per slot outside ``ctl``, which keeps its closure
        in the record for later loads.  Every other slot outside the
        control transfers compiles now, so no load-time error is
        deferred.
        """
        closures = record.closures
        ctl = set(record.ctl)
        if lazy and record.partition:
            for rel, k_total, *_ in record.partition:
                for j in range(rel, rel + k_total):
                    if shared or j not in ctl:
                        closures[j] = shared or self._lazy(closures, j)
        build = self._build
        for j, closure in enumerate(closures):
            if closure is None and j not in ctl:
                closures[j] = build(lo + j)
        record.ready = True

    def _install_counters(self, runs: list) -> None:
        """Wrap this load's dispatch arrays in execution counters.

        Each reference closure counts itself before it runs, so a
        trapping instruction counts, and so do the budget tail's single
        steps.  Each fused run head counts one completed entry, which
        :meth:`_tally` charges to the run's members.  A run headed for
        the budget tail counts nothing; HALT closes its run, so every
        member ran; a trapping run has repaid its unexecuted suffix to
        ``sl``, so exactly ``left - sl[0]`` members ran, the faulting
        one included.  The wrappers live only in this load's own arrays,
        never in a segment record.
        """
        counts = self._counts = [0] * len(self._instrs)
        entries = self._entries = [0] * len(self._instrs)
        self._runs = runs
        sl = self._sl

        def step(closure):
            def counted(idx):
                counts[idx] += 1
                return closure(idx)
            return counted

        def head(run, k):
            def counted(idx):
                left = sl[0]
                if left < k:
                    return run(idx)
                try:
                    nxt = run(idx)
                except _Halt:
                    entries[idx] += 1
                    raise
                except VmTrap:
                    for i in range(idx, idx + left - sl[0]):
                        counts[i] += 1
                    raise
                entries[idx] += 1
                return nxt
            return counted

        self._code = [step(closure) for closure in self._code]
        fcode = self._fcode
        for h, k in runs:
            fcode[h] = head(fcode[h], k)

    def _lazy(self, store: list | None = None, slot: int = 0):
        """Deferred compile: a stand-in closure that builds the reference
        closure of the instruction it is dispatched at and replaces
        itself in ``_code`` — and, for a template record, in *slot* of
        the record's closure list *store*, so later loads reuse the
        closure.  Only instructions covered by a fused run get one, and
        fusion already validated their shape, so the deferral never
        hides a load-time error.  The stand-in takes its position from
        the dispatch index, so without a *store* one serves every
        covered instruction of a whole-program load."""

        # Defaults rather than free variables: a stand-in then costs one
        # function and one tuple, and a new segment gets one per member.
        def shim(idx, vm=self._weak, store=store, slot=slot):
            closure = vm._code[idx] = vm._build(idx)
            if store is not None:
                store[slot] = closure
            return closure(idx)

        return shim

    def _trap(self, message: str, addr: int):
        raise VmTrap(message, addr)

    # operand accessors -------------------------------------------------------

    def _addr_fn(self, m: Mem):
        gpr = self.gpr
        disp = m.disp
        base = m.base
        index = m.index
        scale = m.scale
        if base is None and index is None:
            return lambda: disp
        if index is None:
            return lambda: gpr[base] + disp
        if base is None:
            return lambda: gpr[index] * scale + disp
        return lambda: gpr[base] + gpr[index] * scale + disp

    def _mem_read(self, m: Mem, iaddr: int):
        addrf = self._addr_fn(m)
        mem = self.mem
        top = len(mem)

        def read():
            a = addrf()
            if 0 <= a < top:
                return mem[a]
            raise _PendingTrap(f"memory read out of bounds: {a}")

        return read

    def _mem_write(self, m: Mem, iaddr: int):
        addrf = self._addr_fn(m)
        mem = self.mem
        top = len(mem)

        def write(value):
            a = addrf()
            if 0 <= a < top:
                mem[a] = value
            else:
                raise _PendingTrap(f"memory write out of bounds: {a}")

        return write

    def _src64(self, operand, iaddr: int):
        """Closure producing a 64-bit value from Reg/Imm/Mem."""
        if isinstance(operand, Reg):
            gpr = self.gpr
            i = operand.index
            return lambda: gpr[i]
        if isinstance(operand, Imm):
            v = operand.value & _M64
            return lambda: v
        if isinstance(operand, Mem):
            return self._mem_read(operand, iaddr)
        raise VmTrap(f"bad source operand {operand!r}", iaddr)

    def _xsrc64(self, operand, iaddr: int):
        """Closure producing a 64-bit FP value from Xmm-low-lane or Mem."""
        if isinstance(operand, Xmm):
            xl = self.xmm_lo
            i = operand.index
            return lambda: xl[i]
        if isinstance(operand, Mem):
            return self._mem_read(operand, iaddr)
        raise VmTrap(f"bad FP source operand {operand!r}", iaddr)

    def _xsrc128(self, operand, iaddr: int):
        """Closure producing (lo, hi) lanes from Xmm or 2-cell Mem."""
        if isinstance(operand, Xmm):
            xl, xh = self.xmm_lo, self.xmm_hi
            i = operand.index
            return lambda: (xl[i], xh[i])
        if isinstance(operand, Mem):
            addrf = self._addr_fn(operand)
            mem = self.mem
            top = len(mem)

            def read2():
                a = addrf()
                if 0 <= a and a + 1 < top:
                    return mem[a], mem[a + 1]
                raise _PendingTrap(f"packed memory read out of bounds: {a}")

            return read2
        raise VmTrap(f"bad packed source operand {operand!r}", iaddr)

    # instruction compiler -------------------------------------------------------

    def _build(self, i: int):
        instr = self._instrs[i]
        op = instr.opcode
        info = OPCODE_INFO[op]
        ops = instr.operands
        iaddr = self._instr_addrs[i]
        cost = self._inst_costs[i]

        cyc = self._cyc
        gpr = self.gpr
        xl = self.xmm_lo
        xh = self.xmm_hi
        flags = self.flags
        mem = self.mem
        a2i = self._addr2idx

        # ---- control ---------------------------------------------------------
        if op is Op.NOP:
            def h_nop(idx, cyc=cyc, cost=cost):
                cyc[0] += cost
                return idx + 1
            return h_nop

        if op is Op.HALT:
            def h_halt(idx, cyc=cyc, cost=cost):
                cyc[0] += cost
                raise _HALT
            return h_halt

        if op is Op.JMP:
            target = self._branch_index(ops[0], iaddr)
            def h_jmp(idx, cyc=cyc, cost=cost + self.cost_model.branch_taken_extra, target=target):
                cyc[0] += cost
                return target
            return h_jmp

        if info.is_cond_branch:
            target = self._branch_index(ops[0], iaddr)
            cond = _COND_TABLE[op]
            taken_cost = cost + self.cost_model.branch_taken_extra
            def h_jcc(idx, cyc=cyc, cost=cost, target=target, flags=flags, cond=cond,
                      taken_cost=taken_cost):
                if cond(flags):
                    cyc[0] += taken_cost
                    return target
                cyc[0] += cost
                return idx + 1
            return h_jcc

        if op is Op.CALL:
            target = self._branch_index(ops[0], iaddr)
            next_addr = (
                self._instr_addrs[i + 1] if i + 1 < len(self._instrs) else -1
            )
            limit = self.stack_limit
            top = len(mem)
            def h_call(idx, cyc=cyc, cost=cost, target=target, gpr=gpr, mem=mem,
                       next_addr=next_addr, limit=limit, top=top):
                sp = gpr[15] - 1
                if sp < limit:
                    raise _PendingTrap("stack overflow on call")
                if sp >= top:
                    raise _PendingTrap("stack underflow on call")
                mem[sp] = next_addr
                gpr[15] = sp
                cyc[0] += cost
                return target
            return h_call

        if op is Op.RET:
            top = len(mem)
            def h_ret(idx, cyc=cyc, cost=cost, gpr=gpr, mem=mem, a2i=a2i, top=top):
                sp = gpr[15]
                if sp >= top:
                    raise _PendingTrap("stack underflow on ret")
                ra = mem[sp]
                gpr[15] = sp + 1
                t = a2i.get(ra)
                if t is None:
                    raise _PendingTrap(f"return to non-instruction address {ra:#x}")
                cyc[0] += cost
                return t
            return h_ret

        if op is Op.OUTI:
            r = ops[0].index
            outputs = self.outputs
            def h_outi(idx, cyc=cyc, cost=cost, gpr=gpr, outputs=outputs, r=r):
                outputs.append(("i", gpr[r]))
                cyc[0] += cost
                return idx + 1
            return h_outi

        if op is Op.OUTSD:
            x = ops[0].index
            outputs = self.outputs
            def h_outsd(idx, cyc=cyc, cost=cost, xl=xl, outputs=outputs, x=x):
                outputs.append(("d", xl[x]))
                cyc[0] += cost
                return idx + 1
            return h_outsd

        if op is Op.OUTSS:
            x = ops[0].index
            outputs = self.outputs
            def h_outss(idx, cyc=cyc, cost=cost, xl=xl, outputs=outputs, x=x):
                outputs.append(("s", xl[x] & _M32))
                cyc[0] += cost
                return idx + 1
            return h_outss

        if op is Op.RAND:
            r = ops[0].index
            rng = self.rng
            def h_rand(idx, cyc=cyc, cost=cost, gpr=gpr, rng=rng, r=r):
                s = rng[0]
                s ^= s >> 12
                s = (s ^ (s << 25)) & _M64
                s ^= s >> 27
                rng[0] = s
                gpr[r] = (s * _XORSHIFT_MULT) & _M64
                cyc[0] += cost
                return idx + 1
            return h_rand

        # ---- integer ---------------------------------------------------------
        if op is Op.MOV:
            dst, src = ops
            if isinstance(dst, Reg):
                d = dst.index
                if isinstance(src, Reg):
                    s = src.index
                    def h_movrr(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, s=s):
                        gpr[d] = gpr[s]
                        cyc[0] += cost
                        return idx + 1
                    return h_movrr
                if isinstance(src, Imm):
                    v = src.value & _M64
                    def h_movri(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, v=v):
                        gpr[d] = v
                        cyc[0] += cost
                        return idx + 1
                    return h_movri
                read = self._mem_read(src, iaddr)
                def h_movrm(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, read=read):
                    gpr[d] = read()
                    cyc[0] += cost
                    return idx + 1
                return h_movrm
            write = self._mem_write(dst, iaddr)
            srcf = self._src64(src, iaddr)
            def h_movm(idx, cyc=cyc, cost=cost, write=write, srcf=srcf):
                write(srcf())
                cyc[0] += cost
                return idx + 1
            return h_movm

        if op is Op.LEA:
            d = ops[0].index
            addrf = self._addr_fn(ops[1])
            def h_lea(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, addrf=addrf):
                gpr[d] = addrf() & _M64
                cyc[0] += cost
                return idx + 1
            return h_lea

        if op in _INT_BIN_PLAIN:
            fn = _INT_BIN_PLAIN[op]
            d = ops[0].index
            srcf = self._src64(ops[1], iaddr)
            def h_ibin(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, srcf=srcf, fn=fn):
                gpr[d] = fn(gpr[d], srcf())
                cyc[0] += cost
                return idx + 1
            return h_ibin

        if op is Op.IDIV or op is Op.IREM:
            fn = _idiv if op is Op.IDIV else _irem
            d = ops[0].index
            srcf = self._src64(ops[1], iaddr)
            def h_idiv(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, srcf=srcf, fn=fn):
                gpr[d] = fn(gpr[d], srcf())
                cyc[0] += cost
                return idx + 1
            return h_idiv

        if op is Op.NOT:
            d = ops[0].index
            def h_not(idx, cyc=cyc, cost=cost, gpr=gpr, d=d):
                gpr[d] = gpr[d] ^ _M64
                cyc[0] += cost
                return idx + 1
            return h_not

        if op is Op.NEG:
            d = ops[0].index
            def h_neg(idx, cyc=cyc, cost=cost, gpr=gpr, d=d):
                gpr[d] = (-gpr[d]) & _M64
                cyc[0] += cost
                return idx + 1
            return h_neg

        if op is Op.INC:
            d = ops[0].index
            def h_inc(idx, cyc=cyc, cost=cost, gpr=gpr, d=d):
                gpr[d] = (gpr[d] + 1) & _M64
                cyc[0] += cost
                return idx + 1
            return h_inc

        if op is Op.DEC:
            d = ops[0].index
            def h_dec(idx, cyc=cyc, cost=cost, gpr=gpr, d=d):
                gpr[d] = (gpr[d] - 1) & _M64
                cyc[0] += cost
                return idx + 1
            return h_dec

        if op is Op.CMP:
            d = ops[0].index
            srcf = self._src64(ops[1], iaddr)
            def h_cmp(idx, cyc=cyc, cost=cost, gpr=gpr, flags=flags, d=d, srcf=srcf):
                a = gpr[d]
                b = srcf()
                flags[0] = 1 if a == b else 0
                flags[1] = 1 if _s64(a) < _s64(b) else 0
                flags[2] = 0
                cyc[0] += cost
                return idx + 1
            return h_cmp

        if op is Op.TEST:
            d = ops[0].index
            srcf = self._src64(ops[1], iaddr)
            def h_test(idx, cyc=cyc, cost=cost, gpr=gpr, flags=flags, d=d, srcf=srcf):
                v = gpr[d] & srcf()
                flags[0] = 1 if v == 0 else 0
                flags[1] = (v >> 63) & 1
                flags[2] = 0
                cyc[0] += cost
                return idx + 1
            return h_test

        if op is Op.PUSH:
            srcf = self._src64(ops[0], iaddr)
            limit = self.stack_limit
            top = len(mem)
            def h_push(idx, cyc=cyc, cost=cost, gpr=gpr, mem=mem, srcf=srcf,
                       limit=limit, top=top):
                sp = gpr[15] - 1
                if sp < limit:
                    raise _PendingTrap("stack overflow")
                if sp >= top:
                    raise _PendingTrap("stack underflow")
                mem[sp] = srcf()
                gpr[15] = sp
                cyc[0] += cost
                return idx + 1
            return h_push

        if op is Op.POP:
            d = ops[0].index
            top = len(mem)
            def h_pop(idx, cyc=cyc, cost=cost, gpr=gpr, mem=mem, d=d, top=top):
                sp = gpr[15]
                if sp >= top:
                    raise _PendingTrap("stack underflow")
                gpr[d] = mem[sp]
                gpr[15] = sp + 1
                cyc[0] += cost
                return idx + 1
            return h_pop

        if op is Op.PUSHX:
            x = ops[0].index
            limit = self.stack_limit
            top = len(mem)
            def h_pushx(idx, cyc=cyc, cost=cost, gpr=gpr, mem=mem, xl=xl, xh=xh,
                        x=x, limit=limit, top=top):
                sp = gpr[15] - 2
                if sp < limit:
                    raise _PendingTrap("stack overflow")
                if sp + 1 >= top:
                    raise _PendingTrap("stack underflow")
                mem[sp] = xl[x]
                mem[sp + 1] = xh[x]
                gpr[15] = sp
                cyc[0] += cost
                return idx + 1
            return h_pushx

        if op is Op.POPX:
            x = ops[0].index
            top = len(mem)
            def h_popx(idx, cyc=cyc, cost=cost, gpr=gpr, mem=mem, xl=xl, xh=xh,
                       x=x, top=top):
                sp = gpr[15]
                if sp + 1 >= top:
                    raise _PendingTrap("stack underflow")
                xl[x] = mem[sp]
                xh[x] = mem[sp + 1]
                gpr[15] = sp + 2
                cyc[0] += cost
                return idx + 1
            return h_popx

        # ---- scalar double -----------------------------------------------------
        if op is Op.MOVSD:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    s = src.index
                    def h_movsdxx(idx, cyc=cyc, cost=cost, xl=xl, d=d, s=s):
                        xl[d] = xl[s]
                        cyc[0] += cost
                        return idx + 1
                    return h_movsdxx
                read = self._mem_read(src, iaddr)
                def h_movsdxm(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, d=d, read=read):
                    xl[d] = read()
                    xh[d] = 0
                    cyc[0] += cost
                    return idx + 1
                return h_movsdxm
            write = self._mem_write(dst, iaddr)
            s = src.index
            def h_movsdmx(idx, cyc=cyc, cost=cost, xl=xl, s=s, write=write):
                write(xl[s])
                cyc[0] += cost
                return idx + 1
            return h_movsdmx

        if op is Op.MOVAPD:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                read2 = self._xsrc128(src, iaddr)
                def h_movapdx(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, d=d, read2=read2):
                    xl[d], xh[d] = read2()
                    cyc[0] += cost
                    return idx + 1
                return h_movapdx
            addrf = self._addr_fn(dst)
            s = src.index
            top = len(mem)
            def h_movapdm(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, s=s, mem=mem,
                          addrf=addrf, top=top):
                a = addrf()
                if not (0 <= a and a + 1 < top):
                    raise _PendingTrap(f"packed memory write out of bounds: {a}")
                mem[a] = xl[s]
                mem[a + 1] = xh[s]
                cyc[0] += cost
                return idx + 1
            return h_movapdm

        if op in FPD_BIN:
            fn = FPD_BIN[op]
            d = ops[0].index
            if isinstance(ops[1], Xmm):
                s = ops[1].index
                def h_fpdxx(idx, cyc=cyc, cost=cost, xl=xl, d=d, s=s, fn=fn):
                    xl[d] = fn(xl[d], xl[s])
                    cyc[0] += cost
                    return idx + 1
                return h_fpdxx
            read = self._mem_read(ops[1], iaddr)
            def h_fpdxm(idx, cyc=cyc, cost=cost, xl=xl, d=d, read=read, fn=fn):
                xl[d] = fn(xl[d], read())
                cyc[0] += cost
                return idx + 1
            return h_fpdxm

        if op in FPD_UN:
            fn = FPD_UN[op]
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_fpdun(idx, cyc=cyc, cost=cost, xl=xl, d=d, srcf=srcf, fn=fn):
                xl[d] = fn(srcf())
                cyc[0] += cost
                return idx + 1
            return h_fpdun

        if op is Op.UCOMISD:
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_ucomisd(idx, cyc=cyc, cost=cost, xl=xl, flags=flags, d=d, srcf=srcf):
                a = bits_to_double(xl[d])
                b = bits_to_double(srcf())
                if a != a or b != b:
                    flags[0], flags[1], flags[2] = 1, 0, 1
                else:
                    flags[0] = 1 if a == b else 0
                    flags[1] = 1 if a < b else 0
                    flags[2] = 0
                cyc[0] += cost
                return idx + 1
            return h_ucomisd

        if op is Op.CVTSI2SD:
            d = ops[0].index
            s = ops[1].index
            def h_cvtsi2sd(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s):
                xl[d] = double_to_bits(float(_s64(gpr[s])))
                cyc[0] += cost
                return idx + 1
            return h_cvtsi2sd

        if op is Op.CVTTSD2SI:
            d = ops[0].index
            s = ops[1].index
            def h_cvttsd2si(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s):
                v = bits_to_double(xl[s])
                if v != v or v >= 9.223372036854776e18 or v < -9.223372036854776e18:
                    gpr[d] = _INT_INDEFINITE
                else:
                    gpr[d] = int(v) & _M64
                cyc[0] += cost
                return idx + 1
            return h_cvttsd2si

        if op is Op.CVTSD2SS:
            d = ops[0].index
            s = ops[1].index
            def h_cvtsd2ss(idx, cyc=cyc, cost=cost, xl=xl, d=d, s=s):
                xl[d] = (xl[d] & _HI32) | single_to_bits(bits_to_double(xl[s]))
                cyc[0] += cost
                return idx + 1
            return h_cvtsd2ss

        if op is Op.CVTSS2SD:
            d = ops[0].index
            s = ops[1].index
            def h_cvtss2sd(idx, cyc=cyc, cost=cost, xl=xl, d=d, s=s):
                xl[d] = double_to_bits(bits_to_single(xl[s] & _M32))
                cyc[0] += cost
                return idx + 1
            return h_cvtss2sd

        if op is Op.MOVQXR:
            d = ops[0].index
            s = ops[1].index
            def h_movqxr(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s):
                xl[d] = gpr[s]
                cyc[0] += cost
                return idx + 1
            return h_movqxr

        if op is Op.MOVQRX:
            d = ops[0].index
            s = ops[1].index
            def h_movqrx(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s):
                gpr[d] = xl[s]
                cyc[0] += cost
                return idx + 1
            return h_movqrx

        # ---- packed double -----------------------------------------------------
        if op in PD_BIN:
            fn = PD_BIN[op]
            d = ops[0].index
            read2 = self._xsrc128(ops[1], iaddr)
            def h_pd(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, d=d, read2=read2, fn=fn):
                lo, hi = read2()
                xl[d] = fn(xl[d], lo)
                xh[d] = fn(xh[d], hi)
                cyc[0] += cost
                return idx + 1
            return h_pd

        if op is Op.SQRTPD:
            d = ops[0].index
            read2 = self._xsrc128(ops[1], iaddr)
            sqrt = ieee.double_sqrt
            def h_sqrtpd(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, d=d, read2=read2, sqrt=sqrt):
                lo, hi = read2()
                xl[d] = sqrt(lo)
                xh[d] = sqrt(hi)
                cyc[0] += cost
                return idx + 1
            return h_sqrtpd

        # ---- scalar single -----------------------------------------------------
        if op is Op.MOVSS:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    s = src.index
                    def h_movssxx(idx, cyc=cyc, cost=cost, xl=xl, d=d, s=s):
                        xl[d] = (xl[d] & _HI32) | (xl[s] & _M32)
                        cyc[0] += cost
                        return idx + 1
                    return h_movssxx
                read = self._mem_read(src, iaddr)
                def h_movssxm(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, d=d, read=read):
                    xl[d] = read() & _M32
                    xh[d] = 0
                    cyc[0] += cost
                    return idx + 1
                return h_movssxm
            addrf = self._addr_fn(dst)
            s = src.index
            top = len(mem)
            def h_movssmx(idx, cyc=cyc, cost=cost, xl=xl, s=s, mem=mem, addrf=addrf, top=top):
                a = addrf()
                if not 0 <= a < top:
                    raise _PendingTrap(f"memory write out of bounds: {a}")
                mem[a] = (mem[a] & _HI32) | (xl[s] & _M32)
                cyc[0] += cost
                return idx + 1
            return h_movssmx

        if op in FPS_BIN:
            fn = FPS_BIN[op]
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_fps(idx, cyc=cyc, cost=cost, xl=xl, d=d, srcf=srcf, fn=fn):
                v = xl[d]
                xl[d] = (v & _HI32) | fn(v & _M32, srcf() & _M32)
                cyc[0] += cost
                return idx + 1
            return h_fps

        if op in FPS_UN:
            fn = FPS_UN[op]
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_fpsun(idx, cyc=cyc, cost=cost, xl=xl, d=d, srcf=srcf, fn=fn):
                xl[d] = (xl[d] & _HI32) | fn(srcf() & _M32)
                cyc[0] += cost
                return idx + 1
            return h_fpsun

        if op is Op.UCOMISS:
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_ucomiss(idx, cyc=cyc, cost=cost, xl=xl, flags=flags, d=d, srcf=srcf):
                a = bits_to_single(xl[d] & _M32)
                b = bits_to_single(srcf() & _M32)
                if a != a or b != b:
                    flags[0], flags[1], flags[2] = 1, 0, 1
                else:
                    flags[0] = 1 if a == b else 0
                    flags[1] = 1 if a < b else 0
                    flags[2] = 0
                cyc[0] += cost
                return idx + 1
            return h_ucomiss

        if op is Op.CVTSI2SS:
            d = ops[0].index
            s = ops[1].index
            def h_cvtsi2ss(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s):
                xl[d] = (xl[d] & _HI32) | single_to_bits(float(_s64(gpr[s])))
                cyc[0] += cost
                return idx + 1
            return h_cvtsi2ss

        if op is Op.CVTTSS2SI:
            d = ops[0].index
            s = ops[1].index
            def h_cvttss2si(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s):
                v = bits_to_single(xl[s] & _M32)
                if v != v or v >= 9.223372036854776e18 or v < -9.223372036854776e18:
                    gpr[d] = _INT_INDEFINITE
                else:
                    gpr[d] = int(v) & _M64
                cyc[0] += cost
                return idx + 1
            return h_cvttss2si

        # ---- scalar narrow (bfloat16 / binary16) -------------------------------
        if op in FPN_BIN:
            fn = FPN_BIN[op]
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_fpn(idx, cyc=cyc, cost=cost, xl=xl, d=d, srcf=srcf, fn=fn):
                v = xl[d]
                xl[d] = (v & _HI32) | fn(v & 0xFFFF, srcf() & 0xFFFF)
                cyc[0] += cost
                return idx + 1
            return h_fpn

        if op in FPN_UN:
            fn = FPN_UN[op]
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_fpnun(idx, cyc=cyc, cost=cost, xl=xl, d=d, srcf=srcf, fn=fn):
                xl[d] = (xl[d] & _HI32) | fn(srcf() & 0xFFFF)
                cyc[0] += cost
                return idx + 1
            return h_fpnun

        if op is Op.UCOMIBF or op is Op.UCOMIHF:
            dec = FPN_CODEC[op][0]
            d = ops[0].index
            srcf = self._xsrc64(ops[1], iaddr)
            def h_ucomin(idx, cyc=cyc, cost=cost, xl=xl, flags=flags, d=d,
                         srcf=srcf, dec=dec):
                a = dec(xl[d] & 0xFFFF)
                b = dec(srcf() & 0xFFFF)
                if a != a or b != b:
                    flags[0], flags[1], flags[2] = 1, 0, 1
                else:
                    flags[0] = 1 if a == b else 0
                    flags[1] = 1 if a < b else 0
                    flags[2] = 0
                cyc[0] += cost
                return idx + 1
            return h_ucomin

        if op is Op.CVTSI2BF or op is Op.CVTSI2HF:
            enc = FPN_CODEC[op][1]
            d = ops[0].index
            s = ops[1].index
            def h_cvtsi2n(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s, enc=enc):
                xl[d] = (xl[d] & _HI32) | enc(float(_s64(gpr[s])))
                cyc[0] += cost
                return idx + 1
            return h_cvtsi2n

        if op is Op.CVTTBF2SI or op is Op.CVTTHF2SI:
            dec = FPN_CODEC[op][0]
            d = ops[0].index
            s = ops[1].index
            def h_cvttn2si(idx, cyc=cyc, cost=cost, xl=xl, gpr=gpr, d=d, s=s, dec=dec):
                v = dec(xl[s] & 0xFFFF)
                if v != v or v >= 9.223372036854776e18 or v < -9.223372036854776e18:
                    gpr[d] = _INT_INDEFINITE
                else:
                    gpr[d] = int(v) & _M64
                cyc[0] += cost
                return idx + 1
            return h_cvttn2si

        if op is Op.CVTSD2BF or op is Op.CVTSD2HF:
            enc = FPN_CODEC[op][1]
            d = ops[0].index
            s = ops[1].index
            def h_cvtsd2n(idx, cyc=cyc, cost=cost, xl=xl, d=d, s=s, enc=enc):
                xl[d] = (xl[d] & _HI32) | enc(bits_to_double(xl[s]))
                cyc[0] += cost
                return idx + 1
            return h_cvtsd2n

        if op is Op.CVTBF2SD or op is Op.CVTHF2SD:
            dec = FPN_CODEC[op][0]
            d = ops[0].index
            s = ops[1].index
            def h_cvtn2sd(idx, cyc=cyc, cost=cost, xl=xl, d=d, s=s, dec=dec):
                xl[d] = double_to_bits(dec(xl[s] & 0xFFFF))
                cyc[0] += cost
                return idx + 1
            return h_cvtn2sd

        # ---- packed single -----------------------------------------------------
        if op in PS_BIN:
            fn = PS_BIN[op]
            d = ops[0].index
            read2 = self._xsrc128(ops[1], iaddr)
            def h_ps(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, d=d, read2=read2, fn=fn):
                lo, hi = read2()
                a = xl[d]
                xl[d] = (fn((a >> 32) & _M32, (lo >> 32) & _M32) << 32) | fn(a & _M32, lo & _M32)
                b = xh[d]
                xh[d] = (fn((b >> 32) & _M32, (hi >> 32) & _M32) << 32) | fn(b & _M32, hi & _M32)
                cyc[0] += cost
                return idx + 1
            return h_ps

        if op is Op.SQRTPS:
            d = ops[0].index
            read2 = self._xsrc128(ops[1], iaddr)
            sqrt = ieee.single_sqrt
            def h_sqrtps(idx, cyc=cyc, cost=cost, xl=xl, xh=xh, d=d, read2=read2, sqrt=sqrt):
                lo, hi = read2()
                xl[d] = (sqrt((lo >> 32) & _M32) << 32) | sqrt(lo & _M32)
                xh[d] = (sqrt((hi >> 32) & _M32) << 32) | sqrt(hi & _M32)
                cyc[0] += cost
                return idx + 1
            return h_sqrtps

        # ---- lane access ---------------------------------------------------------
        if op is Op.PEXTR:
            d = ops[0].index
            x = ops[1].index
            lane = ops[2].value
            if lane not in (0, 1):
                raise VmTrap(f"pextr lane must be 0 or 1, got {lane}", iaddr)
            src = xl if lane == 0 else xh
            def h_pextr(idx, cyc=cyc, cost=cost, gpr=gpr, src=src, d=d, x=x):
                gpr[d] = src[x]
                cyc[0] += cost
                return idx + 1
            return h_pextr

        if op is Op.PINSR:
            x = ops[0].index
            s = ops[1].index
            lane = ops[2].value
            if lane not in (0, 1):
                raise VmTrap(f"pinsr lane must be 0 or 1, got {lane}", iaddr)
            dst = xl if lane == 0 else xh
            def h_pinsr(idx, cyc=cyc, cost=cost, gpr=gpr, dst=dst, x=x, s=s):
                dst[x] = gpr[s]
                cyc[0] += cost
                return idx + 1
            return h_pinsr

        # ---- MPI -----------------------------------------------------------------
        if op is Op.MPIRANK:
            d = ops[0].index
            rank = self.rank
            def h_rank(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, rank=rank):
                gpr[d] = rank
                cyc[0] += cost
                return idx + 1
            return h_rank

        if op is Op.MPISIZE:
            d = ops[0].index
            size = self.size
            def h_size(idx, cyc=cyc, cost=cost, gpr=gpr, d=d, size=size):
                gpr[d] = size
                cyc[0] += cost
                return idx + 1
            return h_size

        if op in (Op.ALLRED, Op.ALLREDSS, Op.BCASTSD):
            x = ops[0].index
            arg = ops[1].value
            kind = {"allred": "allred", "allredss": "allredss", "bcastsd": "bcastsd"}[
                info.mnemonic
            ]
            if arg not in (RED_SUM, RED_MIN, RED_MAX) and op is not Op.BCASTSD:
                raise VmTrap(f"bad reduction selector {arg}", iaddr)
            if self.size == 1:
                def h_mpi1(idx, cyc=cyc, cost=cost):
                    cyc[0] += cost
                    return idx + 1
                return h_mpi1
            def h_mpi(idx, cyc=cyc, cost=cost, kind=kind, x=x, arg=arg):
                cyc[0] += cost
                raise CollectiveYield(kind, idx + 1, xmm=x, arg=arg)
            return h_mpi

        if op in (Op.ALLREDV, Op.ALLREDVSS):
            addrf = self._addr_fn(ops[0])
            arg = ops[1].value
            cnt_reg = ops[2].index
            kind = "allredv" if op is Op.ALLREDV else "allredvss"
            if arg not in (RED_SUM, RED_MIN, RED_MAX):
                raise VmTrap(f"bad reduction selector {arg}", iaddr)
            top = len(mem)
            if self.size == 1:
                def h_mpiv1(idx, cyc=cyc, cost=cost, gpr=gpr, addrf=addrf,
                            cnt_reg=cnt_reg, top=top):
                    a = addrf()
                    n = gpr[cnt_reg]
                    if not (0 <= a and a + n <= top):
                        raise _PendingTrap(f"vector collective out of bounds: {a}+{n}")
                    cyc[0] += cost
                    return idx + 1
                return h_mpiv1
            def h_mpiv(idx, cyc=cyc, cost=cost, gpr=gpr, addrf=addrf,
                       cnt_reg=cnt_reg, kind=kind, arg=arg, top=top):
                a = addrf()
                n = gpr[cnt_reg]
                if not (0 <= a and a + n <= top):
                    raise _PendingTrap(f"vector collective out of bounds: {a}+{n}")
                cyc[0] += cost
                raise CollectiveYield(kind, idx + 1, arg=arg, addr=a, count=n)
            return h_mpiv

        if op is Op.BARRIER:
            if self.size == 1:
                def h_bar1(idx, cyc=cyc, cost=cost):
                    cyc[0] += cost
                    return idx + 1
                return h_bar1
            def h_bar(idx, cyc=cyc, cost=cost):
                cyc[0] += cost
                raise CollectiveYield("barrier", idx + 1)
            return h_bar

        raise VmTrap(f"no handler for opcode {info.mnemonic}", iaddr)

    def _branch_index(self, operand, iaddr: int) -> int:
        if not isinstance(operand, Imm):
            raise VmTrap("branch target must be immediate", iaddr)
        target = self._addr2idx.get(operand.value)
        if target is None:
            raise VmTrap(
                f"branch to non-instruction address {operand.value:#x}", iaddr
            )
        return target


_COND_TABLE = {
    Op.JE: lambda f: f[0],
    Op.JNE: lambda f: not f[0],
    Op.JL: lambda f: f[1],
    Op.JLE: lambda f: f[1] or f[0],
    Op.JG: lambda f: not (f[1] or f[0] or f[2]),
    Op.JGE: lambda f: not f[1] and not f[2],
    Op.JP: lambda f: f[2],
    Op.JNP: lambda f: not f[2],
}


class Machine:
    """Persistent single-rank executor amortizing closure compilation.

    A Machine owns at most one live :class:`VM`, and with it the VM's
    segment records.  :meth:`run` reuses the VM's state arrays and
    records whenever the next program has the same data image as the
    current one — always true across the instrumented variants of a
    single workload, which is the search's hot path — and otherwise
    starts a fresh VM.  State is fully
    reset between runs, so results (outputs, cycles, steps) are identical
    to a fresh :func:`run_program` call; the differential tests assert
    this bit-for-bit.

    The optional *telemetry* only feeds the ``vm.compile_cache_*`` and
    ``vm.fuse_cache_*`` metric counters.  It is deliberately not passed
    into the VM: the evaluation path runs the VM silent (exactly like
    the seed's ``run_program(..., telemetry=None)``), keeping traces
    byte-compatible, and never counting executions.
    """

    def __init__(
        self,
        stack_words: int = 8192,
        seed: int = 0x9E3779B97F4A7C15,
        max_steps: int = 200_000_000,
        cost_model: CostModel | None = None,
        telemetry=None,
    ) -> None:
        self.stack_words = stack_words
        self.seed = seed
        self.max_steps = max_steps
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.runs = 0
        self._vm: VM | None = None

    @property
    def compile_cache_hits(self) -> int:
        return self._vm.compile_hits if self._vm is not None else 0

    @property
    def compile_cache_misses(self) -> int:
        return self._vm.compile_misses if self._vm is not None else 0

    @property
    def fuse_cache_hits(self) -> int:
        return self._vm.fuse_hits if self._vm is not None else 0

    @property
    def fuse_cache_misses(self) -> int:
        return self._vm.fuse_misses if self._vm is not None else 0

    def run(self, program: Program) -> ExecResult:
        """Execute *program* to HALT, like :func:`run_program`.

        An instrumented build reuses the records of its templates that
        earlier loads built; a program without a template tiling loads
        whole, with no closure reuse (the VM and its state arrays are
        still recycled).
        """
        vm = self._vm
        if vm is not None and program.data_image == vm._data_image0:
            before = (vm.compile_hits, vm.compile_misses,
                      vm.fuse_hits, vm.fuse_misses)
            vm.rebind(program)
        else:
            before = (0, 0, 0, 0)
            vm = self._vm = VM(
                program,
                stack_words=self.stack_words,
                seed=self.seed,
                max_steps=self.max_steps,
                cost_model=self.cost_model,
            )
        self.runs += 1
        try:
            return vm.run()
        finally:
            t = self.telemetry
            if t.enabled:
                t.count("vm.compile_cache_hits", vm.compile_hits - before[0])
                t.count("vm.compile_cache_misses", vm.compile_misses - before[1])
                t.count("vm.fuse_cache_hits", vm.fuse_hits - before[2])
                t.count("vm.fuse_cache_misses", vm.fuse_misses - before[3])


def run_program(
    program: Program,
    stack_words: int = 8192,
    seed: int = 0x9E3779B97F4A7C15,
    max_steps: int = 200_000_000,
    profile: bool = False,
    cost_model: CostModel | None = None,
    telemetry=None,
    observer=None,
    fused: bool = True,
) -> ExecResult:
    """Load and run *program* single-rank; returns its :class:`ExecResult`.

    With *telemetry* enabled, a ``vm.opcodes`` census event is emitted
    after the run (trap events are emitted from inside the VM).  An
    *observer* (see :mod:`repro.analysis`) watches execution without
    changing outputs, cycles, or trap behaviour.
    """
    vm = VM(
        program,
        stack_words=stack_words,
        seed=seed,
        max_steps=max_steps,
        profile=profile,
        cost_model=cost_model,
        telemetry=telemetry,
        observer=observer,
        fused=fused,
    )
    result = vm.run()
    vm.publish()
    return result
