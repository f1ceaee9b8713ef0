"""Per-instruction shadow channels: exact singleton-replacement verdicts.

Magnitude heuristics cannot decide replaceability: over the NAS suite
there are single-instruction configurations that *pass* verification
while carrying the largest local error of the whole suite, and ones
that *fail* with errors below the verification bound (the recurrence
structure of the benchmark, not the size of any one rounding error,
decides the outcome).  Pruning from per-instruction error statistics is
therefore unsound at every threshold.

This module instead *simulates* the instrumented runs themselves.  One
observed execution of the original program maintains, per candidate
instruction ``c``, a **channel**: a sparse, bit-exact mirror of the run
the search would perform for the configuration "only ``c`` is single".
A channel stores just the 64-bit *differences* from the observed
baseline — per XMM lane, per general-purpose register, per memory word
— plus the output records that differ.  The mirrored semantics are
exactly those of the instrumentation snippets (paper Section 2.3):

* at ``c`` itself: operands are downcast in place to flagged
  single-in-double slots (``0x7FF4DEAD`` sentinel) unless already
  flagged, the single-precision opcode runs, and the result carries the
  sentinel — :func:`repro.fpbits.replace.downcast_in_place` is the same
  bit function the snippet's CVTSD2SS+flag sequence computes;
* at every *other* candidate: the double-precision guard — flagged
  register operands are upcast in place, memory operands are read
  through a scratch copy (memory stays flagged), then the double opcode
  runs;
* everywhere else: the program's own bit semantics.  Data *transport*
  preserves divergence exactly: moves, loads, stores, push/pop and the
  ``movqrx``/``movqxr`` bit transfers the compiler's calling convention
  uses to pass floating-point arguments through integer registers and
  stack slots.

Divergence may flow through transports, but the moment it would alter
*behavior* the simulation cannot follow — integer arithmetic or
comparison on a diverged register, an address computed from one, a
three-way FP compare whose relation differs from the baseline (the
instrumented run would branch differently), a float-to-int conversion
producing a different integer — the channel is marked **unknown** and
never yields a verdict.  Unknown is always sound: it costs an
evaluation, never a wrong prune.

After the run, substituting a channel's output overrides into the
baseline output stream and running the workload's own verification
routine gives the exact pass/fail outcome of that singleton
configuration — the foundation of the search guide's pruning
(:mod:`repro.analysis.guide`).
"""

from __future__ import annotations

from repro.analysis.observer import _relation, _trunc
from repro.fpbits.ieee import (
    bits_to_double,
    bits_to_single,
    double_to_bits,
    single_from_int,
    single_to_bits,
)
from repro.fpbits.replace import (
    REPLACED_FLAG_SHIFTED,
    downcast_in_place,
    upcast_in_place,
)
from repro.isa.opcodes import OPCODE_INFO, Op
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.vm.fpops import FPD_BIN, FPD_UN, FPN_BIN, FPN_UN

_M32 = 0xFFFFFFFF

# Location space: one int per tracked 64-bit slot.  XMM low lanes are
# 0..15, XMM high lanes 16..31, GPRs 32..47, memory word *a* is 48 + a.
_XH = 16
_GPR = 32
_MEM = 48

# Candidate scalar arithmetic: the double semantics the guard runs and
# the single semantics the replacement runs (the VM's own tables).
_F32_BIN = {op: FPN_BIN[OPCODE_INFO[op].single_equiv] for op in FPD_BIN}
_F32_UN = {op: FPN_UN[OPCODE_INFO[op].single_equiv] for op in FPD_UN}

#: integer ops computing on their operands: a diverged input register or
#: memory word changes the result, which the model does not follow.
_INT_COMPUTE = frozenset(
    (
        Op.ADD, Op.SUB, Op.IMUL, Op.AND, Op.OR, Op.XOR,
        Op.SHL, Op.SHR, Op.SAR, Op.IDIV, Op.IREM, Op.CMP, Op.TEST,
        Op.NOT, Op.NEG, Op.INC, Op.DEC,
    )
)

#: collectives: no-ops at one rank, out of model beyond.
_MPI_OPS = frozenset(
    (
        Op.ALLRED, Op.ALLREDSS, Op.ALLREDV, Op.ALLREDVSS,
        Op.BARRIER, Op.BCASTSD,
    )
)

#: ops that cannot carry or consume divergence at all.
_NEUTRAL = frozenset(
    (
        Op.HALT, Op.NOP, Op.JMP, Op.JE, Op.JNE, Op.JL, Op.JLE, Op.JG,
        Op.JGE, Op.JP, Op.JNP,
    )
)


class Channel:
    """Sparse mirror of the run where exactly one instruction is single."""

    __slots__ = ("addr", "diffs", "out", "unknown", "why")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.diffs: dict[int, int] = {}   # location -> channel's 64-bit value
        self.out: dict[int, tuple] = {}   # output index -> overriding record
        self.unknown = False
        self.why = ""                     # why the verdict was lost


def _mem_gpr_locs(m: Mem) -> tuple:
    """GPR locations an address computation reads."""
    locs = []
    if m.base is not None:
        locs.append(_GPR + m.base)
    if m.index is not None:
        locs.append(_GPR + m.index)
    return tuple(locs)


class ChannelObserver:
    """VM observer running every singleton-replacement channel at once.

    Attach via ``run_program(..., observer=ChannelObserver())`` (or
    chained behind the statistics observer, as :func:`repro.analysis.
    analyzer.analyze` does).  Architectural state is never touched;
    outputs, cycles and traps are bit-identical with or without the
    observer.  After the run:

    * ``channels`` maps candidate text address -> :class:`Channel`;
    * :meth:`outputs_for` yields the exact output stream of that
      address's singleton run (or None when the channel is unknown).
    """

    def __init__(self) -> None:
        self.channels: dict[int, Channel] = {}
        #: location -> set of channels diverged at that location
        self.rev: dict[int, set] = {}
        #: True once an unmodeled global effect (multi-rank collective)
        #: invalidated every verdict, past and future.
        self.tainted = False
        self._out_n = 0

    # -- channel state maintenance ---------------------------------------

    def _channel(self, addr: int) -> Channel:
        ch = self.channels.get(addr)
        if ch is None:
            ch = self.channels[addr] = Channel(addr)
        return ch

    def _set(self, ch: Channel, loc: int, bits: int, base: int) -> None:
        """Record that *ch* holds *bits* at *loc* where the baseline holds
        *base* (a matching value removes any existing divergence)."""
        if bits == base:
            if ch.diffs.pop(loc, None) is not None:
                s = self.rev.get(loc)
                if s:
                    s.discard(ch)
        else:
            if loc not in ch.diffs:
                self.rev.setdefault(loc, set()).add(ch)
            ch.diffs[loc] = bits

    def _clear(self, loc: int) -> None:
        """The baseline overwrote *loc* with a value every channel shares."""
        s = self.rev.pop(loc, None)
        if s:
            for ch in s:
                ch.diffs.pop(loc, None)

    def _kill(self, ch: Channel, why: str) -> None:
        """Divergence escaped the model: no verdict for this channel."""
        rev = self.rev
        for loc in ch.diffs:
            s = rev.get(loc)
            if s:
                s.discard(ch)
        ch.diffs.clear()
        ch.out.clear()
        ch.unknown = True
        ch.why = why

    def _kill_at(self, loc: int, why: str) -> None:
        s = self.rev.get(loc)
        if s:
            for ch in tuple(s):
                self._kill(ch, why)

    def _move(self, src_loc: int, dst_loc: int, base_src: int,
              base_dst_after: int) -> None:
        """Bit transport from *src_loc* into *dst_loc* for every channel
        diverged at either location."""
        rev = self.rev
        ss = rev.get(src_loc)
        sd = rev.get(dst_loc)
        if not ss and not sd:
            return
        aff = set(ss) if ss else set()
        if sd:
            aff |= sd
        _set = self._set
        for ch in aff:
            _set(
                ch, dst_loc, ch.diffs.get(src_loc, base_src), base_dst_after
            )

    def _touched(self, *locs: int):
        """Channels diverged at any of *locs* (empty tuple when none)."""
        rev = self.rev
        out = None
        for loc in locs:
            s = rev.get(loc)
            if s:
                out = set(s) if out is None else out | s
        return out if out is not None else ()

    # -- results ----------------------------------------------------------

    def outputs_for(self, addr: int, baseline_outputs: list) -> list | None:
        """The singleton run's raw output records, or None if unknown."""
        if self.tainted:
            return None
        ch = self.channels.get(addr)
        if ch is None:
            return list(baseline_outputs)
        if ch.unknown:
            return None
        if not ch.out:
            return list(baseline_outputs)
        outs = list(baseline_outputs)
        for i, rec in ch.out.items():
            outs[i] = rec
        return outs

    # -- the hook ----------------------------------------------------------

    def wrap(self, vm, index: int, instr, addr: int, closure):
        """Return a wrapper closure for *instr*, or None to leave it be."""
        op = instr.opcode
        if op in _NEUTRAL:
            return None
        if op in FPD_BIN:
            return self._wrap_scalar_bin(vm, instr, addr, closure)
        if op in FPD_UN:
            return self._wrap_scalar_un(vm, instr, addr, closure)
        if op is Op.UCOMISD:
            return self._wrap_ucomisd(vm, instr, addr, closure)
        if op is Op.CVTSI2SD:
            return self._wrap_cvtsi2sd(vm, instr, addr, closure)
        if op is Op.CVTTSD2SI:
            return self._wrap_cvttsd2si(vm, instr, addr, closure)
        if op is Op.MOVSD:
            return self._wrap_movsd(vm, instr, closure)
        if op is Op.MOV:
            return self._wrap_mov(vm, instr, closure)
        if op in _INT_COMPUTE:
            return self._wrap_int_compute(vm, instr, closure)
        if op is Op.LEA:
            return self._wrap_lea(vm, instr, closure)
        if op is Op.PUSH:
            return self._wrap_push(vm, instr, closure)
        if op is Op.POP:
            return self._wrap_pop(vm, instr, closure)
        if op is Op.CALL:
            return self._wrap_call(vm, closure)
        if op is Op.RET:
            return self._wrap_ret(vm, closure)
        if op is Op.MOVQXR:
            return self._wrap_movq(instr.operands[0].index,
                                   _GPR + instr.operands[1].index, vm, closure)
        if op is Op.MOVQRX:
            return self._wrap_movq(_GPR + instr.operands[0].index,
                                   instr.operands[1].index, vm, closure)
        if op is Op.MOVAPD:
            return self._wrap_movapd(vm, instr, closure)
        if op is Op.MOVSS:
            return self._wrap_movss(vm, instr, closure)
        if op is Op.CVTSD2SS:
            return self._wrap_cvtsd2ss(vm, instr, closure)
        if op is Op.CVTSS2SD:
            return self._wrap_cvtss2sd(vm, instr, closure)
        if op is Op.PUSHX:
            return self._wrap_pushx(vm, instr, closure)
        if op is Op.POPX:
            return self._wrap_popx(vm, instr, closure)
        if op is Op.PEXTR:
            return self._wrap_pextr(vm, instr, closure)
        if op is Op.PINSR:
            return self._wrap_pinsr(vm, instr, closure)
        if op is Op.OUTSD or op is Op.OUTSS or op is Op.OUTI:
            return self._wrap_out(vm, instr, closure)
        if op is Op.RAND or op is Op.MPIRANK or op is Op.MPISIZE:
            loc = _GPR + instr.operands[0].index
            return self._wrap_clear_dst(loc, closure)
        if op in _MPI_OPS:
            if vm.size == 1:
                if op is Op.ALLREDV or op is Op.ALLREDVSS:
                    # bounds check only; the count register and address
                    # still steer behavior.
                    return self._wrap_guard_only(
                        vm, instr.operands[0],
                        (_GPR + instr.operands[2].index,), closure
                    )
                return None  # single-rank collectives are no-ops
            return self._wrap_kill_all(closure)
        # Anything else touching tracked state is out of model:
        # conservatively kill every channel diverged at an operand slot.
        return self._wrap_conservative(vm, instr, addr, closure)

    # -- address divergence ------------------------------------------------

    def _guard_addr(self, locs: tuple) -> None:
        """A diverged register feeding an address computation sends the
        channel's access to a different location: out of model."""
        for loc in locs:
            self._kill_at(loc, "address-diverged")

    def _wrap_guard_only(self, vm, m: Mem, extra_locs: tuple, closure):
        locs = _mem_gpr_locs(m) + extra_locs

        def w_guard(idx):
            self._guard_addr(locs)
            return closure(idx)

        return w_guard

    # -- candidate arithmetic ---------------------------------------------

    def _wrap_scalar_bin(self, vm, instr, addr, closure):
        op = instr.opcode
        fn64 = FPD_BIN[op]
        fn32 = _F32_BIN[op]
        xl = vm.xmm_lo
        channels = self.channels
        rev = self.rev
        _set = self._set
        d = instr.operands[0].index
        src = instr.operands[1]
        if isinstance(src, Xmm):
            s = src.index

            def w_bin_xx(idx):
                a0 = xl[d]
                b0 = xl[s]
                nxt = closure(idx)
                r0 = xl[d]
                own = channels.get(addr)
                if own is None:
                    own = channels[addr] = Channel(addr)
                sd = rev.get(d)
                ss = rev.get(s)
                if sd or ss:
                    aff = set(sd) if sd else set()
                    if ss:
                        aff |= ss
                    aff.discard(own)
                else:
                    aff = ()
                if not own.unknown:
                    va = own.diffs.get(d, a0)
                    fa = downcast_in_place(va)
                    if s == d:
                        fb = fa
                    else:
                        fb = downcast_in_place(own.diffs.get(s, b0))
                        _set(own, s, fb, b0)
                    _set(
                        own, d,
                        REPLACED_FLAG_SHIFTED | fn32(fa & _M32, fb & _M32),
                        r0,
                    )
                for ch in aff:
                    ua = upcast_in_place(ch.diffs.get(d, a0))
                    if s == d:
                        ub = ua
                    else:
                        ub = upcast_in_place(ch.diffs.get(s, b0))
                        _set(ch, s, ub, b0)
                    _set(ch, d, fn64(ua, ub), r0)
                return nxt

            return w_bin_xx
        addrf = vm._addr_fn(src)
        alocs = _mem_gpr_locs(src)
        mem = vm.mem
        top = len(mem)

        def w_bin_xm(idx):
            self._guard_addr(alocs)
            a = addrf()
            if not 0 <= a < top:
                return closure(idx)  # out of bounds: the closure traps
            a0 = xl[d]
            b0 = mem[a]
            mloc = _MEM + a
            nxt = closure(idx)
            r0 = xl[d]
            own = channels.get(addr)
            if own is None:
                own = channels[addr] = Channel(addr)
            sd = rev.get(d)
            sm = rev.get(mloc)
            if sd or sm:
                aff = set(sd) if sd else set()
                if sm:
                    aff |= sm
                aff.discard(own)
            else:
                aff = ()
            # The memory operand goes through a scratch copy in both the
            # replacement and the guard: memory itself is never converted.
            if not own.unknown:
                fa = downcast_in_place(own.diffs.get(d, a0))
                fb = downcast_in_place(own.diffs.get(mloc, b0))
                _set(
                    own, d,
                    REPLACED_FLAG_SHIFTED | fn32(fa & _M32, fb & _M32),
                    r0,
                )
            for ch in aff:
                ua = upcast_in_place(ch.diffs.get(d, a0))
                ub = upcast_in_place(ch.diffs.get(mloc, b0))
                _set(ch, d, fn64(ua, ub), r0)
            return nxt

        return w_bin_xm

    def _wrap_scalar_un(self, vm, instr, addr, closure):
        op = instr.opcode
        fn64 = FPD_UN[op]
        fn32 = _F32_UN[op]
        xl = vm.xmm_lo
        channels = self.channels
        rev = self.rev
        _set = self._set
        d = instr.operands[0].index
        src = instr.operands[1]
        if isinstance(src, Xmm):
            s = src.index

            def w_un_x(idx):
                b0 = xl[s]
                nxt = closure(idx)
                r0 = xl[d]
                own = channels.get(addr)
                if own is None:
                    own = channels[addr] = Channel(addr)
                sd = rev.get(d)
                ss = rev.get(s)
                if sd or ss:
                    aff = set(sd) if sd else set()
                    if ss:
                        aff |= ss
                    aff.discard(own)
                else:
                    aff = ()
                if not own.unknown:
                    fb = downcast_in_place(own.diffs.get(s, b0))
                    if s != d:
                        _set(own, s, fb, b0)
                    _set(
                        own, d,
                        REPLACED_FLAG_SHIFTED | fn32(fb & _M32),
                        r0,
                    )
                for ch in aff:
                    ub = upcast_in_place(ch.diffs.get(s, b0))
                    if s != d:
                        _set(ch, s, ub, b0)
                    _set(ch, d, fn64(ub), r0)
                return nxt

            return w_un_x
        addrf = vm._addr_fn(src)
        alocs = _mem_gpr_locs(src)
        mem = vm.mem
        top = len(mem)

        def w_un_m(idx):
            self._guard_addr(alocs)
            a = addrf()
            if not 0 <= a < top:
                return closure(idx)
            b0 = mem[a]
            mloc = _MEM + a
            nxt = closure(idx)
            r0 = xl[d]
            own = channels.get(addr)
            if own is None:
                own = channels[addr] = Channel(addr)
            sd = rev.get(d)
            sm = rev.get(mloc)
            if sd or sm:
                aff = set(sd) if sd else set()
                if sm:
                    aff |= sm
                aff.discard(own)
            else:
                aff = ()
            if not own.unknown:
                fb = downcast_in_place(own.diffs.get(mloc, b0))
                _set(
                    own, d, REPLACED_FLAG_SHIFTED | fn32(fb & _M32), r0
                )
            for ch in aff:
                ub = upcast_in_place(ch.diffs.get(mloc, b0))
                _set(ch, d, fn64(ub), r0)
            return nxt

        return w_un_m

    # -- candidate compare / convert --------------------------------------

    def _wrap_ucomisd(self, vm, instr, addr, closure):
        xl = vm.xmm_lo
        channels = self.channels
        rev = self.rev
        _set = self._set
        _kill = self._kill
        d = instr.operands[0].index
        src = instr.operands[1]
        mem_src = isinstance(src, Mem)
        if mem_src:
            addrf = vm._addr_fn(src)
            alocs = _mem_gpr_locs(src)
            mem = vm.mem
            top = len(mem)
        else:
            s = src.index

        def w_ucomisd(idx):
            if mem_src:
                self._guard_addr(alocs)
                a = addrf()
                if not 0 <= a < top:
                    return closure(idx)
                b0 = mem[a]
                bloc = _MEM + a
            else:
                b0 = xl[s]
                bloc = s
            a0 = xl[d]
            nxt = closure(idx)
            own = channels.get(addr)
            if own is None:
                own = channels[addr] = Channel(addr)
            sd = rev.get(d)
            sb = rev.get(bloc)
            if sd or sb:
                aff = set(sd) if sd else set()
                if sb:
                    aff |= sb
                aff.discard(own)
            else:
                aff = ()
            base_rel = _relation(bits_to_double(a0), bits_to_double(b0))
            if not own.unknown:
                va = own.diffs.get(d, a0)
                vb = va if bloc == d else own.diffs.get(bloc, b0)
                fa = downcast_in_place(va)
                fb = fa if bloc == d else downcast_in_place(vb)
                rel = _relation(
                    bits_to_single(fa & _M32), bits_to_single(fb & _M32)
                )
                if rel != base_rel:
                    _kill(own, "compare-flip")
                else:
                    _set(own, d, fa, a0)
                    if not mem_src and s != d:
                        _set(own, s, fb, b0)
            for ch in aff:
                va = ch.diffs.get(d, a0)
                vb = va if bloc == d else ch.diffs.get(bloc, b0)
                ua = upcast_in_place(va)
                ub = ua if bloc == d else upcast_in_place(vb)
                rel = _relation(bits_to_double(ua), bits_to_double(ub))
                if rel != base_rel:
                    _kill(ch, "compare-flip")
                    continue
                _set(ch, d, ua, a0)
                if not mem_src and s != d:
                    _set(ch, s, ub, b0)
            return nxt

        return w_ucomisd

    def _wrap_cvtsi2sd(self, vm, instr, addr, closure):
        xl, gpr = vm.xmm_lo, vm.gpr
        channels = self.channels
        rev = self.rev
        _set = self._set
        d = instr.operands[0].index
        s = instr.operands[1].index
        sloc = _GPR + s

        def w_cvtsi2sd(idx):
            # A diverged integer source would convert to a different
            # value down every channel; out of model (never seen in
            # practice — loop indices are killed at their arithmetic).
            self._kill_at(sloc, "int-compute")
            v = gpr[s]
            nxt = closure(idx)
            r0 = xl[d]
            own = channels.get(addr)
            if own is None:
                own = channels[addr] = Channel(addr)
            # The guard run reproduces the baseline result exactly; the
            # replacement produces the flagged single.
            sd = rev.get(d)
            if sd:
                for ch in tuple(sd):
                    if ch is not own:
                        _set(ch, d, r0, r0)
            if not own.unknown:
                _set(
                    own, d,
                    REPLACED_FLAG_SHIFTED
                    | single_from_int(v - 0x10000000000000000 if v >> 63 else v),
                    r0,
                )
            return nxt

        return w_cvtsi2sd

    def _wrap_cvttsd2si(self, vm, instr, addr, closure):
        xl = vm.xmm_lo
        channels = self.channels
        rev = self.rev
        _set = self._set
        _kill = self._kill
        dloc = _GPR + instr.operands[0].index
        s = instr.operands[1].index

        def w_cvttsd2si(idx):
            b0 = xl[s]
            nxt = closure(idx)
            own = channels.get(addr)
            if own is None:
                own = channels[addr] = Channel(addr)
            ss = rev.get(s)
            if ss:
                aff = set(ss)
                aff.discard(own)
            else:
                aff = ()
            base_i = _trunc(bits_to_double(b0))
            if not own.unknown:
                fb = downcast_in_place(own.diffs.get(s, b0))
                if _trunc(bits_to_single(fb & _M32)) != base_i:
                    _kill(own, "int-convert-flip")
                else:
                    _set(own, s, fb, b0)
            for ch in aff:
                ub = upcast_in_place(ch.diffs.get(s, b0))
                if _trunc(bits_to_double(ub)) != base_i:
                    _kill(ch, "int-convert-flip")
                    continue
                _set(ch, s, ub, b0)
            # every surviving channel converts to the same integer: the
            # write erases any stale divergence in the destination GPR.
            self._clear(dloc)
            return nxt

        return w_cvttsd2si

    # -- data movement -----------------------------------------------------

    def _wrap_movsd(self, vm, instr, closure):
        xl = vm.xmm_lo
        _set = self._set
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Xmm):
                s = src.index
                if s == d:
                    return None
                _move = self._move

                def w_movsd_xx(idx):
                    b0 = xl[s]
                    nxt = closure(idx)
                    _move(s, d, b0, xl[d])
                    return nxt

                return w_movsd_xx
            addrf = vm._addr_fn(src)
            alocs = _mem_gpr_locs(src)
            mem = vm.mem
            top = len(mem)
            dhi = _XH + d
            _move = self._move

            def w_movsd_xm(idx):
                self._guard_addr(alocs)
                a = addrf()
                if not 0 <= a < top:
                    return closure(idx)
                b0 = mem[a]
                nxt = closure(idx)
                _move(_MEM + a, d, b0, xl[d])
                self._clear(dhi)  # the load zeroes the high lane
                return nxt

            return w_movsd_xm
        s = src.index
        addrf = vm._addr_fn(dst)
        alocs = _mem_gpr_locs(dst)
        top = len(vm.mem)
        _move = self._move

        def w_movsd_mx(idx):
            self._guard_addr(alocs)
            a = addrf()
            nxt = closure(idx)  # performs the bounds check itself
            if 0 <= a < top:
                b0 = xl[s]
                _move(s, _MEM + a, b0, b0)
            return nxt

        return w_movsd_mx

    def _wrap_mov(self, vm, instr, closure):
        gpr = vm.gpr
        mem = vm.mem
        top = len(mem)
        _move = self._move
        _clear = self._clear
        dst, src = instr.operands
        if isinstance(dst, Reg):
            dloc = _GPR + dst.index
            if isinstance(src, Reg):
                sloc = _GPR + src.index
                if sloc == dloc:
                    return None
                si = src.index

                def w_mov_rr(idx):
                    b0 = gpr[si]
                    nxt = closure(idx)
                    _move(sloc, dloc, b0, b0)
                    return nxt

                return w_mov_rr
            if isinstance(src, Imm):

                def w_mov_ri(idx):
                    nxt = closure(idx)
                    _clear(dloc)
                    return nxt

                return w_mov_ri
            addrf = vm._addr_fn(src)
            alocs = _mem_gpr_locs(src)

            def w_mov_rm(idx):
                self._guard_addr(alocs)
                a = addrf()
                if not 0 <= a < top:
                    return closure(idx)
                b0 = mem[a]
                nxt = closure(idx)
                _move(_MEM + a, dloc, b0, b0)
                return nxt

            return w_mov_rm
        addrf = vm._addr_fn(dst)
        alocs = _mem_gpr_locs(dst)
        if isinstance(src, Reg):
            sloc = _GPR + src.index
            si = src.index

            def w_mov_mr(idx):
                self._guard_addr(alocs)
                a = addrf()
                nxt = closure(idx)
                if 0 <= a < top:
                    b0 = gpr[si]
                    _move(sloc, _MEM + a, b0, b0)
                return nxt

            return w_mov_mr
        if isinstance(src, Imm):

            def w_mov_mi(idx):
                self._guard_addr(alocs)
                a = addrf()
                nxt = closure(idx)
                if 0 <= a < top:
                    _clear(_MEM + a)
                return nxt

            return w_mov_mi
        saddrf = vm._addr_fn(src)
        salocs = _mem_gpr_locs(src)

        def w_mov_mm(idx):
            self._guard_addr(alocs)
            self._guard_addr(salocs)
            sa = saddrf()
            da = addrf()
            if not 0 <= sa < top:
                return closure(idx)
            b0 = mem[sa]
            nxt = closure(idx)
            if 0 <= da < top:
                _move(_MEM + sa, _MEM + da, b0, b0)
            return nxt

        return w_mov_mm

    # -- integer computation: divergence must not enter ---------------------

    def _wrap_int_compute(self, vm, instr, closure):
        locs = []
        mem_srcs = []
        for operand in instr.operands:
            if isinstance(operand, Reg):
                locs.append(_GPR + operand.index)
            elif isinstance(operand, Mem):
                mem_srcs.append(
                    (vm._addr_fn(operand), _mem_gpr_locs(operand))
                )
        locs = tuple(locs)
        top = len(vm.mem)
        _kill_at = self._kill_at

        def w_int(idx):
            for loc in locs:
                _kill_at(loc, "int-compute")
            for addrf, alocs in mem_srcs:
                self._guard_addr(alocs)
                a = addrf()
                if 0 <= a < top:
                    _kill_at(_MEM + a, "int-compute")
            return closure(idx)

        return w_int

    def _wrap_lea(self, vm, instr, closure):
        dloc = _GPR + instr.operands[0].index
        alocs = _mem_gpr_locs(instr.operands[1])
        _clear = self._clear

        def w_lea(idx):
            self._guard_addr(alocs)
            nxt = closure(idx)
            _clear(dloc)
            return nxt

        return w_lea

    def _wrap_clear_dst(self, loc, closure):
        _clear = self._clear

        def w_clear(idx):
            nxt = closure(idx)
            _clear(loc)
            return nxt

        return w_clear

    # -- stack -------------------------------------------------------------

    _SP = _GPR + 15

    def _wrap_push(self, vm, instr, closure):
        gpr = vm.gpr
        _move = self._move
        _clear = self._clear
        sp_loc = self._SP
        src = instr.operands[0]
        if isinstance(src, Reg):
            sloc = _GPR + src.index
            si = src.index

            def w_push_r(idx):
                self._kill_at(sp_loc, "address-diverged")
                b0 = gpr[si]
                nxt = closure(idx)
                _move(sloc, _MEM + gpr[15], b0, b0)
                return nxt

            return w_push_r
        if isinstance(src, Imm):

            def w_push_i(idx):
                self._kill_at(sp_loc, "address-diverged")
                nxt = closure(idx)
                _clear(_MEM + gpr[15])
                return nxt

            return w_push_i
        saddrf = vm._addr_fn(src)
        salocs = _mem_gpr_locs(src)
        mem = vm.mem
        top = len(mem)

        def w_push_m(idx):
            self._kill_at(sp_loc, "address-diverged")
            self._guard_addr(salocs)
            sa = saddrf()
            if not 0 <= sa < top:
                return closure(idx)
            b0 = mem[sa]
            nxt = closure(idx)
            _move(_MEM + sa, _MEM + gpr[15], b0, b0)
            return nxt

        return w_push_m

    def _wrap_pop(self, vm, instr, closure):
        gpr = vm.gpr
        mem = vm.mem
        top = len(mem)
        _move = self._move
        dloc = _GPR + instr.operands[0].index
        sp_loc = self._SP

        def w_pop(idx):
            self._kill_at(sp_loc, "address-diverged")
            sp = gpr[15]
            if not 0 <= sp < top:
                return closure(idx)
            b0 = mem[sp]
            nxt = closure(idx)
            _move(_MEM + sp, dloc, b0, b0)
            return nxt

        return w_pop

    def _wrap_call(self, vm, closure):
        gpr = vm.gpr
        _clear = self._clear
        sp_loc = self._SP

        def w_call(idx):
            self._kill_at(sp_loc, "address-diverged")
            nxt = closure(idx)
            # the pushed return address is code-relative: identical in
            # every channel.
            _clear(_MEM + gpr[15])
            return nxt

        return w_call

    def _wrap_ret(self, vm, closure):
        gpr = vm.gpr
        _kill_at = self._kill_at
        sp_loc = self._SP

        def w_ret(idx):
            _kill_at(sp_loc, "address-diverged")
            # a diverged word where the return address lives would send
            # the channel's control flow elsewhere.
            _kill_at(_MEM + gpr[15], "return-address")
            return closure(idx)

        return w_ret

    def _wrap_pushx(self, vm, instr, closure):
        gpr = vm.gpr
        xl, xh = vm.xmm_lo, vm.xmm_hi
        _move = self._move
        sp_loc = self._SP
        x = instr.operands[0].index

        def w_pushx(idx):
            self._kill_at(sp_loc, "address-diverged")
            lo0, hi0 = xl[x], xh[x]
            nxt = closure(idx)
            sp = gpr[15]  # the closure wrote xl/xh at sp, sp + 1
            _move(x, _MEM + sp, lo0, lo0)
            _move(_XH + x, _MEM + sp + 1, hi0, hi0)
            return nxt

        return w_pushx

    def _wrap_popx(self, vm, instr, closure):
        gpr = vm.gpr
        mem = vm.mem
        top = len(mem)
        _move = self._move
        sp_loc = self._SP
        x = instr.operands[0].index

        def w_popx(idx):
            self._kill_at(sp_loc, "address-diverged")
            sp = gpr[15]
            if not (0 <= sp and sp + 1 < top):
                return closure(idx)
            lo0, hi0 = mem[sp], mem[sp + 1]
            nxt = closure(idx)
            _move(_MEM + sp, x, lo0, lo0)
            _move(_MEM + sp + 1, _XH + x, hi0, hi0)
            return nxt

        return w_popx

    # -- remaining xmm transports -----------------------------------------

    def _wrap_movq(self, dst_loc, src_loc, vm, closure):
        """MOVQXR / MOVQRX: raw 64-bit transfer between register files."""
        xl = vm.xmm_lo
        gpr = vm.gpr
        _move = self._move
        src_is_x = src_loc < _XH

        def w_movq(idx):
            b0 = xl[src_loc] if src_is_x else gpr[src_loc - _GPR]
            nxt = closure(idx)
            _move(src_loc, dst_loc, b0, b0)
            return nxt

        return w_movq

    def _wrap_movapd(self, vm, instr, closure):
        xl, xh = vm.xmm_lo, vm.xmm_hi
        _move = self._move
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Xmm):
                s = src.index
                if s == d:
                    return None

                def w_movapd_xx(idx):
                    lo0, hi0 = xl[s], xh[s]
                    nxt = closure(idx)
                    _move(s, d, lo0, xl[d])
                    _move(_XH + s, _XH + d, hi0, xh[d])
                    return nxt

                return w_movapd_xx
            addrf = vm._addr_fn(src)
            alocs = _mem_gpr_locs(src)
            mem = vm.mem
            top = len(mem)

            def w_movapd_xm(idx):
                self._guard_addr(alocs)
                a = addrf()
                if not (0 <= a and a + 1 < top):
                    return closure(idx)
                lo0, hi0 = mem[a], mem[a + 1]
                nxt = closure(idx)
                _move(_MEM + a, d, lo0, xl[d])
                _move(_MEM + a + 1, _XH + d, hi0, xh[d])
                return nxt

            return w_movapd_xm
        s = src.index
        addrf = vm._addr_fn(dst)
        alocs = _mem_gpr_locs(dst)
        top = len(vm.mem)

        def w_movapd_mx(idx):
            self._guard_addr(alocs)
            a = addrf()
            nxt = closure(idx)
            if 0 <= a and a + 1 < top:
                lo0, hi0 = xl[s], xh[s]
                _move(s, _MEM + a, lo0, lo0)
                _move(_XH + s, _MEM + a + 1, hi0, hi0)
            return nxt

        return w_movapd_mx

    def _wrap_movss(self, vm, instr, closure):
        xl = vm.xmm_lo
        _set = self._set
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Xmm):
                s = src.index

                def w_movss_xx(idx):
                    a0 = xl[d]
                    b0 = xl[s]
                    nxt = closure(idx)
                    r0 = xl[d]
                    for ch in self._touched(s, d):
                        va = ch.diffs.get(d, a0)
                        vb = ch.diffs.get(s, b0)
                        _set(ch, d, (va & ~_M32) | (vb & _M32), r0)
                    return nxt

                return w_movss_xx
            addrf = vm._addr_fn(src)
            alocs = _mem_gpr_locs(src)
            mem = vm.mem
            top = len(mem)
            dhi = _XH + d

            def w_movss_xm(idx):
                self._guard_addr(alocs)
                a = addrf()
                if not 0 <= a < top:
                    return closure(idx)
                b0 = mem[a]
                mloc = _MEM + a
                nxt = closure(idx)
                r0 = xl[d]
                for ch in self._touched(mloc, d):
                    _set(ch, d, ch.diffs.get(mloc, b0) & _M32, r0)
                self._clear(dhi)
                return nxt

            return w_movss_xm
        s = src.index
        addrf = vm._addr_fn(dst)
        alocs = _mem_gpr_locs(dst)
        mem = vm.mem
        top = len(mem)

        def w_movss_mx(idx):
            self._guard_addr(alocs)
            a = addrf()
            m0 = mem[a] if 0 <= a < top else 0
            nxt = closure(idx)
            if 0 <= a < top:
                b0 = xl[s]
                mloc = _MEM + a
                r0 = mem[a]
                for ch in self._touched(s, mloc):
                    vmw = ch.diffs.get(mloc, m0)
                    vs = ch.diffs.get(s, b0)
                    _set(ch, mloc, (vmw & ~_M32) | (vs & _M32), r0)
            return nxt

        return w_movss_mx

    def _wrap_cvtsd2ss(self, vm, instr, closure):
        xl = vm.xmm_lo
        _set = self._set
        d = instr.operands[0].index
        s = instr.operands[1].index

        def w_cvtsd2ss(idx):
            a0 = xl[d]
            b0 = xl[s]
            nxt = closure(idx)
            r0 = xl[d]
            for ch in self._touched(s, d):
                va = ch.diffs.get(d, a0)
                vb = va if s == d else ch.diffs.get(s, b0)
                _set(
                    ch, d,
                    (va & ~_M32) | single_to_bits(bits_to_double(vb)),
                    r0,
                )
            return nxt

        return w_cvtsd2ss

    def _wrap_cvtss2sd(self, vm, instr, closure):
        xl = vm.xmm_lo
        _set = self._set
        d = instr.operands[0].index
        s = instr.operands[1].index

        def w_cvtss2sd(idx):
            b0 = xl[s]
            nxt = closure(idx)
            r0 = xl[d]
            for ch in self._touched(s, d):
                vb = ch.diffs.get(s, b0)
                _set(ch, d, double_to_bits(bits_to_single(vb & _M32)), r0)
            return nxt

        return w_cvtss2sd

    def _wrap_pextr(self, vm, instr, closure):
        lane = instr.operands[2].value
        x = instr.operands[1].index
        src_loc = x + (_XH if lane else 0)
        dloc = _GPR + instr.operands[0].index
        xs = vm.xmm_hi if lane else vm.xmm_lo
        _move = self._move

        def w_pextr(idx):
            b0 = xs[x]
            nxt = closure(idx)
            _move(src_loc, dloc, b0, b0)
            return nxt

        return w_pextr

    def _wrap_pinsr(self, vm, instr, closure):
        lane = instr.operands[2].value
        x = instr.operands[0].index
        dst_loc = x + (_XH if lane else 0)
        si = instr.operands[1].index
        sloc = _GPR + si
        gpr = vm.gpr
        _move = self._move

        def w_pinsr(idx):
            b0 = gpr[si]
            nxt = closure(idx)
            _move(sloc, dst_loc, b0, b0)
            return nxt

        return w_pinsr

    # -- outputs -----------------------------------------------------------

    def _wrap_out(self, vm, instr, closure):
        op = instr.opcode
        r = instr.operands[0].index
        if op is Op.OUTI:
            loc = _GPR + r
            kind = "i"
        else:
            loc = r
            kind = "d" if op is Op.OUTSD else "s"
        xl = vm.xmm_lo
        gpr = vm.gpr
        rev = self.rev
        outss = op is Op.OUTSS

        def w_out(idx):
            b0 = gpr[r] if kind == "i" else xl[r]
            nxt = closure(idx)
            n = self._out_n
            self._out_n = n + 1
            s = rev.get(loc)
            if s:
                for ch in s:
                    bits = ch.diffs[loc]
                    if outss:
                        bits &= _M32
                        if bits == b0 & _M32:
                            continue
                    ch.out[n] = (kind, bits)
            return nxt

        return w_out

    # -- out-of-model fallback ---------------------------------------------

    def _wrap_kill_all(self, closure):
        """Multi-rank collectives mix state across ranks the channel
        model does not follow: every channel loses its verdict."""

        def w_kill_all(idx):
            self.tainted = True
            for ch in tuple(self.channels.values()):
                if not ch.unknown:
                    self._kill(ch, "collective")
            return closure(idx)

        return w_kill_all

    def _wrap_conservative(self, vm, instr, addr, closure):
        """Ops the channel model does not simulate (packed arithmetic,
        single-precision arithmetic): kill any channel whose divergence
        could flow through them, and — if the op is itself a replacement
        candidate — its own channel too, so no verdict is ever derived
        from unmodeled semantics."""
        info = OPCODE_INFO.get(instr.opcode)
        locs: list[int] = []
        mem_ops: list[Mem] = []
        for operand in instr.operands:
            if isinstance(operand, Xmm):
                locs.append(operand.index)
                locs.append(_XH + operand.index)
            elif isinstance(operand, Reg):
                locs.append(_GPR + operand.index)
            elif isinstance(operand, Mem):
                mem_ops.append(operand)
        locs = tuple(locs)
        guards = [(vm._addr_fn(m), _mem_gpr_locs(m)) for m in mem_ops]
        top = len(vm.mem)
        candidate = bool(info is not None and info.single_equiv is not None)
        channels = self.channels
        _kill_at = self._kill_at
        _kill = self._kill

        def w_conservative(idx):
            for loc in locs:
                _kill_at(loc, "unmodeled-op")
            for addrf, alocs in guards:
                self._guard_addr(alocs)
                a = addrf()
                if 0 <= a < top:
                    _kill_at(_MEM + a, "unmodeled-op")
                    _kill_at(_MEM + a + 1, "unmodeled-op")
            if candidate:
                ch = channels.get(addr)
                if ch is None:
                    ch = channels[addr] = Channel(addr)
                if not ch.unknown:
                    _kill(ch, "unmodeled-op")
            return closure(idx)

        return w_conservative
