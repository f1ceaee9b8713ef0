"""The analysis observer: statistics, a float32 shadow and exact verdicts.

Plugs into the VM's observer hook (``VM(observer=...)``).  For every
instruction the analysis follows, :meth:`ShadowObserver.wrap` installs
one wrapper closure that reads the operands (and the memory address)
once, runs the original closure, and then updates three things without
touching any architectural state.  Outputs, cycle counts, step counts
and trap addresses are bit-identical with the observer attached or not
(tests/vm/test_observer_parity.py).

**Statistics**, per double-precision candidate instruction:

* value ranges — min/max magnitude over every operand and result;
* cancellation events — on ADDSD/SUBSD (and their packed forms), the
  exponent drop from the larger operand to the result (a drop of *k*
  bits means the top *k* bits of both operands annihilated, so roughly
  ``k`` bits of any input rounding error are promoted into the result's
  leading digits);
* two relative-error estimates from the float32 shadow: ``local``
  (inputs rounded to float32 once, then the float32 op) and ``shadow``
  (inputs taken from the propagated shadow — what a whole-region
  replacement accumulates); compares and float-to-int conversions that
  decide differently in float32 count as flips.

**The float32 shadow** is a single-precision bit pattern mirroring the
double an XMM lane or memory word holds.  It follows MOVSD, MOVAPD,
PUSHX/POPX and CVTSS2SD, and double arithmetic sets it.  The other f32
writers (MOVSS, CVTSD2SS, single-precision arithmetic), stores and
pushes from GPRs, and the bit transfers MOVQXR/PINSR *drop* it, and a
missing shadow falls back to rounding the actual double.  It does not
follow values through the general-purpose registers.

**Channels**: magnitude heuristics cannot decide replaceability (over
the NAS suite single-instruction configurations pass verification
carrying the suite's largest local errors while others fail with errors
below the verification bound), so the observer also *simulates* the
instrumented runs.  Per candidate instruction ``c`` a channel is a
sparse, bit-exact mirror of the run the search would perform for the
configuration "only ``c`` is single": just the 64-bit values that
differ from the observed baseline, per location, plus the output
records that differ.  The mirrored semantics are exactly those of the
instrumentation snippets (paper Section 2.3):

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

The moment divergence would alter *behavior* the simulation cannot
follow — integer arithmetic or comparison on a diverged register, an
address computed from one, a three-way FP compare whose relation
differs from the baseline (the instrumented run would branch
differently), a float-to-int conversion producing a different integer
— the channel is marked **unknown** and never yields a verdict.
Unknown is always sound: it costs an evaluation, never a wrong prune.
Substituting a channel's output overrides into the baseline output
stream and running the workload's own verification routine gives the
exact pass/fail outcome of that singleton configuration
(:func:`repro.analysis.analyzer.analyze`).

The shadow and the channels share one location space: XMM low lanes
are 0..15, XMM high lanes 16..31, GPRs 32..47 and memory word *a* is
48 + a.
"""

from __future__ import annotations

import math

from repro.fpbits import ieee
from repro.fpbits.ieee import (
    F32,
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
from repro.vm.fpops import FPD_BIN, FPD_UN, FPN_BIN, FPN_UN, PD_BIN, PS_BIN

_M32 = 0xFFFFFFFF
_EXP_MASK = 0x7FF

# The location space (see the module docstring).
_XH = 16
_GPR = 32
_MEM = 48
_SP = _GPR + 15

#: float32 representable-magnitude limits (normal range).
F32_MAX = F32.max_finite
F32_MIN_NORMAL = F32.min_normal

#: exponent drops below this many bits are ordinary rounding noise, not
#: catastrophic cancellation (float32 keeps 24 significand bits, so a
#: drop has to eat a meaningful fraction of them to matter).
CANCEL_MIN_BITS = 10

_PACKED = (*PD_BIN, Op.SQRTPD)

# float32 equivalents of the double arithmetic ops (per lane for the
# packed ones; SQRTPD's equivalent SQRTPS has no table of its own).
_F32_BIN = {
    op: (FPN_BIN | PS_BIN)[OPCODE_INFO[op].single_equiv]
    for op in (*FPD_BIN, *PD_BIN)
}
_F32_UN = {op: FPN_UN[OPCODE_INFO[op].single_equiv] for op in FPD_UN}
_F32_UN[Op.SQRTPD] = ieee.single_sqrt

#: single-precision writers of an xmm low lane (both lanes for the
#: packed ones): the shadow drops its value there.
_SHADOW_DROP_LO = frozenset(
    OPCODE_INFO[op].single_equiv for op in (*FPD_BIN, *FPD_UN, Op.CVTSI2SD)
)
_SHADOW_DROP_BOTH = frozenset(OPCODE_INFO[op].single_equiv for op in _PACKED)

#: integer ops computing on their operands: a diverged input register
#: changes the result, which the model does not follow.
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


def _round32(bits64: int) -> int:
    """float32 bit pattern nearest to the double behind *bits64*."""
    return single_to_bits(bits_to_double(bits64))


def _exponent(bits64: int) -> int:
    return (bits64 >> 52) & _EXP_MASK


class InstrStats:
    """Running per-instruction statistics (one per observed address)."""

    __slots__ = (
        "mnemonic",
        "execs",
        "min_abs",
        "max_abs",
        "cancel_events",
        "cancel_max_bits",
        "max_local_err",
        "max_shadow_err",
        "overflow",
        "underflow",
        "flips",
    )

    def __init__(self, mnemonic: str) -> None:
        self.mnemonic = mnemonic
        self.execs = 0
        self.min_abs = math.inf   # smallest nonzero magnitude seen
        self.max_abs = 0.0
        self.cancel_events = 0
        self.cancel_max_bits = 0
        self.max_local_err = 0.0
        self.max_shadow_err = 0.0
        self.overflow = 0         # result magnitude above float32 range
        self.underflow = 0        # nonzero result below float32 normals
        self.flips = 0            # compare/convert decided differently in f32

    # -- updates (hot path: called once per observed execution) ----------

    def see(self, value: float) -> None:
        mag = abs(value)
        if mag != mag or mag == math.inf:
            return
        if mag != 0.0:
            if mag < self.min_abs:
                self.min_abs = mag
            if mag > self.max_abs:
                self.max_abs = mag

    def result(self, value: float) -> None:
        self.see(value)
        mag = abs(value)
        if mag == mag:  # not NaN
            if mag > F32_MAX:
                self.overflow += 1
            elif 0.0 < mag < F32_MIN_NORMAL:
                self.underflow += 1

    def error(self, actual: float, local32: float, shadow32: float) -> None:
        if actual != actual:  # NaN result: nothing meaningful to compare
            return
        if actual == 0.0:
            local = 0.0 if local32 == 0.0 else math.inf
            shadow = 0.0 if shadow32 == 0.0 else math.inf
        else:
            scale = abs(actual)
            local = (
                math.inf if local32 != local32 else abs(local32 - actual) / scale
            )
            shadow = (
                math.inf if shadow32 != shadow32 else abs(shadow32 - actual) / scale
            )
        if local > self.max_local_err:
            self.max_local_err = local
        if shadow > self.max_shadow_err:
            self.max_shadow_err = shadow

    def cancellation(self, ea: int, eb: int, result_bits: int) -> None:
        er = _exponent(result_bits)
        if er == _EXP_MASK:
            return  # inf/NaN result: overflow accounting covers it
        top = ea if ea >= eb else eb
        if result_bits & 0x7FFFFFFFFFFFFFFF == 0:
            drop = 53 if top else 0  # total annihilation of nonzero inputs
        else:
            drop = top - er
        if drop >= CANCEL_MIN_BITS:
            self.cancel_events += 1
            if drop > self.cancel_max_bits:
                self.cancel_max_bits = drop


def _lane_bin(st, shadow, fn32, cancels, a, b, sa, sb, r, dloc) -> None:
    """Statistics and shadow of one binary lane: *a* op *b* = *r*."""
    fa = bits_to_double(a)
    fb = bits_to_double(b)
    fr = bits_to_double(r)
    st.see(fa)
    st.see(fb)
    st.result(fr)
    if cancels and fa == fa and fb == fb and (fa or fb):
        st.cancellation(_exponent(a), _exponent(b), r)
    ra = _round32(a)
    rb = _round32(b)
    local = fn32(ra, rb)
    sh = fn32(sa if sa is not None else ra, sb if sb is not None else rb)
    shadow[dloc] = sh
    st.error(fr, bits_to_single(local), bits_to_single(sh))


def _lane_un(st, shadow, fn32, a, sa, r, dloc) -> None:
    """Statistics and shadow of one unary lane: op *a* = *r*."""
    fa = bits_to_double(a)
    fr = bits_to_double(r)
    st.see(fa)
    st.result(fr)
    ra = _round32(a)
    local = fn32(ra)
    sh = fn32(sa if sa is not None else ra)
    shadow[dloc] = sh
    st.error(fr, bits_to_single(local), bits_to_single(sh))


def _copy_shadow(shadow: dict, s: int, d: int) -> None:
    sh = shadow.get(s)
    if sh is None:
        shadow.pop(d, None)
    else:
        shadow[d] = sh


def _relation(a: float, b: float) -> int:
    """Three-way FP relation as the VM's compare derives flags: 0 equal,
    1 less, 2 greater, 3 unordered."""
    if a != a or b != b:
        return 3
    if a == b:
        return 0
    return 1 if a < b else 2


def _trunc(v: float) -> int:
    """CVTTSD2SI semantics shared by the double and float32 paths."""
    if v != v or v >= 9.223372036854776e18 or v < -9.223372036854776e18:
        return -(1 << 63)  # integer indefinite
    return int(v)


def _mem_gpr_locs(m: Mem) -> tuple:
    """GPR locations an address computation reads."""
    locs = []
    if m.base is not None:
        locs.append(_GPR + m.base)
    if m.index is not None:
        locs.append(_GPR + m.index)
    return tuple(locs)


class Channel:
    """Sparse mirror of the run where exactly one instruction is single."""

    __slots__ = ("addr", "diffs", "out", "unknown", "why")

    def __init__(self, addr: int) -> None:
        self.addr = addr
        self.diffs: dict[int, int] = {}   # location -> channel's 64-bit value
        self.out: dict[int, tuple] = {}   # output index -> overriding record
        self.unknown = False
        self.why = ""                     # why the verdict was lost


class ShadowObserver:
    """VM observer computing the whole analysis of one run.

    Use via ``run_program(..., observer=ShadowObserver())``.  After the
    run:

    * ``stats`` maps text address -> :class:`InstrStats` for every
      double-precision candidate instruction, in load order;
    * ``channels`` maps candidate text address -> :class:`Channel`, for
      every candidate that executed;
    * :meth:`outputs_for` yields the exact output stream of that
      address's singleton run (or None when its channel is unknown).
    """

    def __init__(self) -> None:
        self.stats: dict[int, InstrStats] = {}
        #: location -> float32 bit pattern mirroring the double it holds
        self.shadow: dict[int, int] = {}
        self.channels: dict[int, Channel] = {}
        #: location -> set of channels diverged at that location
        self.rev: dict[int, set] = {}
        #: True once an unmodeled global effect (multi-rank collective)
        #: invalidated every verdict, past and future.
        self.tainted = False
        self._out_n = 0

    # -- state maintenance -------------------------------------------------

    def _stat(self, addr: int, instr) -> InstrStats:
        st = self.stats.get(addr)
        if st is None:
            st = self.stats[addr] = InstrStats(instr.info.mnemonic)
        return st

    def _own(self, addr: int) -> Channel:
        ch = self.channels.get(addr)
        if ch is None:
            ch = self.channels[addr] = Channel(addr)
        return ch

    def _diverged(self, a: int, b: int, own: Channel | None = None):
        """Channels other than *own* diverged at location *a* or *b*
        (an empty tuple when none)."""
        rev = self.rev
        sa = rev.get(a)
        sb = rev.get(b)
        if not sa and not sb:
            return ()
        aff = set(sa) if sa else set()
        if sb:
            aff |= sb
        aff.discard(own)
        return aff

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

    def _guard_addr(self, locs: tuple) -> None:
        """A diverged register feeding an address computation sends the
        channel's access to a different location: out of model."""
        for loc in locs:
            self._kill_at(loc, "address-diverged")

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

    def _carry(self, src_loc: int, dst_loc: int, base_src: int,
               base_dst_after: int) -> None:
        """An FP move: the shadow and every channel follow the value."""
        _copy_shadow(self.shadow, src_loc, dst_loc)
        self._move(src_loc, dst_loc, base_src, base_dst_after)

    # -- results -----------------------------------------------------------

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
            return self._wrap_scalar(vm, instr, addr, closure, True)
        if op in FPD_UN:
            return self._wrap_scalar(vm, instr, addr, closure, False)
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
            return self._wrap_int_compute(instr, closure)
        if op is Op.LEA:
            return self._wrap_lea(instr, closure)
        if op is Op.PUSH or op is Op.CALL:
            return self._wrap_push(vm, instr, closure)
        if op is Op.POP:
            return self._wrap_pop(vm, instr, closure)
        if op is Op.RET:
            return self._wrap_ret(vm, closure)
        if op is Op.MOVQXR:
            return self._wrap_transit(
                vm, instr.operands[0].index, _GPR + instr.operands[1].index,
                closure,
            )
        if op is Op.MOVQRX:
            return self._wrap_transit(
                vm, _GPR + instr.operands[0].index, instr.operands[1].index,
                closure,
            )
        if op is Op.PEXTR:
            lane = _XH if instr.operands[2].value else 0
            return self._wrap_transit(
                vm, _GPR + instr.operands[0].index,
                lane + instr.operands[1].index, closure,
            )
        if op is Op.PINSR:
            lane = _XH if instr.operands[2].value else 0
            return self._wrap_transit(
                vm, lane + instr.operands[0].index,
                _GPR + instr.operands[1].index, closure,
            )
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
        if op is Op.OUTSD or op is Op.OUTSS or op is Op.OUTI:
            return self._wrap_out(vm, instr, closure)
        if op is Op.RAND or op is Op.MPIRANK or op is Op.MPISIZE:
            return self._wrap_clear_dst(_GPR + instr.operands[0].index, closure)
        if op in _MPI_OPS:
            if vm.size == 1:
                if op is Op.ALLREDV or op is Op.ALLREDVSS:
                    # bounds check only; the count register and address
                    # still steer behavior.
                    return self._wrap_guard_only(
                        instr.operands[0],
                        (_GPR + instr.operands[2].index,), closure
                    )
                return None  # single-rank collectives are no-ops
            return self._wrap_kill_all(closure)
        if op in _PACKED:
            return self._wrap_packed(vm, instr, addr, closure)
        # Anything else touching tracked state is out of model.
        return self._wrap_conservative(vm, instr, addr, closure)

    def _wrap_guard_only(self, m: Mem, extra_locs: tuple, closure):
        locs = _mem_gpr_locs(m) + extra_locs

        def w_guard(idx):
            self._guard_addr(locs)
            return closure(idx)

        return w_guard

    # -- candidate arithmetic ---------------------------------------------

    def _wrap_scalar(self, vm, instr, addr, closure, binary):
        """ADDSD..MAXSD (*binary*) and SQRTSD..LOGSD: ``d = d op src`` or
        ``d = op src``."""
        op = instr.opcode
        fn64 = (FPD_BIN if binary else FPD_UN)[op]
        fn32 = (_F32_BIN if binary else _F32_UN)[op]
        cancels = op is Op.ADDSD or op is Op.SUBSD
        st = self._stat(addr, instr)
        xl = vm.xmm_lo
        shadow = self.shadow
        d = instr.operands[0].index
        src = instr.operands[1]
        update = self._scalar_bin if binary else self._scalar_un
        if isinstance(src, Xmm):
            s = src.index

            def w_scalar_x(idx):
                a0 = xl[d]
                b0 = xl[s]
                sa = shadow.get(d)
                sb = shadow.get(s)
                nxt = closure(idx)
                update(st, fn64, fn32, cancels, addr, d, s,
                       a0, b0, sa, sb, xl[d])
                return nxt

            return w_scalar_x
        addrf = vm._addr_fn(src)
        alocs = _mem_gpr_locs(src)
        mem = vm.mem
        top = len(mem)

        def w_scalar_m(idx):
            self._guard_addr(alocs)
            a = addrf()
            if not 0 <= a < top:
                return closure(idx)  # out of bounds: the closure traps
            a0 = xl[d]
            b0 = mem[a]
            mloc = _MEM + a
            sa = shadow.get(d)
            sb = shadow.get(mloc)
            nxt = closure(idx)
            update(st, fn64, fn32, cancels, addr, d, mloc,
                   a0, b0, sa, sb, xl[d])
            return nxt

        return w_scalar_m

    def _scalar_bin(self, st, fn64, fn32, cancels, addr, d, bloc,
                    a0, b0, sa, sb, r0):
        """After ``d = d op b`` (b at *bloc*): statistics, shadow, and
        every channel that computes it differently."""
        st.execs += 1
        _lane_bin(st, self.shadow, fn32, cancels, a0, b0, sa, sb, r0, d)
        _set = self._set
        own = self._own(addr)
        aff = self._diverged(d, bloc, own)
        # A register operand is converted in place; a memory operand
        # goes through a scratch copy in both the replacement and the
        # guard: memory itself is never converted.
        in_place = bloc < _MEM
        if not own.unknown:
            fa = downcast_in_place(own.diffs.get(d, a0))
            if bloc == d:
                fb = fa
            else:
                fb = downcast_in_place(own.diffs.get(bloc, b0))
                if in_place:
                    _set(own, bloc, fb, b0)
            _set(
                own, d, REPLACED_FLAG_SHIFTED | fn32(fa & _M32, fb & _M32), r0
            )
        for ch in aff:
            ua = upcast_in_place(ch.diffs.get(d, a0))
            if bloc == d:
                ub = ua
            else:
                ub = upcast_in_place(ch.diffs.get(bloc, b0))
                if in_place:
                    _set(ch, bloc, ub, b0)
            _set(ch, d, fn64(ua, ub), r0)

    def _scalar_un(self, st, fn64, fn32, cancels, addr, d, bloc,
                   a0, b0, sa, sb, r0):
        """After ``d = op b`` (b at *bloc*): statistics, shadow, and
        every channel that computes it differently."""
        st.execs += 1
        _lane_un(st, self.shadow, fn32, b0, sb, r0, d)
        _set = self._set
        own = self._own(addr)
        aff = self._diverged(d, bloc, own)
        in_place = bloc < _MEM and bloc != d
        if not own.unknown:
            fb = downcast_in_place(own.diffs.get(bloc, b0))
            if in_place:
                _set(own, bloc, fb, b0)
            _set(own, d, REPLACED_FLAG_SHIFTED | fn32(fb & _M32), r0)
        for ch in aff:
            ub = upcast_in_place(ch.diffs.get(bloc, b0))
            if in_place:
                _set(ch, bloc, ub, b0)
            _set(ch, d, fn64(ub), r0)

    def _wrap_packed(self, vm, instr, addr, closure):
        """ADDPD..DIVPD and SQRTPD: statistics and shadow per lane; the
        channel model does not simulate them (see :meth:`_unmodeled`)."""
        op = instr.opcode
        unary = op is Op.SQRTPD
        fn32 = _F32_UN[op] if unary else _F32_BIN[op]
        cancels = op is Op.ADDPD or op is Op.SUBPD
        st = self._stat(addr, instr)
        kill = self._unmodeled(vm, instr, addr)
        xl, xh = vm.xmm_lo, vm.xmm_hi
        shadow = self.shadow
        d = instr.operands[0].index
        dhi = _XH + d
        src = instr.operands[1]
        mem_src = isinstance(src, Mem)
        if mem_src:
            addrf = vm._addr_fn(src)
            mem = vm.mem
            top = len(mem)
        else:
            s = src.index

        def w_packed(idx):
            if mem_src:
                a = addrf()
                kill(a)
                if not (0 <= a and a + 1 < top):
                    return closure(idx)
                blo, bhi = mem[a], mem[a + 1]
                lo_loc, hi_loc = _MEM + a, _MEM + a + 1
            else:
                kill(None)
                blo, bhi = xl[s], xh[s]
                lo_loc, hi_loc = s, _XH + s
            sblo, sbhi = shadow.get(lo_loc), shadow.get(hi_loc)
            alo, ahi = xl[d], xh[d]
            salo, sahi = shadow.get(d), shadow.get(dhi)
            nxt = closure(idx)
            st.execs += 1
            if unary:
                _lane_un(st, shadow, fn32, blo, sblo, xl[d], d)
                _lane_un(st, shadow, fn32, bhi, sbhi, xh[d], dhi)
            else:
                _lane_bin(st, shadow, fn32, cancels, alo, blo, salo, sblo,
                          xl[d], d)
                _lane_bin(st, shadow, fn32, cancels, ahi, bhi, sahi, sbhi,
                          xh[d], dhi)
            return nxt

        return w_packed

    # -- candidate compare / convert --------------------------------------

    def _wrap_ucomisd(self, vm, instr, addr, closure):
        st = self._stat(addr, instr)
        xl = vm.xmm_lo
        shadow = self.shadow
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
            sa = shadow.get(d)
            sb = shadow.get(bloc)
            nxt = closure(idx)
            st.execs += 1
            fa = bits_to_double(a0)
            fb = bits_to_double(b0)
            st.see(fa)
            st.see(fb)
            ga = bits_to_single(sa if sa is not None else _round32(a0))
            gb = bits_to_single(sb if sb is not None else _round32(b0))
            # Same three-way relation the VM derives flags from: a
            # float32 replacement that orders the operands differently
            # steers branches down another path.
            base_rel = _relation(fa, fb)
            if base_rel != _relation(ga, gb):
                st.flips += 1
            own = self._own(addr)
            aff = self._diverged(d, bloc, own)
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
        st = self._stat(addr, instr)
        xl, gpr = vm.xmm_lo, vm.gpr
        shadow = self.shadow
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
            st.execs += 1
            fr = bits_to_double(r0)
            st.result(fr)
            sh = single_from_int(v - 0x10000000000000000 if v >> 63 else v)
            shadow[d] = sh
            f32 = bits_to_single(sh)
            st.error(fr, f32, f32)
            own = self._own(addr)
            # The guard run reproduces the baseline result exactly; the
            # replacement produces the flagged single.
            sd = rev.get(d)
            if sd:
                for ch in tuple(sd):
                    if ch is not own:
                        _set(ch, d, r0, r0)
            if not own.unknown:
                _set(own, d, REPLACED_FLAG_SHIFTED | sh, r0)
            return nxt

        return w_cvtsi2sd

    def _wrap_cvttsd2si(self, vm, instr, addr, closure):
        st = self._stat(addr, instr)
        xl = vm.xmm_lo
        shadow = self.shadow
        _set = self._set
        _kill = self._kill
        dloc = _GPR + instr.operands[0].index
        s = instr.operands[1].index

        def w_cvttsd2si(idx):
            b0 = xl[s]
            sb = shadow.get(s)
            nxt = closure(idx)
            st.execs += 1
            fb = bits_to_double(b0)
            st.see(fb)
            base_i = _trunc(fb)
            if base_i != _trunc(
                bits_to_single(sb if sb is not None else _round32(b0))
            ):
                st.flips += 1  # the float32 path yields a different integer
            own = self._own(addr)
            aff = self._diverged(s, s, own)
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
        _carry = self._carry
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Xmm):
                s = src.index
                if s == d:
                    return None

                def w_movsd_xx(idx):
                    b0 = xl[s]
                    nxt = closure(idx)
                    _carry(s, d, b0, xl[d])
                    return nxt

                return w_movsd_xx
            addrf = vm._addr_fn(src)
            alocs = _mem_gpr_locs(src)
            mem = vm.mem
            top = len(mem)
            dhi = _XH + d
            shadow = self.shadow

            def w_movsd_xm(idx):
                self._guard_addr(alocs)
                a = addrf()
                if not 0 <= a < top:
                    return closure(idx)
                b0 = mem[a]
                nxt = closure(idx)
                _carry(_MEM + a, d, b0, xl[d])
                shadow[dhi] = 0  # the load zeroes the high lane
                self._clear(dhi)
                return nxt

            return w_movsd_xm
        s = src.index
        addrf = vm._addr_fn(dst)
        alocs = _mem_gpr_locs(dst)
        top = len(vm.mem)

        def w_movsd_mx(idx):
            self._guard_addr(alocs)
            a = addrf()
            nxt = closure(idx)  # performs the bounds check itself
            if 0 <= a < top:
                b0 = xl[s]
                _carry(s, _MEM + a, b0, b0)
            return nxt

        return w_movsd_mx

    def _wrap_movapd(self, vm, instr, closure):
        xl, xh = vm.xmm_lo, vm.xmm_hi
        _carry = self._carry
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
                    _carry(s, d, lo0, xl[d])
                    _carry(_XH + s, _XH + d, hi0, xh[d])
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
                _carry(_MEM + a, d, lo0, xl[d])
                _carry(_MEM + a + 1, _XH + d, hi0, xh[d])
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
                _carry(s, _MEM + a, lo0, lo0)
                _carry(_XH + s, _MEM + a + 1, hi0, hi0)
            return nxt

        return w_movapd_mx

    def _wrap_mov(self, vm, instr, closure):
        gpr = vm.gpr
        mem = vm.mem
        top = len(mem)
        shadow = self.shadow
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
        # A store: the shadow drops the word (it does not follow GPRs).
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
                    shadow.pop(_MEM + a, None)
                    b0 = gpr[si]
                    _move(sloc, _MEM + a, b0, b0)
                return nxt

            return w_mov_mr

        def w_mov_mi(idx):
            self._guard_addr(alocs)
            a = addrf()
            nxt = closure(idx)
            if 0 <= a < top:
                shadow.pop(_MEM + a, None)
                _clear(_MEM + a)
            return nxt

        return w_mov_mi

    def _wrap_transit(self, vm, dst_loc, src_loc, closure):
        """MOVQXR / MOVQRX / PINSR / PEXTR: a raw 64-bit transfer between
        the register files.  The channels follow it; the shadow drops the
        destination lane (a GPR destination holds no shadow)."""
        regs = vm.xmm_lo if src_loc < _XH else (
            vm.xmm_hi if src_loc < _GPR else vm.gpr
        )
        si = src_loc % 16
        shadow = self.shadow
        _move = self._move

        def w_transit(idx):
            b0 = regs[si]
            nxt = closure(idx)
            shadow.pop(dst_loc, None)
            _move(src_loc, dst_loc, b0, b0)
            return nxt

        return w_transit

    def _wrap_movss(self, vm, instr, closure):
        xl = vm.xmm_lo
        shadow = self.shadow
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
                    shadow.pop(d, None)
                    r0 = xl[d]
                    for ch in self._diverged(s, d):
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
                shadow.pop(d, None)
                shadow[dhi] = 0  # the load zeroes the high lane
                r0 = xl[d]
                for ch in self._diverged(mloc, d):
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
                mloc = _MEM + a
                shadow.pop(mloc, None)
                b0 = xl[s]
                r0 = mem[a]
                for ch in self._diverged(s, mloc):
                    vmw = ch.diffs.get(mloc, m0)
                    vs = ch.diffs.get(s, b0)
                    _set(ch, mloc, (vmw & ~_M32) | (vs & _M32), r0)
            return nxt

        return w_movss_mx

    def _wrap_cvtsd2ss(self, vm, instr, closure):
        xl = vm.xmm_lo
        shadow = self.shadow
        _set = self._set
        d = instr.operands[0].index
        s = instr.operands[1].index

        def w_cvtsd2ss(idx):
            a0 = xl[d]
            b0 = xl[s]
            nxt = closure(idx)
            shadow.pop(d, None)
            r0 = xl[d]
            for ch in self._diverged(s, d):
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
        shadow = self.shadow
        _set = self._set
        d = instr.operands[0].index
        s = instr.operands[1].index

        def w_cvtss2sd(idx):
            b0 = xl[s]
            nxt = closure(idx)
            shadow[d] = b0 & _M32  # already a float32 pattern: exact shadow
            r0 = xl[d]
            for ch in self._diverged(s, d):
                vb = ch.diffs.get(s, b0)
                _set(ch, d, double_to_bits(bits_to_single(vb & _M32)), r0)
            return nxt

        return w_cvtss2sd

    # -- integer computation: divergence must not enter ---------------------

    def _wrap_int_compute(self, instr, closure):
        locs = tuple(
            _GPR + operand.index
            for operand in instr.operands
            if isinstance(operand, Reg)
        )
        _kill_at = self._kill_at

        def w_int(idx):
            for loc in locs:
                _kill_at(loc, "int-compute")
            return closure(idx)

        return w_int

    def _wrap_lea(self, instr, closure):
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

    def _wrap_push(self, vm, instr, closure):
        """PUSH reg/imm and CALL (which pushes a code-relative return
        address, identical in every channel)."""
        gpr = vm.gpr
        shadow = self.shadow
        _move = self._move
        _clear = self._clear
        src = instr.operands[0] if instr.opcode is Op.PUSH else None
        if isinstance(src, Reg):
            sloc = _GPR + src.index
            si = src.index

            def w_push_r(idx):
                self._kill_at(_SP, "address-diverged")
                b0 = gpr[si]
                nxt = closure(idx)
                mloc = _MEM + gpr[15]
                shadow.pop(mloc, None)
                _move(sloc, mloc, b0, b0)
                return nxt

            return w_push_r

        def w_push(idx):
            self._kill_at(_SP, "address-diverged")
            nxt = closure(idx)
            mloc = _MEM + gpr[15]
            shadow.pop(mloc, None)
            _clear(mloc)
            return nxt

        return w_push

    def _wrap_pop(self, vm, instr, closure):
        gpr = vm.gpr
        mem = vm.mem
        top = len(mem)
        _move = self._move
        dloc = _GPR + instr.operands[0].index

        def w_pop(idx):
            self._kill_at(_SP, "address-diverged")
            sp = gpr[15]
            if not 0 <= sp < top:
                return closure(idx)
            b0 = mem[sp]
            nxt = closure(idx)
            _move(_MEM + sp, dloc, b0, b0)
            return nxt

        return w_pop

    def _wrap_ret(self, vm, closure):
        gpr = vm.gpr
        _kill_at = self._kill_at

        def w_ret(idx):
            _kill_at(_SP, "address-diverged")
            # a diverged word where the return address lives would send
            # the channel's control flow elsewhere.
            _kill_at(_MEM + gpr[15], "return-address")
            return closure(idx)

        return w_ret

    def _wrap_pushx(self, vm, instr, closure):
        gpr = vm.gpr
        xl, xh = vm.xmm_lo, vm.xmm_hi
        _carry = self._carry
        x = instr.operands[0].index

        def w_pushx(idx):
            self._kill_at(_SP, "address-diverged")
            lo0, hi0 = xl[x], xh[x]
            nxt = closure(idx)
            sp = gpr[15]  # the closure wrote xl/xh at sp, sp + 1
            _carry(x, _MEM + sp, lo0, lo0)
            _carry(_XH + x, _MEM + sp + 1, hi0, hi0)
            return nxt

        return w_pushx

    def _wrap_popx(self, vm, instr, closure):
        gpr = vm.gpr
        mem = vm.mem
        top = len(mem)
        _carry = self._carry
        x = instr.operands[0].index

        def w_popx(idx):
            self._kill_at(_SP, "address-diverged")
            sp = gpr[15]
            if not (0 <= sp and sp + 1 < top):
                return closure(idx)
            lo0, hi0 = mem[sp], mem[sp + 1]
            nxt = closure(idx)
            _carry(_MEM + sp, x, lo0, lo0)
            _carry(_MEM + sp + 1, _XH + x, hi0, hi0)
            return nxt

        return w_popx

    # -- outputs -----------------------------------------------------------

    def _wrap_out(self, vm, instr, closure):
        op = instr.opcode
        r = instr.operands[0].index
        if op is Op.OUTI:
            loc = _GPR + r
            kind = "i"
            regs = vm.gpr
        else:
            loc = r
            kind = "d" if op is Op.OUTSD else "s"
            regs = vm.xmm_lo
        rev = self.rev
        outss = op is Op.OUTSS

        def w_out(idx):
            b0 = regs[r]
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

    def _unmodeled(self, vm, instr, addr):
        """The channel side of an op the model does not simulate (packed
        arithmetic, single-precision arithmetic): a function of the
        memory operand's address (None without one) that kills any
        channel whose divergence could flow through the op, and — if the
        op is itself a replacement candidate — its own channel too, so
        no verdict is ever derived from unmodeled semantics."""
        info = OPCODE_INFO.get(instr.opcode)
        locs: list[int] = []
        alocs: tuple = ()
        for operand in instr.operands:
            if isinstance(operand, Xmm):
                locs.append(operand.index)
                locs.append(_XH + operand.index)
            elif isinstance(operand, Reg):
                locs.append(_GPR + operand.index)
            elif isinstance(operand, Mem):
                alocs = _mem_gpr_locs(operand)
        candidate = bool(info is not None and info.single_equiv is not None)
        top = len(vm.mem)
        _kill_at = self._kill_at

        def kill(a):
            for loc in locs:
                _kill_at(loc, "unmodeled-op")
            if a is not None:
                self._guard_addr(alocs)
                if 0 <= a < top:
                    _kill_at(_MEM + a, "unmodeled-op")
                    _kill_at(_MEM + a + 1, "unmodeled-op")
            if candidate:
                ch = self._own(addr)
                if not ch.unknown:
                    self._kill(ch, "unmodeled-op")

        return kill

    def _wrap_conservative(self, vm, instr, addr, closure):
        """Every op the channel model does not simulate, apart from the
        packed double arithmetic (:meth:`_wrap_packed`)."""
        kill = self._unmodeled(vm, instr, addr)
        mems = [o for o in instr.operands if isinstance(o, Mem)]
        addrf = vm._addr_fn(mems[0]) if mems else None
        op = instr.opcode
        shadow = self.shadow
        drops: tuple = ()
        if op in _SHADOW_DROP_LO or op in _SHADOW_DROP_BOTH:
            d = instr.operands[0].index
            drops = (d, _XH + d) if op in _SHADOW_DROP_BOTH else (d,)

        def w_conservative(idx):
            kill(addrf() if addrf is not None else None)
            if not drops:
                return closure(idx)
            nxt = closure(idx)
            for loc in drops:
                shadow.pop(loc, None)
            return nxt

        return w_conservative
