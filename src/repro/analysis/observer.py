"""The shadow-value execution observer.

Plugs into the VM's observer hook (``VM(observer=...)``): for every
double-precision replacement candidate the observer installs a wrapper
closure that watches one execution of the instruction — reading its
operands just before the original closure runs and its result just
after — without touching any architectural state.  Outputs, cycle
counts, step counts and trap addresses are bit-identical with the
observer attached or not (tests/vm/test_observer_parity.py).

Per instruction the observer maintains:

* **value ranges** — min/max magnitude over every operand and result;
* **cancellation events** — on ADDSD/SUBSD, the exponent drop from the
  larger operand to the result (a drop of *k* bits means the top *k*
  bits of both operands annihilated, so roughly ``k`` bits of any input
  rounding error are promoted into the result's leading digits);
* a **float32 shadow** of each value — a side-by-side single-precision
  state propagated through moves, loads, stores and arithmetic — from
  which it derives two relative-error estimates per instruction:
  ``local`` (inputs rounded to float32 once, then the float32 op —
  exactly what an in-place replacement of this one instruction
  computes) and ``shadow`` (inputs taken from the propagated shadow
  state — what a whole-region replacement accumulates).

Shadow propagation covers MOVSD/MOVAPD (all forms), PUSHX/POPX and
CVTSS2SD; any write the model does not track (raw integer stores, MOVSS
and friends, bit-level register transfers) *invalidates* the shadow of
the destination, and a missing shadow falls back to rounding the actual
double — so the shadow state never goes stale, it only loses history.
"""

from __future__ import annotations

import math

from repro.fpbits import ieee
from repro.fpbits.ieee import (
    F32, bits_to_double, bits_to_single, single_from_int, single_to_bits,
)
from repro.isa.opcodes import OPCODE_INFO, Op
from repro.isa.operands import Mem, Xmm
from repro.vm.fpops import FPD_BIN, FPD_UN, FPN_BIN, FPN_UN, PD_BIN, PS_BIN

_M32 = 0xFFFFFFFF
_EXP_MASK = 0x7FF

#: float32 representable-magnitude limits (normal range).
F32_MAX = F32.max_finite
F32_MIN_NORMAL = F32.min_normal

#: exponent drops below this many bits are ordinary rounding noise, not
#: catastrophic cancellation (float32 keeps 24 significand bits, so a
#: drop has to eat a meaningful fraction of them to matter).
CANCEL_MIN_BITS = 10

# float32 equivalents of the double arithmetic ops (per lane for the
# packed ones; SQRTPD's equivalent SQRTPS has no table of its own).
_F32_BIN = {
    op: (FPN_BIN | PS_BIN)[OPCODE_INFO[op].single_equiv]
    for op in (*FPD_BIN, *PD_BIN)
}
_F32_UN = {op: FPN_UN[OPCODE_INFO[op].single_equiv] for op in FPD_UN}
_F32_UN[Op.SQRTPD] = ieee.single_sqrt

_SCALAR_BIN = frozenset(
    (Op.ADDSD, Op.SUBSD, Op.MULSD, Op.DIVSD, Op.MINSD, Op.MAXSD)
)
_SCALAR_UN = frozenset(
    (Op.SQRTSD, Op.ABSSD, Op.NEGSD, Op.SINSD, Op.COSSD, Op.EXPSD, Op.LOGSD)
)
_PACKED_BIN = frozenset((Op.ADDPD, Op.SUBPD, Op.MULPD, Op.DIVPD))

#: lo-lane invalidators: ops that write an xmm low lane in a way the
#: shadow model does not track.
_INVAL_LO = frozenset(
    (
        Op.MOVQXR,
        Op.CVTSD2SS,
        Op.CVTSI2SS,
        Op.ADDSS, Op.SUBSS, Op.MULSS, Op.DIVSS, Op.MINSS, Op.MAXSS,
        Op.SQRTSS, Op.ABSSS, Op.NEGSS, Op.SINSS, Op.COSSS,
        Op.EXPSS, Op.LOGSS,
        Op.CVTTSS2SI,  # writes gpr only, listed defensively; wrap skips it
    )
)
_INVAL_BOTH = frozenset(
    (Op.ADDPS, Op.SUBPS, Op.MULPS, Op.DIVPS, Op.SQRTPS)
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


class ShadowObserver:
    """VM observer computing the shadow-value analysis of one run.

    Use via ``VM(program, observer=ShadowObserver())`` or
    ``run_program(..., observer=obs)``; after the run, ``obs.stats``
    maps text address -> :class:`InstrStats` for every observed
    double-precision candidate instruction that executed.
    """

    def __init__(self) -> None:
        self.stats: dict[int, InstrStats] = {}
        # float32 shadow state: xmm lanes and memory words carrying a
        # single-precision bit pattern mirroring the double they hold.
        self._sreg: dict[int, int] = {}
        self._sreg_hi: dict[int, int] = {}
        self._smem: dict[int, int] = {}

    # -- helpers ----------------------------------------------------------

    def _stat(self, addr: int, mnemonic: str) -> InstrStats:
        st = self.stats.get(addr)
        if st is None:
            st = self.stats[addr] = InstrStats(mnemonic)
        return st

    # -- the hook ---------------------------------------------------------

    def wrap(self, vm, index: int, instr, addr: int, closure):
        """Return a wrapper closure for *instr*, or None to leave it be."""
        op = instr.opcode
        if op in _SCALAR_BIN:
            return self._wrap_scalar_bin(vm, instr, addr, closure)
        if op in _SCALAR_UN:
            return self._wrap_scalar_un(vm, instr, addr, closure)
        if op in _PACKED_BIN or op is Op.SQRTPD:
            return self._wrap_packed(vm, instr, addr, closure)
        if op is Op.UCOMISD:
            return self._wrap_ucomisd(vm, instr, addr, closure)
        if op is Op.CVTSI2SD:
            return self._wrap_cvtsi2sd(vm, instr, addr, closure)
        if op is Op.CVTTSD2SI:
            return self._wrap_cvttsd2si(vm, instr, addr, closure)
        # -- shadow propagation (not candidates, but they carry values) --
        if op is Op.MOVSD:
            return self._wrap_movsd(vm, instr, closure)
        if op is Op.MOVAPD:
            return self._wrap_movapd(vm, instr, closure)
        if op is Op.PUSHX:
            return self._wrap_pushx(vm, instr, closure)
        if op is Op.POPX:
            return self._wrap_popx(vm, instr, closure)
        if op is Op.CVTSS2SD:
            return self._wrap_cvtss2sd(vm, instr, closure)
        # -- shadow invalidation (untracked writers) ---------------------
        if op in _INVAL_LO:
            d = instr.operands[0]
            if isinstance(d, Xmm):
                return self._wrap_inval_reg(d.index, closure, both=False)
            return None
        if op in _INVAL_BOTH:
            return self._wrap_inval_reg(instr.operands[0].index, closure, both=True)
        if op is Op.MOVSS:
            return self._wrap_movss(vm, instr, closure)
        if op is Op.PINSR:
            lane = instr.operands[2].value
            shadow = self._sreg if lane == 0 else self._sreg_hi
            x = instr.operands[0].index

            def w_pinsr(idx):
                nxt = closure(idx)
                shadow.pop(x, None)
                return nxt

            return w_pinsr
        if op is Op.MOV and isinstance(instr.operands[0], Mem):
            return self._wrap_store_inval(vm, instr.operands[0], closure)
        if op is Op.PUSH or op is Op.CALL:
            gpr = vm.gpr
            smem = self._smem

            def w_push(idx):
                nxt = closure(idx)
                smem.pop(gpr[15], None)
                return nxt

            return w_push
        return None

    # -- memory access helpers -------------------------------------------

    def _mem_reader(self, vm, m: Mem):
        """(addr, bits) reader for a Mem operand; None when out of bounds
        (the wrapper then skips observation and lets the original closure
        raise the trap, preserving the trap address)."""
        addrf = vm._addr_fn(m)
        mem = vm.mem
        top = len(mem)

        def read():
            a = addrf()
            if 0 <= a < top:
                return a, mem[a]
            return None

        return read

    # -- arithmetic wrappers ---------------------------------------------

    def _wrap_scalar_bin(self, vm, instr, addr, closure):
        op = instr.opcode
        fn32 = _F32_BIN[op]
        cancels = op is Op.ADDSD or op is Op.SUBSD
        st = self._stat(addr, instr.info.mnemonic)
        xl = vm.xmm_lo
        sreg = self._sreg
        smem = self._smem
        d = instr.operands[0].index
        src = instr.operands[1]
        if isinstance(src, Xmm):
            s = src.index

            def w_bin_xx(idx):
                a = xl[d]
                b = xl[s]
                sa = sreg.get(d)
                sb = sreg.get(s)
                nxt = closure(idx)
                self._record_bin(
                    st, fn32, cancels, a, b, sa, sb, xl[d], sreg, d
                )
                return nxt

            return w_bin_xx
        read = self._mem_reader(vm, src)

        def w_bin_xm(idx):
            loc = read()
            if loc is None:
                return closure(idx)  # out-of-bounds: the closure traps
            ma, b = loc
            a = xl[d]
            sa = sreg.get(d)
            sb = smem.get(ma)
            nxt = closure(idx)
            self._record_bin(st, fn32, cancels, a, b, sa, sb, xl[d], sreg, d)
            return nxt

        return w_bin_xm

    def _record_bin(self, st, fn32, cancels, a, b, sa, sb, r, sreg, d):
        st.execs += 1
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
        shadow = fn32(sa if sa is not None else ra, sb if sb is not None else rb)
        sreg[d] = shadow
        st.error(fr, bits_to_single(local), bits_to_single(shadow))

    def _wrap_scalar_un(self, vm, instr, addr, closure):
        fn32 = _F32_UN[instr.opcode]
        st = self._stat(addr, instr.info.mnemonic)
        xl = vm.xmm_lo
        sreg = self._sreg
        smem = self._smem
        d = instr.operands[0].index
        src = instr.operands[1]
        if isinstance(src, Xmm):
            s = src.index

            def w_un_x(idx):
                a = xl[s]
                sa = sreg.get(s)
                nxt = closure(idx)
                self._record_un(st, fn32, a, sa, xl[d], sreg, d)
                return nxt

            return w_un_x
        read = self._mem_reader(vm, src)

        def w_un_m(idx):
            loc = read()
            if loc is None:
                return closure(idx)
            ma, a = loc
            sa = smem.get(ma)
            nxt = closure(idx)
            self._record_un(st, fn32, a, sa, xl[d], sreg, d)
            return nxt

        return w_un_m

    def _record_un(self, st, fn32, a, sa, r, sreg, d):
        st.execs += 1
        fa = bits_to_double(a)
        fr = bits_to_double(r)
        st.see(fa)
        st.result(fr)
        ra = _round32(a)
        local = fn32(ra)
        shadow = fn32(sa if sa is not None else ra)
        sreg[d] = shadow
        st.error(fr, bits_to_single(local), bits_to_single(shadow))

    def _wrap_packed(self, vm, instr, addr, closure):
        op = instr.opcode
        unary = op is Op.SQRTPD
        fn32 = _F32_UN[op] if unary else _F32_BIN[op]
        cancels = op is Op.ADDPD or op is Op.SUBPD
        st = self._stat(addr, instr.info.mnemonic)
        xl, xh = vm.xmm_lo, vm.xmm_hi
        sreg, sreg_hi, smem = self._sreg, self._sreg_hi, self._smem
        d = instr.operands[0].index
        src = instr.operands[1]
        if isinstance(src, Xmm):
            s = src.index

            def read2():
                return (xl[s], xh[s], sreg.get(s), sreg_hi.get(s))

        else:
            addrf = vm._addr_fn(src)
            mem = vm.mem
            top = len(mem)

            def read2():
                a = addrf()
                if 0 <= a and a + 1 < top:
                    return (mem[a], mem[a + 1], smem.get(a), smem.get(a + 1))
                return None

        def w_packed(idx):
            loc = read2()
            if loc is None:
                return closure(idx)
            blo, bhi, sblo, sbhi = loc
            alo, ahi = xl[d], xh[d]
            salo, sahi = sreg.get(d), sreg_hi.get(d)
            nxt = closure(idx)
            st.execs += 1
            if unary:
                self._lane_un(st, fn32, blo, sblo, xl[d], sreg, d)
                self._lane_un(st, fn32, bhi, sbhi, xh[d], sreg_hi, d)
            else:
                self._lane_bin(
                    st, fn32, cancels, alo, blo, salo, sblo, xl[d], sreg, d
                )
                self._lane_bin(
                    st, fn32, cancels, ahi, bhi, sahi, sbhi, xh[d], sreg_hi, d
                )
            return nxt

        return w_packed

    def _lane_bin(self, st, fn32, cancels, a, b, sa, sb, r, shadow, d):
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
        shadow[d] = sh
        st.error(fr, bits_to_single(local), bits_to_single(sh))

    def _lane_un(self, st, fn32, a, sa, r, shadow, d):
        fa = bits_to_double(a)
        fr = bits_to_double(r)
        st.see(fa)
        st.result(fr)
        ra = _round32(a)
        local = fn32(ra)
        sh = fn32(sa if sa is not None else ra)
        shadow[d] = sh
        st.error(fr, bits_to_single(local), bits_to_single(sh))

    # -- compare / convert wrappers --------------------------------------

    def _wrap_ucomisd(self, vm, instr, addr, closure):
        st = self._stat(addr, instr.info.mnemonic)
        xl = vm.xmm_lo
        sreg, smem = self._sreg, self._smem
        d = instr.operands[0].index
        src = instr.operands[1]
        if isinstance(src, Xmm):
            s = src.index

            def readb():
                return xl[s], sreg.get(s)

        else:
            mread = self._mem_reader(vm, src)

            def readb():
                loc = mread()
                if loc is None:
                    return None
                ma, b = loc
                return b, smem.get(ma)

        def w_ucomisd(idx):
            loc = readb()
            if loc is None:
                return closure(idx)
            b, sb = loc
            a = xl[d]
            sa = sreg.get(d)
            nxt = closure(idx)
            st.execs += 1
            fa = bits_to_double(a)
            fb = bits_to_double(b)
            st.see(fa)
            st.see(fb)
            ga = bits_to_single(sa if sa is not None else _round32(a))
            gb = bits_to_single(sb if sb is not None else _round32(b))
            # Same three-way relation the VM derives flags from: a
            # float32 replacement that orders the operands differently
            # steers branches down another path.
            if _relation(fa, fb) != _relation(ga, gb):
                st.flips += 1
            return nxt

        return w_ucomisd

    def _wrap_cvtsi2sd(self, vm, instr, addr, closure):
        st = self._stat(addr, instr.info.mnemonic)
        xl, gpr = vm.xmm_lo, vm.gpr
        sreg = self._sreg
        d = instr.operands[0].index
        s = instr.operands[1].index

        def w_cvtsi2sd(idx):
            v = gpr[s]
            nxt = closure(idx)
            st.execs += 1
            fr = bits_to_double(xl[d])
            st.result(fr)
            sh = single_from_int(v - 0x10000000000000000 if v >> 63 else v)
            sreg[d] = sh
            f32 = bits_to_single(sh)
            st.error(fr, f32, f32)
            return nxt

        return w_cvtsi2sd

    def _wrap_cvttsd2si(self, vm, instr, addr, closure):
        st = self._stat(addr, instr.info.mnemonic)
        xl = vm.xmm_lo
        sreg = self._sreg
        s = instr.operands[1].index

        def w_cvttsd2si(idx):
            a = xl[s]
            sa = sreg.get(s)
            nxt = closure(idx)
            st.execs += 1
            fa = bits_to_double(a)
            st.see(fa)
            fs = bits_to_single(sa if sa is not None else _round32(a))
            if _trunc(fa) != _trunc(fs):
                st.flips += 1  # the float32 path yields a different integer
            return nxt

        return w_cvttsd2si

    # -- propagation wrappers --------------------------------------------

    def _wrap_movsd(self, vm, instr, closure):
        sreg, sreg_hi, smem = self._sreg, self._sreg_hi, self._smem
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Xmm):
                s = src.index

                def w_movsd_xx(idx):
                    nxt = closure(idx)
                    sh = sreg.get(s)
                    if sh is None:
                        sreg.pop(d, None)
                    else:
                        sreg[d] = sh
                    return nxt

                return w_movsd_xx
            read = self._mem_reader(vm, src)

            def w_movsd_xm(idx):
                loc = read()
                if loc is None:
                    return closure(idx)
                ma, _bits = loc
                nxt = closure(idx)
                sh = smem.get(ma)
                if sh is None:
                    sreg.pop(d, None)
                else:
                    sreg[d] = sh
                sreg_hi[d] = 0  # the closure zeroed the high lane
                return nxt

            return w_movsd_xm
        s = src.index
        addrf = vm._addr_fn(dst)
        top = len(vm.mem)

        def w_movsd_mx(idx):
            a = addrf()
            nxt = closure(idx)  # performs the bounds check itself
            if 0 <= a < top:
                sh = sreg.get(s)
                if sh is None:
                    smem.pop(a, None)
                else:
                    smem[a] = sh
            return nxt

        return w_movsd_mx

    def _wrap_movapd(self, vm, instr, closure):
        sreg, sreg_hi, smem = self._sreg, self._sreg_hi, self._smem
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            d = dst.index
            if isinstance(src, Xmm):
                s = src.index

                def w_movapd_xx(idx):
                    nxt = closure(idx)
                    _copy_shadow(sreg, s, sreg, d)
                    _copy_shadow(sreg_hi, s, sreg_hi, d)
                    return nxt

                return w_movapd_xx
            addrf = vm._addr_fn(src)
            top = len(vm.mem)

            def w_movapd_xm(idx):
                a = addrf()
                if not (0 <= a and a + 1 < top):
                    return closure(idx)
                nxt = closure(idx)
                _copy_shadow(smem, a, sreg, d)
                _copy_shadow(smem, a + 1, sreg_hi, d)
                return nxt

            return w_movapd_xm
        s = src.index
        addrf = vm._addr_fn(dst)
        top = len(vm.mem)

        def w_movapd_mx(idx):
            a = addrf()
            nxt = closure(idx)
            if 0 <= a and a + 1 < top:
                _copy_shadow(sreg, s, smem, a)
                _copy_shadow(sreg_hi, s, smem, a + 1)
            return nxt

        return w_movapd_mx

    def _wrap_pushx(self, vm, instr, closure):
        sreg, sreg_hi, smem = self._sreg, self._sreg_hi, self._smem
        gpr = vm.gpr
        x = instr.operands[0].index

        def w_pushx(idx):
            nxt = closure(idx)
            sp = gpr[15]  # the closure just wrote xl/xh at sp, sp+1
            _copy_shadow(sreg, x, smem, sp)
            _copy_shadow(sreg_hi, x, smem, sp + 1)
            return nxt

        return w_pushx

    def _wrap_popx(self, vm, instr, closure):
        sreg, sreg_hi, smem = self._sreg, self._sreg_hi, self._smem
        gpr = vm.gpr
        x = instr.operands[0].index

        def w_popx(idx):
            sp = gpr[15]
            nxt = closure(idx)
            _copy_shadow(smem, sp, sreg, x)
            _copy_shadow(smem, sp + 1, sreg_hi, x)
            return nxt

        return w_popx

    def _wrap_cvtss2sd(self, vm, instr, closure):
        xl = vm.xmm_lo
        sreg = self._sreg
        d = instr.operands[0].index
        s = instr.operands[1].index

        def w_cvtss2sd(idx):
            low = xl[s] & _M32  # already a float32 pattern: exact shadow
            nxt = closure(idx)
            sreg[d] = low
            return nxt

        return w_cvtss2sd

    # -- invalidation wrappers -------------------------------------------

    def _wrap_inval_reg(self, d, closure, both):
        sreg, sreg_hi = self._sreg, self._sreg_hi

        def w_inval(idx):
            nxt = closure(idx)
            sreg.pop(d, None)
            if both:
                sreg_hi.pop(d, None)
            return nxt

        return w_inval

    def _wrap_movss(self, vm, instr, closure):
        dst, src = instr.operands
        if isinstance(dst, Xmm):
            if isinstance(src, Mem):
                # the load form zeroes the high lane as well
                d = dst.index
                sreg, sreg_hi = self._sreg, self._sreg_hi

                def w_movss_xm(idx):
                    nxt = closure(idx)
                    sreg.pop(d, None)
                    sreg_hi[d] = 0
                    return nxt

                return w_movss_xm
            return self._wrap_inval_reg(dst.index, closure, both=False)
        return self._wrap_store_inval(vm, dst, closure)

    def _wrap_store_inval(self, vm, dst: Mem, closure):
        smem = self._smem
        addrf = vm._addr_fn(dst)

        def w_store(idx):
            a = addrf()
            nxt = closure(idx)
            smem.pop(a, None)
            return nxt

        return w_store


def _copy_shadow(src: dict, s, dst: dict, d) -> None:
    sh = src.get(s)
    if sh is None:
        dst.pop(d, None)
    else:
        dst[d] = sh


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
