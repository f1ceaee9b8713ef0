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

Parity contract (asserted by tests/vm/test_fused_parity.py and the
differential suites): a fused run is bit-identical and cycle-identical
to the per-instruction loop —

* cycles are accumulated as one constant-folded ``cyc[0] += TOTAL`` on
  fall-through; every fault site charges exactly the partial sum of the
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
  exactly like the reference helpers.

Execution counting is not generated into runs: a counting VM wraps
each run head at load time, and the exits above tell the wrapper which
members ran (see ``VM._install_counters``).

Generated factories are position- and VM-independent: branch targets,
return addresses, MPI identity and the state arrays are passed as
factory arguments, so one compiled factory (keyed by the run's
*unpatched template bytes* plus the cost model) is shared across every
program, configuration and Machine in the process.
"""

from __future__ import annotations

from repro.fpbits import ieee, narrow
from repro.isa.opcodes import Op, OPCODE_INFO, RED_MAX, RED_MIN, RED_SUM
from repro.isa.operands import Imm, Mem, Reg, Xmm
from repro.vm.errors import VmTrap

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


#: globals handed to every exec'd factory — the same helpers the
#: reference closures call, bound once.
_EXEC_GLOBALS = {
    "__builtins__": {"abs": abs, "float": float, "int": int, "len": len},
    "_M64": _M64,
    "_M32": _M32,
    "_HI32": _HI32,
    "_INT_INDEFINITE": _INT_INDEFINITE,
    "_XORSHIFT_MULT": _XORSHIFT_MULT,
    "_s64": _s64,
    "_FT": FusedTrap,
    "VmTrap": VmTrap,
    "bits_to_double": ieee.bits_to_double,
    "bits_to_single": ieee.bits_to_single,
    "double_to_bits": ieee.double_to_bits,
    "single_to_bits": ieee.single_to_bits,
}
for _name in (
    "double_add", "double_sub", "double_mul", "double_div", "double_min",
    "double_max", "double_sqrt", "double_abs", "double_neg", "double_sin",
    "double_cos", "double_exp", "double_log",
    "single_add", "single_sub", "single_mul", "single_div", "single_min",
    "single_max", "single_sqrt", "single_abs", "single_neg", "single_sin",
    "single_cos", "single_exp", "single_log",
):
    _EXEC_GLOBALS[_name] = getattr(ieee, _name)
for _name in (
    "bf16_add", "bf16_sub", "bf16_mul", "bf16_div", "bf16_min", "bf16_max",
    "bf16_sqrt", "bf16_abs", "bf16_neg", "bf16_sin", "bf16_cos", "bf16_exp",
    "bf16_log", "bits_to_bf16", "bf16_to_bits",
    "f16_add", "f16_sub", "f16_mul", "f16_div", "f16_min", "f16_max",
    "f16_sqrt", "f16_abs", "f16_neg", "f16_sin", "f16_cos", "f16_exp",
    "f16_log", "bits_to_f16", "f16_to_bits",
):
    _EXEC_GLOBALS[_name] = getattr(narrow, _name)

_FPD_BIN = {
    Op.ADDSD: "double_add", Op.SUBSD: "double_sub", Op.MULSD: "double_mul",
    Op.DIVSD: "double_div", Op.MINSD: "double_min", Op.MAXSD: "double_max",
}
_FPD_UN = {
    Op.SQRTSD: "double_sqrt", Op.ABSSD: "double_abs", Op.NEGSD: "double_neg",
    Op.SINSD: "double_sin", Op.COSSD: "double_cos", Op.EXPSD: "double_exp",
    Op.LOGSD: "double_log",
}
_FPS_BIN = {
    Op.ADDSS: "single_add", Op.SUBSS: "single_sub", Op.MULSS: "single_mul",
    Op.DIVSS: "single_div", Op.MINSS: "single_min", Op.MAXSS: "single_max",
}
_FPS_UN = {
    Op.SQRTSS: "single_sqrt", Op.ABSSS: "single_abs", Op.NEGSS: "single_neg",
    Op.SINSS: "single_sin", Op.COSSS: "single_cos", Op.EXPSS: "single_exp",
    Op.LOGSS: "single_log",
}
_FPN_BIN = {
    Op.ADDBF: "bf16_add", Op.SUBBF: "bf16_sub", Op.MULBF: "bf16_mul",
    Op.DIVBF: "bf16_div", Op.MINBF: "bf16_min", Op.MAXBF: "bf16_max",
    Op.ADDHF: "f16_add", Op.SUBHF: "f16_sub", Op.MULHF: "f16_mul",
    Op.DIVHF: "f16_div", Op.MINHF: "f16_min", Op.MAXHF: "f16_max",
}
_FPN_UN = {
    Op.SQRTBF: "bf16_sqrt", Op.ABSBF: "bf16_abs", Op.NEGBF: "bf16_neg",
    Op.SINBF: "bf16_sin", Op.COSBF: "bf16_cos", Op.EXPBF: "bf16_exp",
    Op.LOGBF: "bf16_log",
    Op.SQRTHF: "f16_sqrt", Op.ABSHF: "f16_abs", Op.NEGHF: "f16_neg",
    Op.SINHF: "f16_sin", Op.COSHF: "f16_cos", Op.EXPHF: "f16_exp",
    Op.LOGHF: "f16_log",
}
#: opcode -> (decode name, encode name) for narrow compare/convert.
_FPN_CODEC_OPS = {
    Op.UCOMIBF: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTSI2BF: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTTBF2SI: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTSD2BF: ("bits_to_bf16", "bf16_to_bits"),
    Op.CVTBF2SD: ("bits_to_bf16", "bf16_to_bits"),
    Op.UCOMIHF: ("bits_to_f16", "f16_to_bits"),
    Op.CVTSI2HF: ("bits_to_f16", "f16_to_bits"),
    Op.CVTTHF2SI: ("bits_to_f16", "f16_to_bits"),
    Op.CVTSD2HF: ("bits_to_f16", "f16_to_bits"),
    Op.CVTHF2SD: ("bits_to_f16", "f16_to_bits"),
}
_PD_BIN = {
    Op.ADDPD: "double_add", Op.SUBPD: "double_sub",
    Op.MULPD: "double_mul", Op.DIVPD: "double_div",
}
_PS_BIN = {
    Op.ADDPS: "single_add", Op.SUBPS: "single_sub",
    Op.MULPS: "single_mul", Op.DIVPS: "single_div",
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
_COND_EXPR = {
    Op.JE: "flags[0]",
    Op.JNE: "not flags[0]",
    Op.JL: "flags[1]",
    Op.JLE: "flags[1] or flags[0]",
    Op.JG: "not (flags[1] or flags[0] or flags[2])",
    Op.JGE: "not flags[1] and not flags[2]",
    Op.JP: "flags[2]",
    Op.JNP: "not flags[2]",
}

#: placeholder for the run length, substituted once the run is closed.
_K = "__K__"


def _addr_expr(m: Mem) -> str:
    parts = []
    if m.base is not None:
        parts.append(f"gpr[{m.base}]")
    if m.index is not None:
        if m.scale != 1:
            parts.append(f"gpr[{m.index}] * {m.scale}")
        else:
            parts.append(f"gpr[{m.index}]")
    if m.disp or not parts:
        parts.append(str(m.disp))
    return " + ".join(parts)


class _RunEmitter:
    """Accumulates the generated source of one fused run.

    ``j`` is the relative index of the instruction being emitted; every
    fault site charges the constant partial cycle sum of the completed
    instructions and returns the unexecuted suffix to the steps-left
    cell before raising.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.lines: list[str] = []
        self.j = 0
        self.cycles = 0  # partial sum: cost of instructions < j
        self.halted = False  # a HALT was emitted; run falls through no more

    # -- plumbing ---------------------------------------------------------

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def fault_lines(self, raise_stmt: str, extra_cycles: int = 0) -> list[str]:
        out = []
        charge = self.cycles + extra_cycles
        if charge:
            out.append(f"cyc[0] += {charge}")
        out.append(f"sl[0] += {_K} - {self.j + 1}")
        out.append(raise_stmt)
        return out

    def guard(self, cond: str, raise_stmt: str) -> None:
        self.emit(f"if {cond}:")
        self.emit(*("    " + ln for ln in self.fault_lines(raise_stmt)))

    def ft(self, msg_expr: str) -> str:
        return f"raise _FT({msg_expr}, {self.j})"

    # -- operand fragments ------------------------------------------------

    def read64(self, m: Mem, var: str) -> None:
        a = f"a{self.j}"
        self.emit(f"{a} = {_addr_expr(m)}")
        self.guard(
            f"not (0 <= {a} < top)",
            self.ft(f'f"memory read out of bounds: {{{a}}}"'),
        )
        self.emit(f"{var} = mem[{a}]")

    def src64(self, operand) -> str:
        """Expression for a 64-bit source; Mem emits a checked read."""
        if isinstance(operand, Reg):
            return f"gpr[{operand.index}]"
        if isinstance(operand, Imm):
            return str(operand.value & _M64)
        if isinstance(operand, Mem):
            var = f"v{self.j}"
            self.read64(operand, var)
            return var
        raise Unfusable

    def xsrc64(self, operand) -> str:
        if isinstance(operand, Xmm):
            return f"xl[{operand.index}]"
        if isinstance(operand, Mem):
            var = f"v{self.j}"
            self.read64(operand, var)
            return var
        raise Unfusable

    def xsrc128(self, operand) -> tuple[str, str]:
        """(lo, hi) expressions; Mem emits a checked 2-cell read."""
        if isinstance(operand, Xmm):
            i = operand.index
            return f"xl[{i}]", f"xh[{i}]"
        if isinstance(operand, Mem):
            a = f"a{self.j}"
            self.emit(f"{a} = {_addr_expr(operand)}")
            self.guard(
                f"not (0 <= {a} and {a} + 1 < top)",
                self.ft(f'f"packed memory read out of bounds: {{{a}}}"'),
            )
            return f"mem[{a}]", f"mem[{a} + 1]"
        raise Unfusable

    # -- one instruction --------------------------------------------------

    def instruction(self, instr, cost: int) -> None:
        """Emit the body of one straight-line instruction.

        Mirrors ``VM._build`` exactly: same state effects, same trap
        messages, same evaluation order (source reads trap before
        destination writes; overflow checks precede source reads where
        the reference closure checks first).  Raises :class:`Unfusable`
        for opcodes/operand shapes without a template.
        """
        op = instr.opcode
        ops = instr.operands
        j = self.j
        e = self.emit

        if op is Op.NOP:
            pass

        elif op is Op.HALT:
            # Charges its own cost, then stops the machine: the fault
            # preamble with the HALT's cost included is exactly the
            # reference accounting.
            self.emit(*self.fault_lines("raise halt", extra_cycles=cost))
            self.halted = True

        elif op is Op.OUTI:
            e(f'outputs.append(("i", gpr[{ops[0].index}]))')
        elif op is Op.OUTSD:
            e(f'outputs.append(("d", xl[{ops[0].index}]))')
        elif op is Op.OUTSS:
            e(f'outputs.append(("s", xl[{ops[0].index}] & _M32))')

        elif op is Op.RAND:
            r = ops[0].index
            e(f"s{j} = rng[0]",
              f"s{j} ^= s{j} >> 12",
              f"s{j} = (s{j} ^ (s{j} << 25)) & _M64",
              f"s{j} ^= s{j} >> 27",
              f"rng[0] = s{j}",
              f"gpr[{r}] = (s{j} * _XORSHIFT_MULT) & _M64")

        elif op is Op.MOV:
            dst, src = ops
            if isinstance(dst, Reg):
                d = dst.index
                if isinstance(src, Reg):
                    e(f"gpr[{d}] = gpr[{src.index}]")
                elif isinstance(src, Imm):
                    e(f"gpr[{d}] = {src.value & _M64}")
                elif isinstance(src, Mem):
                    self.read64(src, f"gpr[{d}]")
                else:
                    raise Unfusable
            elif isinstance(dst, Mem):
                # Reference order: source evaluated first (its read may
                # trap), then the destination bounds check.
                sv = self.src64(src)
                a = f"w{j}"
                e(f"{a} = {_addr_expr(dst)}")
                self.guard(
                    f"not (0 <= {a} < top)",
                    self.ft(f'f"memory write out of bounds: {{{a}}}"'),
                )
                e(f"mem[{a}] = {sv}")
            else:
                raise Unfusable

        elif op is Op.LEA:
            e(f"gpr[{ops[0].index}] = ({_addr_expr(ops[1])}) & _M64")

        elif op in _INT_BIN_EXPR:
            d = ops[0].index
            sv = self.src64(ops[1])
            expr = _INT_BIN_EXPR[op].format(d=f"gpr[{d}]", s=sv)
            e(f"gpr[{d}] = {expr}")

        elif op is Op.IDIV or op is Op.IREM:
            d = ops[0].index
            sv = self.src64(ops[1])
            e(f"b{j} = {sv}")
            # Plain address-less VmTrap, exactly like the reference
            # _idiv/_irem helpers (resume() must not stamp an address).
            self.guard(
                f"b{j} == 0",
                'raise VmTrap("integer division by zero")',
            )
            e(f"sa{j} = _s64(gpr[{d}])",
              f"sb{j} = _s64(b{j})")
            if op is Op.IDIV:
                e(f"q{j} = abs(sa{j}) // abs(sb{j})",
                  f"if (sa{j} < 0) != (sb{j} < 0):",
                  f"    q{j} = -q{j}",
                  f"gpr[{d}] = q{j} & _M64")
            else:
                e(f"q{j} = abs(sa{j}) % abs(sb{j})",
                  f"if sa{j} < 0:",
                  f"    q{j} = -q{j}",
                  f"gpr[{d}] = q{j} & _M64")

        elif op is Op.NOT:
            e(f"gpr[{ops[0].index}] ^= _M64")
        elif op is Op.NEG:
            d = ops[0].index
            e(f"gpr[{d}] = (-gpr[{d}]) & _M64")
        elif op is Op.INC:
            d = ops[0].index
            e(f"gpr[{d}] = (gpr[{d}] + 1) & _M64")
        elif op is Op.DEC:
            d = ops[0].index
            e(f"gpr[{d}] = (gpr[{d}] - 1) & _M64")

        elif op is Op.CMP:
            d = ops[0].index
            sv = self.src64(ops[1])
            e(f"ca{j} = gpr[{d}]",
              f"cb{j} = {sv}",
              f"flags[0] = 1 if ca{j} == cb{j} else 0",
              f"flags[1] = 1 if _s64(ca{j}) < _s64(cb{j}) else 0",
              "flags[2] = 0")

        elif op is Op.TEST:
            d = ops[0].index
            sv = self.src64(ops[1])
            e(f"v{j}t = gpr[{d}] & {sv}",
              f"flags[0] = 1 if v{j}t == 0 else 0",
              f"flags[1] = (v{j}t >> 63) & 1",
              "flags[2] = 0")

        elif op is Op.PUSH:
            e(f"sp{j} = gpr[15] - 1")
            self.guard(f"sp{j} < limit", self.ft('"stack overflow"'))
            sv = self.src64(ops[0])
            e(f"mem[sp{j}] = {sv}",
              f"gpr[15] = sp{j}")

        elif op is Op.POP:
            e(f"sp{j} = gpr[15]")
            self.guard(f"sp{j} >= top", self.ft('"stack underflow"'))
            e(f"gpr[{ops[0].index}] = mem[sp{j}]",
              f"gpr[15] = sp{j} + 1")

        elif op is Op.PUSHX:
            x = ops[0].index
            e(f"sp{j} = gpr[15] - 2")
            self.guard(f"sp{j} < limit", self.ft('"stack overflow"'))
            e(f"mem[sp{j}] = xl[{x}]",
              f"mem[sp{j} + 1] = xh[{x}]",
              f"gpr[15] = sp{j}")

        elif op is Op.POPX:
            x = ops[0].index
            e(f"sp{j} = gpr[15]")
            self.guard(f"sp{j} + 1 >= top", self.ft('"stack underflow"'))
            e(f"xl[{x}] = mem[sp{j}]",
              f"xh[{x}] = mem[sp{j} + 1]",
              f"gpr[15] = sp{j} + 2")

        elif op is Op.MOVSD:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    e(f"xl[{d}] = xl[{src.index}]")
                elif isinstance(src, Mem):
                    self.read64(src, f"xl[{d}]")
                    e(f"xh[{d}] = 0")
                else:
                    raise Unfusable
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                a = f"w{j}"
                e(f"{a} = {_addr_expr(dst)}")
                self.guard(
                    f"not (0 <= {a} < top)",
                    self.ft(f'f"memory write out of bounds: {{{a}}}"'),
                )
                e(f"mem[{a}] = xl[{src.index}]")
            else:
                raise Unfusable

        elif op is Op.MOVAPD:
            dst, src = ops
            if isinstance(dst, Xmm):
                lo, hi = self.xsrc128(src)
                d = dst.index
                e(f"xl[{d}] = {lo}",
                  f"xh[{d}] = {hi}")
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                a = f"w{j}"
                s = src.index
                e(f"{a} = {_addr_expr(dst)}")
                self.guard(
                    f"not (0 <= {a} and {a} + 1 < top)",
                    self.ft(f'f"packed memory write out of bounds: {{{a}}}"'),
                )
                e(f"mem[{a}] = xl[{s}]",
                  f"mem[{a} + 1] = xh[{s}]")
            else:
                raise Unfusable

        elif op in _FPD_BIN:
            fn = _FPD_BIN[op]
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            e(f"xl[{d}] = {fn}(xl[{d}], {sv})")

        elif op in _FPD_UN:
            fn = _FPD_UN[op]
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            e(f"xl[{d}] = {fn}({sv})")

        elif op is Op.UCOMISD or op is Op.UCOMISS:
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            if op is Op.UCOMISD:
                e(f"fa{j} = bits_to_double(xl[{d}])",
                  f"fb{j} = bits_to_double({sv})")
            else:
                e(f"fa{j} = bits_to_single(xl[{d}] & _M32)",
                  f"fb{j} = bits_to_single(({sv}) & _M32)")
            e(f"if fa{j} != fa{j} or fb{j} != fb{j}:",
              "    flags[0] = 1",
              "    flags[1] = 0",
              "    flags[2] = 1",
              "else:",
              f"    flags[0] = 1 if fa{j} == fb{j} else 0",
              f"    flags[1] = 1 if fa{j} < fb{j} else 0",
              "    flags[2] = 0")

        elif op is Op.CVTSI2SD:
            e(f"xl[{ops[0].index}] = double_to_bits(float(_s64(gpr[{ops[1].index}])))")

        elif op is Op.CVTTSD2SI or op is Op.CVTTSS2SI:
            d, s = ops[0].index, ops[1].index
            if op is Op.CVTTSD2SI:
                e(f"f{j} = bits_to_double(xl[{s}])")
            else:
                e(f"f{j} = bits_to_single(xl[{s}] & _M32)")
            e(f"if f{j} != f{j} or f{j} >= 9.223372036854776e18 or f{j} < -9.223372036854776e18:",
              f"    gpr[{d}] = _INT_INDEFINITE",
              "else:",
              f"    gpr[{d}] = int(f{j}) & _M64")

        elif op is Op.CVTSD2SS:
            d, s = ops[0].index, ops[1].index
            e(f"xl[{d}] = (xl[{d}] & _HI32) | single_to_bits(bits_to_double(xl[{s}]))")

        elif op is Op.CVTSS2SD:
            d, s = ops[0].index, ops[1].index
            e(f"xl[{d}] = double_to_bits(bits_to_single(xl[{s}] & _M32))")

        elif op in _FPN_BIN:
            fn = _FPN_BIN[op]
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            e(f"v{j}n = xl[{d}]",
              f"xl[{d}] = (v{j}n & _HI32) | {fn}(v{j}n & 0xFFFF, ({sv}) & 0xFFFF)")

        elif op in _FPN_UN:
            fn = _FPN_UN[op]
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            e(f"xl[{d}] = (xl[{d}] & _HI32) | {fn}(({sv}) & 0xFFFF)")

        elif op is Op.UCOMIBF or op is Op.UCOMIHF:
            dec = _FPN_CODEC_OPS[op][0]
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            e(f"fa{j} = {dec}(xl[{d}] & 0xFFFF)",
              f"fb{j} = {dec}(({sv}) & 0xFFFF)",
              f"if fa{j} != fa{j} or fb{j} != fb{j}:",
              "    flags[0] = 1",
              "    flags[1] = 0",
              "    flags[2] = 1",
              "else:",
              f"    flags[0] = 1 if fa{j} == fb{j} else 0",
              f"    flags[1] = 1 if fa{j} < fb{j} else 0",
              "    flags[2] = 0")

        elif op is Op.CVTSI2BF or op is Op.CVTSI2HF:
            enc = _FPN_CODEC_OPS[op][1]
            d, s = ops[0].index, ops[1].index
            e(f"xl[{d}] = (xl[{d}] & _HI32) | {enc}(float(_s64(gpr[{s}])))")

        elif op is Op.CVTTBF2SI or op is Op.CVTTHF2SI:
            dec = _FPN_CODEC_OPS[op][0]
            d, s = ops[0].index, ops[1].index
            e(f"f{j} = {dec}(xl[{s}] & 0xFFFF)",
              f"if f{j} != f{j} or f{j} >= 9.223372036854776e18 or f{j} < -9.223372036854776e18:",
              f"    gpr[{d}] = _INT_INDEFINITE",
              "else:",
              f"    gpr[{d}] = int(f{j}) & _M64")

        elif op is Op.CVTSD2BF or op is Op.CVTSD2HF:
            enc = _FPN_CODEC_OPS[op][1]
            d, s = ops[0].index, ops[1].index
            e(f"xl[{d}] = (xl[{d}] & _HI32) | {enc}(bits_to_double(xl[{s}]))")

        elif op is Op.CVTBF2SD or op is Op.CVTHF2SD:
            dec = _FPN_CODEC_OPS[op][0]
            d, s = ops[0].index, ops[1].index
            e(f"xl[{d}] = double_to_bits({dec}(xl[{s}] & 0xFFFF))")

        elif op is Op.MOVQXR:
            e(f"xl[{ops[0].index}] = gpr[{ops[1].index}]")
        elif op is Op.MOVQRX:
            e(f"gpr[{ops[0].index}] = xl[{ops[1].index}]")

        elif op in _PD_BIN:
            fn = _PD_BIN[op]
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}",
              f"xl[{d}] = {fn}(xl[{d}], lo{j})",
              f"xh[{d}] = {fn}(xh[{d}], hi{j})")

        elif op is Op.SQRTPD:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}",
              f"xl[{d}] = double_sqrt(lo{j})",
              f"xh[{d}] = double_sqrt(hi{j})")

        elif op is Op.MOVSS:
            dst, src = ops
            if isinstance(dst, Xmm):
                d = dst.index
                if isinstance(src, Xmm):
                    e(f"xl[{d}] = (xl[{d}] & _HI32) | (xl[{src.index}] & _M32)")
                elif isinstance(src, Mem):
                    self.read64(src, f"v{j}")
                    e(f"xl[{d}] = v{j} & _M32",
                      f"xh[{d}] = 0")
                else:
                    raise Unfusable
            elif isinstance(dst, Mem) and isinstance(src, Xmm):
                a = f"w{j}"
                e(f"{a} = {_addr_expr(dst)}")
                self.guard(
                    f"not 0 <= {a} < top",
                    self.ft(f'f"memory write out of bounds: {{{a}}}"'),
                )
                e(f"mem[{a}] = (mem[{a}] & _HI32) | (xl[{src.index}] & _M32)")
            else:
                raise Unfusable

        elif op in _FPS_BIN:
            fn = _FPS_BIN[op]
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            e(f"v{j}d = xl[{d}]",
              f"xl[{d}] = (v{j}d & _HI32) | {fn}(v{j}d & _M32, ({sv}) & _M32)")

        elif op in _FPS_UN:
            fn = _FPS_UN[op]
            d = ops[0].index
            sv = self.xsrc64(ops[1])
            e(f"xl[{d}] = (xl[{d}] & _HI32) | {fn}(({sv}) & _M32)")

        elif op is Op.CVTSI2SS:
            d, s = ops[0].index, ops[1].index
            e(f"xl[{d}] = (xl[{d}] & _HI32) | single_to_bits(float(_s64(gpr[{s}])))")

        elif op in _PS_BIN:
            fn = _PS_BIN[op]
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}",
              f"pa{j} = xl[{d}]",
              f"xl[{d}] = ({fn}((pa{j} >> 32) & _M32, (lo{j} >> 32) & _M32) << 32) | {fn}(pa{j} & _M32, lo{j} & _M32)",
              f"pb{j} = xh[{d}]",
              f"xh[{d}] = ({fn}((pb{j} >> 32) & _M32, (hi{j} >> 32) & _M32) << 32) | {fn}(pb{j} & _M32, hi{j} & _M32)")

        elif op is Op.SQRTPS:
            d = ops[0].index
            lo, hi = self.xsrc128(ops[1])
            e(f"lo{j} = {lo}",
              f"hi{j} = {hi}",
              f"xl[{d}] = (single_sqrt((lo{j} >> 32) & _M32) << 32) | single_sqrt(lo{j} & _M32)",
              f"xh[{d}] = (single_sqrt((hi{j} >> 32) & _M32) << 32) | single_sqrt(hi{j} & _M32)")

        elif op is Op.PEXTR or op is Op.PINSR:
            lane = ops[2].value
            if lane not in (0, 1):
                raise Unfusable
            arr = "xl" if lane == 0 else "xh"
            if op is Op.PEXTR:
                e(f"gpr[{ops[0].index}] = {arr}[{ops[1].index}]")
            else:
                e(f"{arr}[{ops[0].index}] = gpr[{ops[1].index}]")

        elif op is Op.MPIRANK:
            e(f"gpr[{ops[0].index}] = rank")
        elif op is Op.MPISIZE:
            e(f"gpr[{ops[0].index}] = size")

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
            e(f"a{j} = {_addr_expr(ops[0])}",
              f"n{j} = gpr[{ops[2].index}]")
            self.guard(
                f"not (0 <= a{j} and a{j} + n{j} <= top)",
                self.ft(f'f"vector collective out of bounds: {{a{j}}}+{{n{j}}}"'),
            )

        else:
            raise Unfusable

        self.j += 1
        self.cycles += cost

    # -- terminators ------------------------------------------------------

    def terminator(self, instr, cost: int, branch_extra: int) -> int:
        """Emit the run's closing control transfer; returns the number
        of ``targets`` slots the factory call must fill.

        The fall-through total (all straight-line costs plus the
        terminator's own cost) is folded into each exit path as one
        constant; taken branches add the cost model's extra.
        """
        op = instr.opcode
        j = self.j
        e = self.emit
        total = self.cycles + cost

        if op is Op.JMP:
            e(f"cyc[0] += {total + branch_extra}",
              "return targets[0]")
            self.j += 1
            return 1

        if op in _COND_EXPR:
            e(f"if {_COND_EXPR[op]}:",
              f"    cyc[0] += {total + branch_extra}",
              "    return targets[0]",
              f"cyc[0] += {total}",
              f"return idx + {_K}")
            self.j += 1
            return 1

        if op is Op.CALL:
            e("spc = gpr[15] - 1")
            self.guard("spc < limit", self.ft('"stack overflow on call"'))
            e("mem[spc] = targets[1]",
              "gpr[15] = spc",
              f"cyc[0] += {total}",
              "return targets[0]")
            self.j += 1
            return 2

        if op is Op.RET:
            e("spr = gpr[15]")
            self.guard("spr >= top", self.ft('"stack underflow on ret"'))
            e("ra = mem[spr]",
              "gpr[15] = spr + 1",
              "tr = a2i.get(ra)")
            self.guard(
                "tr is None",
                self.ft('f"return to non-instruction address {ra:#x}"'),
            )
            e(f"cyc[0] += {total}",
              "return tr")
            self.j += 1
            return 0

        raise Unfusable


# -- factory assembly ------------------------------------------------------

#: a run must replace at least this many dispatches to be worth a frame.
MIN_RUN = 2

_FACTORY_SIG = (
    "def _factory(gpr, mem, xl, xh, flags, outputs, rng, cyc, sl, "
    "limit, top, a2i, tail, targets, rank, size, halt):"
)

#: cost model -> {(run template bytes, terminator opcode, size==1):
#: exec'd factory}.  Factories are position- and VM-independent, so the
#: cache is process-global: every Machine, worker and rebind in the
#: process shares compiled run bodies.  The model (a frozen dataclass
#: whose hash walks every field) is paid once per load via the outer
#: dict instead of once per run.
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


def _assemble(em: _RunEmitter, open_ended: bool) -> str:
    """Render the emitter's body into factory source.

    *open_ended* runs (no terminator, no HALT) fall through: they charge
    the constant total and advance past the run.
    """
    k = em.j
    lines = [_FACTORY_SIG, "    def _fused(idx):"]
    lines.append(f"        if sl[0] < {k}:")
    lines.append("            return tail(idx)")
    lines.append(f"        sl[0] -= {k}")
    lines.extend("        " + ln for ln in em.lines)
    if open_ended:
        if em.cycles:
            lines.append(f"        cyc[0] += {em.cycles}")
        lines.append(f"        return idx + {k}")
    lines.append("    return _fused")
    return "\n".join(lines).replace(_K, str(k)) + "\n"


def _compile_run(instrs, costs, start, k_members, term_i, size, branch_extra):
    """Exec-compile the factory for one run; None if emission refuses.

    Covers the rare operand shapes the cheap fusability tables admit but
    the emitter has no template for: the None lands in ``_FACTORIES`` as
    a sentinel, so the shape is probed exactly once per unique run key.
    """
    em = _RunEmitter(size)
    try:
        for i in range(start, start + k_members):
            em.instruction(instrs[i], costs[i])
        if term_i >= 0:
            em.terminator(instrs[term_i], costs[term_i], branch_extra)
        src = _assemble(em, term_i < 0 and not em.halted)
    except Unfusable:
        return None
    ns: dict = {}
    exec(compile(src, "<fused-run>", "exec"), _EXEC_GLOBALS, ns)
    factory = ns["_factory"]
    factory.__fused_source__ = src
    _COMPILED[0] += 1
    return factory


_TERMINATORS = frozenset(_COND_EXPR) | {Op.JMP, Op.CALL, Op.RET}

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
            Op.MOVSD, Op.MOVAPD, Op.MOVSS, Op.UCOMISD, Op.UCOMISS,
            Op.CVTSI2SD, Op.CVTSI2SS, Op.CVTTSD2SI, Op.CVTTSS2SI,
            Op.CVTSD2SS, Op.CVTSS2SD, Op.MOVQXR, Op.MOVQRX,
            Op.SQRTPD, Op.SQRTPS, Op.PEXTR, Op.PINSR,
            Op.MPIRANK, Op.MPISIZE,
        )
    )
    | frozenset(_INT_BIN_EXPR)
    | frozenset(_FPD_BIN)
    | frozenset(_FPD_UN)
    | frozenset(_FPS_BIN)
    | frozenset(_FPS_UN)
    | frozenset(_FPN_BIN)
    | frozenset(_FPN_UN)
    | frozenset(_FPN_CODEC_OPS)
    | frozenset(_PD_BIN)
    | frozenset(_PS_BIN)
    | _MPI_MEMBERS
)


def _vm_state(vm) -> tuple:
    return (
        vm.gpr, vm.mem, vm.xmm_lo, vm.xmm_hi, vm.flags, vm.outputs,
        vm.rng, vm._cyc, vm._sl, vm.stack_limit, len(vm.mem),
        vm._addr2idx, vm._fused_tail,
    )


def _scan_span(vm, lo: int, hi: int, leaders) -> list:
    """Detect the fusable runs of instruction span ``[lo, hi)``.

    Returns the span's *partition*: ``(rel_start, k_total, term_rel,
    term_opcode)`` tuples plus the run's compiled factory, all relative
    to *lo* and free of any per-load data — branch targets stay out (the
    terminator's operand is resolved at instantiation time), so a
    partition computed once for a segment template is valid for every
    later placement of the same template.

    Run keys into the factory cache are the members' *raw text bytes*
    plus the terminator's opcode.  Member encodings carry no positional
    data — branches and calls never join the member stretch — so
    identical bytes at any address decode to identical instructions, and
    factories are shared across layouts, configurations, VMs and rebinds
    process-wide.  A bytes slice hashes at C speed, which keeps the
    per-load key cost negligible when a partition is not cached.
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
    factories = _FACTORIES.setdefault(model, {})
    part: list = []
    i = lo
    while i < hi:
        start = i
        halted = False
        while i < hi:
            if i in leaders and i > start:
                break
            op = instrs[i].opcode
            if op not in members or (op in mpi and not size_one):
                break
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
            key = (
                text[addrs[start] : addrs[m_end] if m_end < n else len(text)],
                term_op,
                size_one,
            )
            factory = factories.get(key, _MISS)
            if factory is _MISS:
                vm.fuse_misses += 1
                factory = _compile_run(
                    instrs, costs, start, k_members, term_i, size,
                    branch_extra,
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


def _instantiate(vm, fcode, covered, lo: int, part, state, halt, runs) -> None:
    """Bind one span's partition to this load: resolve the terminator
    targets from the patched text and call each run's factory.  *runs*
    collects each run's ``(head, length)``; None when the VM does not
    count."""
    instrs = vm._instrs
    addrs = vm._instr_addrs
    n = len(instrs)
    rank = vm.rank
    size = vm.size
    for rel, k_total, term_rel, term_op, factory in part:
        start = lo + rel
        targets: tuple = ()
        if term_rel >= 0:
            ti = lo + term_rel
            if term_op is Op.CALL:
                targets = (
                    vm._branch_index(instrs[ti].operands[0], addrs[ti]),
                    addrs[ti + 1] if ti + 1 < n else -1,
                )
            elif term_op is not Op.RET:
                targets = (
                    vm._branch_index(instrs[ti].operands[0], addrs[ti]),
                )
        fcode[start] = factory(*state, targets, rank, size, halt)
        if covered is not None:
            for c in range(start, start + k_total):
                covered[c] = 1
        if runs is not None:
            runs.append((start, k_total))


def build_fcode(vm, bounds, halt, runs) -> tuple[list, bytearray]:
    """Build the fused dispatch array for *vm*'s freshly loaded program.

    ``bounds`` are the instruction indices that start a new segment (runs
    never cross them: instrumented block boundaries are the natural
    fusion seams).  Returns ``(fcode, covered)``: ``fcode`` is the list
    the VM's fused loop indexes — a fused closure at every run head,
    None everywhere else (interior entries single-step the reference
    closures) — and ``covered[i]`` flags every instruction inside a
    fused run, so the loader may defer compiling its reference closure.
    """
    instrs = vm._instrs
    n = len(instrs)
    fcode: list = [None] * n
    covered = bytearray(n)
    state = _vm_state(vm)
    # Basic-block leaders: every branch/call target starts its own run,
    # so dynamic control transfers always land on a fused head instead
    # of single-stepping through a run interior.
    a2i = vm._addr2idx
    terms = _TERMINATORS
    leaders = set()
    for ins in instrs:
        op = ins.opcode
        if op in terms and op is not Op.RET:
            t = a2i.get(ins.operands[0].value)
            if t is not None:
                leaders.add(t)
    edges = list(bounds) + [n]
    for b in range(len(edges) - 1):
        lo = edges[b]
        part = _scan_span(vm, lo, edges[b + 1], leaders)
        if part:
            _instantiate(vm, fcode, covered, lo, part, state, halt, runs)
    return fcode, covered


def build_fcode_cached(vm, tiles, halt, runs) -> list:
    """Segment-path variant of :func:`build_fcode` with memoized runs.

    ``tiles`` is the load's ``(record, lo)`` tiling: each segment's
    compiled-segment record (see ``repro.vm.machine``) and the index of
    its first instruction.  A segment template's run partition depends
    only on its own instruction sequence: member operands are final in
    the template bytes, terminator *targets* stay outside the partition,
    and interior run leaders can only come from the segment's own
    branches (original branches target block starts — segment heads —
    and snippet branches are intra-block).  So the scan runs once per
    template, its result kept in ``record.partition``, and every later
    load merely re-resolves targets and re-binds factories.
    """
    instrs = vm._instrs
    a2i = vm._addr2idx
    fcode: list = [None] * len(instrs)
    state = _vm_state(vm)
    for record, lo in tiles:
        part = record.partition
        if part is None:
            hi = lo + len(record.instrs)
            leaders = set()
            for j in record.ctl:
                t = a2i.get(instrs[lo + j].operands[0].value)
                if t is not None and lo < t < hi:
                    leaders.add(t)
            part = record.partition = _scan_span(vm, lo, hi, leaders)
        else:
            vm.fuse_hits += len(part)
        if part:
            _instantiate(vm, fcode, None, lo, part, state, halt, runs)
    return fcode
