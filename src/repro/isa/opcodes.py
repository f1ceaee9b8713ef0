"""Opcode definitions and the metadata table driving every analysis pass.

Each opcode carries an :class:`OpInfo` record describing

* its textual mnemonic and the operand signatures it accepts;
* which operands it reads / writes;
* which operands are consumed / produced as **binary64 values** (``fp_in``
  / ``fp_out``) — these are the slots the instrumentation snippets must
  flag-check, downcast, or upcast;
* its single-precision equivalent opcode, if any.  An instruction whose
  opcode has a ``single_equiv`` is a *replacement candidate* in the sense
  of the paper: the configuration may map it to ``single``;
* whether it is packed (two 64-bit lanes);
* control-flow properties (branch / call / return / terminator);
* its base cycle cost and the byte width of a memory access, for the
  machine model that stands in for the paper's Xeon timings.

The FP semantics deliberately mirror x86 SSE: scalar single-precision
operations write the low 32 bits of the destination lane and *preserve*
the upper bits, which is precisely what lets the ``0x7FF4DEAD`` flag
survive in the high word of a replaced slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum, auto

from repro.fpbits import F32, FORMATS, FpFormat


class Op(IntEnum):
    # --- control / system -------------------------------------------------
    NOP = 1
    HALT = auto()
    JMP = auto()
    JE = auto()
    JNE = auto()
    JL = auto()
    JLE = auto()
    JG = auto()
    JGE = auto()
    JP = auto()
    JNP = auto()
    CALL = auto()
    RET = auto()
    OUTI = auto()
    OUTSD = auto()
    OUTSS = auto()
    RAND = auto()
    # --- integer -----------------------------------------------------------
    MOV = auto()
    LEA = auto()
    ADD = auto()
    SUB = auto()
    IMUL = auto()
    IDIV = auto()
    IREM = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    NOT = auto()
    NEG = auto()
    SHL = auto()
    SHR = auto()
    SAR = auto()
    CMP = auto()
    TEST = auto()
    PUSH = auto()
    POP = auto()
    PUSHX = auto()
    POPX = auto()
    INC = auto()
    DEC = auto()
    # --- scalar double -----------------------------------------------------
    MOVSD = auto()
    MOVAPD = auto()
    ADDSD = auto()
    SUBSD = auto()
    MULSD = auto()
    DIVSD = auto()
    SQRTSD = auto()
    MINSD = auto()
    MAXSD = auto()
    ABSSD = auto()
    NEGSD = auto()
    UCOMISD = auto()
    CVTSI2SD = auto()
    CVTTSD2SI = auto()
    CVTSD2SS = auto()
    CVTSS2SD = auto()
    SINSD = auto()
    COSSD = auto()
    EXPSD = auto()
    LOGSD = auto()
    MOVQXR = auto()
    MOVQRX = auto()
    # --- packed double -----------------------------------------------------
    ADDPD = auto()
    SUBPD = auto()
    MULPD = auto()
    DIVPD = auto()
    SQRTPD = auto()
    # --- scalar single -----------------------------------------------------
    MOVSS = auto()
    ADDSS = auto()
    SUBSS = auto()
    MULSS = auto()
    DIVSS = auto()
    SQRTSS = auto()
    MINSS = auto()
    MAXSS = auto()
    ABSSS = auto()
    NEGSS = auto()
    UCOMISS = auto()
    CVTSI2SS = auto()
    CVTTSS2SI = auto()
    SINSS = auto()
    COSSS = auto()
    EXPSS = auto()
    LOGSS = auto()
    # --- packed single -----------------------------------------------------
    ADDPS = auto()
    SUBPS = auto()
    MULPS = auto()
    DIVPS = auto()
    SQRTPS = auto()
    # --- lane access ---------------------------------------------------------
    PEXTR = auto()
    PINSR = auto()
    # --- MPI -----------------------------------------------------------------
    MPIRANK = auto()
    MPISIZE = auto()
    ALLRED = auto()
    ALLREDSS = auto()
    ALLREDV = auto()
    ALLREDVSS = auto()
    BARRIER = auto()
    BCASTSD = auto()
    # --- scalar bfloat16 (lattice widths append below; opcode numbers of
    # --- everything above are frozen — existing encodings must not move)
    ADDBF = auto()
    SUBBF = auto()
    MULBF = auto()
    DIVBF = auto()
    SQRTBF = auto()
    MINBF = auto()
    MAXBF = auto()
    ABSBF = auto()
    NEGBF = auto()
    UCOMIBF = auto()
    CVTSI2BF = auto()
    CVTTBF2SI = auto()
    SINBF = auto()
    COSBF = auto()
    EXPBF = auto()
    LOGBF = auto()
    CVTSD2BF = auto()
    CVTBF2SD = auto()
    # --- scalar binary16 ---------------------------------------------------
    ADDHF = auto()
    SUBHF = auto()
    MULHF = auto()
    DIVHF = auto()
    SQRTHF = auto()
    MINHF = auto()
    MAXHF = auto()
    ABSHF = auto()
    NEGHF = auto()
    UCOMIHF = auto()
    CVTSI2HF = auto()
    CVTTHF2SI = auto()
    SINHF = auto()
    COSHF = auto()
    EXPHF = auto()
    LOGHF = auto()
    CVTSD2HF = auto()
    CVTHF2SD = auto()


#: ALLRED / ALLREDSS reduction selectors (immediate operand values).
RED_SUM = 0
RED_MIN = 1
RED_MAX = 2


@dataclass(frozen=True, slots=True)
class OpInfo:
    """Static description of one opcode (see module docstring)."""

    mnemonic: str
    #: Allowed signatures: each alternative is a tuple of per-operand
    #: letter-sets, e.g. ``(("X", "XM"),)`` for ``op xmm, xmm|mem``.
    sigs: tuple[tuple[str, ...], ...]
    reads: tuple[int, ...] = ()
    writes: tuple[int, ...] = ()
    fp_in: tuple[int, ...] = ()
    fp_out: tuple[int, ...] = ()
    single_equiv: "Op | None" = None
    packed: bool = False
    cost: int = 1
    mem_width: int = 8
    is_branch: bool = False
    is_cond_branch: bool = False
    is_call: bool = False
    is_ret: bool = False
    is_terminator: bool = False
    writes_flags: bool = False
    reads_flags: bool = False
    comm: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def is_candidate(self) -> bool:
        """True if instructions with this opcode may be replaced by single."""
        return self.single_equiv is not None


def _ctl(mn, sigs=(), **kw) -> OpInfo:
    return OpInfo(mn, sigs, **kw)


_RI = ("R", "RI")
_XXM = ("X", "XM")

OPCODE_INFO: dict[Op, OpInfo] = {
    # control / system
    Op.NOP: _ctl("nop", ((),)),
    Op.HALT: _ctl("halt", ((),), is_terminator=True),
    Op.JMP: _ctl("jmp", (("I",),), is_branch=True, is_terminator=True),
    Op.JE: _ctl("je", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.JNE: _ctl("jne", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.JL: _ctl("jl", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.JLE: _ctl("jle", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.JG: _ctl("jg", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.JGE: _ctl("jge", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.JP: _ctl("jp", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.JNP: _ctl("jnp", (("I",),), is_branch=True, is_cond_branch=True, reads_flags=True),
    Op.CALL: _ctl("call", (("I",),), is_call=True, cost=2),
    Op.RET: _ctl("ret", ((),), is_ret=True, is_terminator=True, cost=2),
    Op.OUTI: _ctl("outi", (("R",),), reads=(0,)),
    Op.OUTSD: _ctl("outsd", (("X",),), reads=(0,)),
    Op.OUTSS: _ctl("outss", (("X",),), reads=(0,)),
    Op.RAND: _ctl("rand", (("R",),), writes=(0,), cost=4),
    # integer
    Op.MOV: _ctl("mov", (("R", "RIM"), ("M", "RI"))),
    Op.LEA: _ctl("lea", (("R", "M"),), writes=(0,)),
    Op.ADD: _ctl("add", (_RI,), reads=(0, 1), writes=(0,)),
    Op.SUB: _ctl("sub", (_RI,), reads=(0, 1), writes=(0,)),
    Op.IMUL: _ctl("imul", (_RI,), reads=(0, 1), writes=(0,), cost=3),
    Op.IDIV: _ctl("idiv", (_RI,), reads=(0, 1), writes=(0,), cost=20),
    Op.IREM: _ctl("irem", (_RI,), reads=(0, 1), writes=(0,), cost=20),
    Op.AND: _ctl("and", (_RI,), reads=(0, 1), writes=(0,)),
    Op.OR: _ctl("or", (_RI,), reads=(0, 1), writes=(0,)),
    Op.XOR: _ctl("xor", (_RI,), reads=(0, 1), writes=(0,)),
    Op.NOT: _ctl("not", (("R",),), reads=(0,), writes=(0,)),
    Op.NEG: _ctl("neg", (("R",),), reads=(0,), writes=(0,)),
    Op.SHL: _ctl("shl", (_RI,), reads=(0, 1), writes=(0,)),
    Op.SHR: _ctl("shr", (_RI,), reads=(0, 1), writes=(0,)),
    Op.SAR: _ctl("sar", (_RI,), reads=(0, 1), writes=(0,)),
    Op.CMP: _ctl("cmp", (_RI,), reads=(0, 1), writes_flags=True),
    Op.TEST: _ctl("test", (_RI,), reads=(0, 1), writes_flags=True),
    Op.PUSH: _ctl("push", (("RI",),), reads=(0,), cost=2),
    Op.POP: _ctl("pop", (("R",),), writes=(0,), cost=2),
    Op.PUSHX: _ctl("pushx", (("X",),), reads=(0,), cost=4),
    Op.POPX: _ctl("popx", (("X",),), writes=(0,), cost=4),
    Op.INC: _ctl("inc", (("R",),), reads=(0,), writes=(0,)),
    Op.DEC: _ctl("dec", (("R",),), reads=(0,), writes=(0,)),
    # scalar double
    Op.MOVSD: _ctl("movsd", (("X", "XM"), ("M", "X")), reads=(1,), writes=(0,)),
    Op.MOVAPD: _ctl(
        "movapd", (("X", "XM"), ("M", "X")), reads=(1,), writes=(0,), mem_width=16
    ),
    Op.ADDSD: _ctl(
        "addsd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.ADDSS, cost=4,
    ),
    Op.SUBSD: _ctl(
        "subsd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.SUBSS, cost=4,
    ),
    Op.MULSD: _ctl(
        "mulsd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.MULSS, cost=4,
    ),
    Op.DIVSD: _ctl(
        "divsd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.DIVSS, cost=20,
    ),
    Op.SQRTSD: _ctl(
        "sqrtsd", (_XXM,), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.SQRTSS, cost=20,
    ),
    Op.MINSD: _ctl(
        "minsd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.MINSS, cost=4,
    ),
    Op.MAXSD: _ctl(
        "maxsd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.MAXSS, cost=4,
    ),
    Op.ABSSD: _ctl(
        "abssd", (("X", "X"),), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.ABSSS, cost=1,
    ),
    Op.NEGSD: _ctl(
        "negsd", (("X", "X"),), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.NEGSS, cost=1,
    ),
    Op.UCOMISD: _ctl(
        "ucomisd", (_XXM,), reads=(0, 1), fp_in=(0, 1), writes_flags=True,
        single_equiv=Op.UCOMISS, cost=2,
    ),
    Op.CVTSI2SD: _ctl(
        "cvtsi2sd", (("X", "R"),), reads=(1,), writes=(0,), fp_out=(0,),
        single_equiv=Op.CVTSI2SS, cost=4,
    ),
    Op.CVTTSD2SI: _ctl(
        "cvttsd2si", (("R", "X"),), reads=(1,), writes=(0,), fp_in=(1,),
        single_equiv=Op.CVTTSS2SI, cost=4,
    ),
    Op.CVTSD2SS: _ctl("cvtsd2ss", (("X", "X"),), reads=(1,), writes=(0,), cost=2),
    Op.CVTSS2SD: _ctl("cvtss2sd", (("X", "X"),), reads=(1,), writes=(0,), cost=2),
    Op.SINSD: _ctl(
        "sinsd", (("X", "X"),), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.SINSS, cost=40,
    ),
    Op.COSSD: _ctl(
        "cossd", (("X", "X"),), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.COSSS, cost=40,
    ),
    Op.EXPSD: _ctl(
        "expsd", (("X", "X"),), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.EXPSS, cost=40,
    ),
    Op.LOGSD: _ctl(
        "logsd", (("X", "X"),), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.LOGSS, cost=40,
    ),
    Op.MOVQXR: _ctl("movqxr", (("X", "R"),), reads=(1,), writes=(0,)),
    Op.MOVQRX: _ctl("movqrx", (("R", "X"),), reads=(1,), writes=(0,)),
    # packed double
    Op.ADDPD: _ctl(
        "addpd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.ADDPS, packed=True, cost=6, mem_width=16,
    ),
    Op.SUBPD: _ctl(
        "subpd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.SUBPS, packed=True, cost=6, mem_width=16,
    ),
    Op.MULPD: _ctl(
        "mulpd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.MULPS, packed=True, cost=6, mem_width=16,
    ),
    Op.DIVPD: _ctl(
        "divpd", (_XXM,), reads=(0, 1), writes=(0,), fp_in=(0, 1), fp_out=(0,),
        single_equiv=Op.DIVPS, packed=True, cost=36, mem_width=16,
    ),
    Op.SQRTPD: _ctl(
        "sqrtpd", (_XXM,), reads=(1,), writes=(0,), fp_in=(1,), fp_out=(0,),
        single_equiv=Op.SQRTPS, packed=True, cost=36, mem_width=16,
    ),
    # scalar single
    Op.MOVSS: _ctl(
        "movss", (("X", "XM"), ("M", "X")), reads=(1,), writes=(0,), mem_width=4
    ),
    Op.ADDSS: _ctl("addss", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=4),
    Op.SUBSS: _ctl("subss", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=4),
    Op.MULSS: _ctl("mulss", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=4),
    Op.DIVSS: _ctl("divss", (_XXM,), reads=(0, 1), writes=(0,), cost=10, mem_width=4),
    Op.SQRTSS: _ctl("sqrtss", (_XXM,), reads=(1,), writes=(0,), cost=10, mem_width=4),
    Op.MINSS: _ctl("minss", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=4),
    Op.MAXSS: _ctl("maxss", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=4),
    Op.ABSSS: _ctl("absss", (("X", "X"),), reads=(1,), writes=(0,), cost=1),
    Op.NEGSS: _ctl("negss", (("X", "X"),), reads=(1,), writes=(0,), cost=1),
    Op.UCOMISS: _ctl(
        "ucomiss", (_XXM,), reads=(0, 1), writes_flags=True, cost=2, mem_width=4
    ),
    Op.CVTSI2SS: _ctl("cvtsi2ss", (("X", "R"),), reads=(1,), writes=(0,), cost=2),
    Op.CVTTSS2SI: _ctl("cvttss2si", (("R", "X"),), reads=(1,), writes=(0,), cost=2),
    Op.SINSS: _ctl("sinss", (("X", "X"),), reads=(1,), writes=(0,), cost=20),
    Op.COSSS: _ctl("cosss", (("X", "X"),), reads=(1,), writes=(0,), cost=20),
    Op.EXPSS: _ctl("expss", (("X", "X"),), reads=(1,), writes=(0,), cost=20),
    Op.LOGSS: _ctl("logss", (("X", "X"),), reads=(1,), writes=(0,), cost=20),
    # packed single (each 64-bit lane = two binary32 elements, like x86)
    Op.ADDPS: _ctl("addps", (_XXM,), reads=(0, 1), writes=(0,), packed=True, cost=3, mem_width=16),
    Op.SUBPS: _ctl("subps", (_XXM,), reads=(0, 1), writes=(0,), packed=True, cost=3, mem_width=16),
    Op.MULPS: _ctl("mulps", (_XXM,), reads=(0, 1), writes=(0,), packed=True, cost=3, mem_width=16),
    Op.DIVPS: _ctl("divps", (_XXM,), reads=(0, 1), writes=(0,), packed=True, cost=20, mem_width=16),
    Op.SQRTPS: _ctl("sqrtps", (_XXM,), reads=(1,), writes=(0,), packed=True, cost=20, mem_width=16),
    # lane access
    Op.PEXTR: _ctl("pextr", (("R", "X", "I"),), reads=(1, 2), writes=(0,)),
    Op.PINSR: _ctl("pinsr", (("X", "R", "I"),), reads=(0, 1, 2), writes=(0,)),
    # MPI
    Op.MPIRANK: _ctl("mpirank", (("R",),), writes=(0,)),
    Op.MPISIZE: _ctl("mpisize", (("R",),), writes=(0,)),
    Op.ALLRED: _ctl("allred", (("X", "I"),), reads=(0, 1), writes=(0,), comm=True, cost=8),
    Op.ALLREDSS: _ctl("allredss", (("X", "I"),), reads=(0, 1), writes=(0,), comm=True, cost=8),
    Op.ALLREDV: _ctl("allredv", (("M", "I", "R"),), reads=(0, 1, 2), writes=(0,), comm=True, cost=16),
    Op.ALLREDVSS: _ctl("allredvss", (("M", "I", "R"),), reads=(0, 1, 2), writes=(0,), comm=True, cost=16),
    Op.BARRIER: _ctl("barrier", ((),), comm=True, cost=4),
    Op.BCASTSD: _ctl("bcastsd", (("X", "I"),), reads=(0, 1), writes=(0,), comm=True, cost=8),
    # scalar bfloat16 (lattice rung below single; same slot discipline as
    # the SS family — write the low bits, preserve the rest of the lane)
    Op.ADDBF: _ctl("addbf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.SUBBF: _ctl("subbf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.MULBF: _ctl("mulbf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.DIVBF: _ctl("divbf", (_XXM,), reads=(0, 1), writes=(0,), cost=8, mem_width=2),
    Op.SQRTBF: _ctl("sqrtbf", (_XXM,), reads=(1,), writes=(0,), cost=8, mem_width=2),
    Op.MINBF: _ctl("minbf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.MAXBF: _ctl("maxbf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.ABSBF: _ctl("absbf", (("X", "X"),), reads=(1,), writes=(0,), cost=1),
    Op.NEGBF: _ctl("negbf", (("X", "X"),), reads=(1,), writes=(0,), cost=1),
    Op.UCOMIBF: _ctl(
        "ucomibf", (_XXM,), reads=(0, 1), writes_flags=True, cost=2, mem_width=2
    ),
    Op.CVTSI2BF: _ctl("cvtsi2bf", (("X", "R"),), reads=(1,), writes=(0,), cost=2),
    Op.CVTTBF2SI: _ctl("cvttbf2si", (("R", "X"),), reads=(1,), writes=(0,), cost=2),
    Op.SINBF: _ctl("sinbf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.COSBF: _ctl("cosbf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.EXPBF: _ctl("expbf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.LOGBF: _ctl("logbf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.CVTSD2BF: _ctl("cvtsd2bf", (("X", "X"),), reads=(1,), writes=(0,), cost=2),
    Op.CVTBF2SD: _ctl("cvtbf2sd", (("X", "X"),), reads=(1,), writes=(0,), cost=2),
    # scalar binary16
    Op.ADDHF: _ctl("addhf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.SUBHF: _ctl("subhf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.MULHF: _ctl("mulhf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.DIVHF: _ctl("divhf", (_XXM,), reads=(0, 1), writes=(0,), cost=8, mem_width=2),
    Op.SQRTHF: _ctl("sqrthf", (_XXM,), reads=(1,), writes=(0,), cost=8, mem_width=2),
    Op.MINHF: _ctl("minhf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.MAXHF: _ctl("maxhf", (_XXM,), reads=(0, 1), writes=(0,), cost=2, mem_width=2),
    Op.ABSHF: _ctl("abshf", (("X", "X"),), reads=(1,), writes=(0,), cost=1),
    Op.NEGHF: _ctl("neghf", (("X", "X"),), reads=(1,), writes=(0,), cost=1),
    Op.UCOMIHF: _ctl(
        "ucomihf", (_XXM,), reads=(0, 1), writes_flags=True, cost=2, mem_width=2
    ),
    Op.CVTSI2HF: _ctl("cvtsi2hf", (("X", "R"),), reads=(1,), writes=(0,), cost=2),
    Op.CVTTHF2SI: _ctl("cvtthf2si", (("R", "X"),), reads=(1,), writes=(0,), cost=2),
    Op.SINHF: _ctl("sinhf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.COSHF: _ctl("coshf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.EXPHF: _ctl("exphf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.LOGHF: _ctl("loghf", (("X", "X"),), reads=(1,), writes=(0,), cost=16),
    Op.CVTSD2HF: _ctl("cvtsd2hf", (("X", "X"),), reads=(1,), writes=(0,), cost=2),
    Op.CVTHF2SD: _ctl("cvthf2sd", (("X", "X"),), reads=(1,), writes=(0,), cost=2),
}

MNEMONIC_TO_OP = {info.mnemonic: op for op, info in OPCODE_INFO.items()}

#: Opcodes whose instructions are replacement candidates.
CANDIDATE_OPS = frozenset(op for op, info in OPCODE_INFO.items() if info.is_candidate)


def _family(fmt: FpFormat) -> tuple[dict, Op, Op]:
    """*fmt*'s twin of each candidate and its two conversions, named by
    its mnemonic suffix: ``addsd`` -> ``add{suffix}``, ``cvtsd2{suffix}``
    and ``cvt{suffix}2sd``.  Packed candidates have twins at f32 alone
    (``addpd`` -> ``addps``): packed sites floor at f32."""
    sfx = fmt.suffix
    twins = {}
    for op, inf in OPCODE_INFO.items():
        if not inf.is_candidate:
            continue
        if not inf.packed:
            twins[op] = MNEMONIC_TO_OP[inf.mnemonic.replace("sd", sfx)]
        elif fmt is F32:
            twins[op] = MNEMONIC_TO_OP[inf.mnemonic.replace("pd", "ps")]
    return twins, MNEMONIC_TO_OP[f"cvtsd2{sfx}"], MNEMONIC_TO_OP[f"cvt{sfx}2sd"]


#: Lattice width name -> (double op -> its twin at that width, downcast
#: op, upcast op), for every width below f64.
NARROW_FAMILIES = {
    fmt.name: _family(fmt) for fmt in FORMATS.values() if fmt.sentinel is not None
}


def info(op: Op) -> OpInfo:
    """Metadata record for *op*."""
    return OPCODE_INFO[op]


def _check_table() -> None:
    missing = [op for op in Op if op not in OPCODE_INFO]
    if missing:
        raise AssertionError(f"opcodes missing from OPCODE_INFO: {missing}")


_check_table()
