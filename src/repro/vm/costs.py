"""The machine (cycle) model.

This is the deterministic stand-in for the paper's Xeon wall-clock
measurements.  The calibration principles:

* **Integer/branch work is cheap** (1 cycle): real superscalar hardware
  overlaps address arithmetic and loop control with FP and memory work,
  and an interpreter that charged them at par would drown the effects the
  paper measures.
* **Double costs twice single**, for both arithmetic and memory traffic —
  the 2-2.5x advantage the paper cites for single-precision streaming.
* **Memory traffic is the dominant charge** (12 cycles per 8-byte access,
  6 per 4-byte), reflecting bandwidth-bound scientific kernels.
* **Stack traffic is memory traffic**: the push/pop save/restore in every
  instrumentation snippet is what makes the base-case overhead land in
  the paper's "under 20X, mostly under 10X" band.

All experiment ratios (Figures 8, 9, 11; the AMG speedup) are ratios of
these cycle counts.  ``CostModel`` is a parameter of the VM, so ablation
benchmarks can vary it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import Op, OPCODE_INFO


@dataclass(frozen=True)
class CostModel:
    """Per-category cycle charges (see module docstring)."""

    int_alu: int = 1
    branch: int = 1
    branch_taken_extra: int = 1
    movq: int = 2
    push_pop: int = 16       # one stack cell moved
    pushx_popx: int = 32     # two stack cells moved
    call_ret: int = 14
    fp64: int = 16
    fp32: int = 8
    fp64_div: int = 60
    fp32_div: int = 30
    fp64_transc: int = 140
    fp32_transc: int = 70
    packed64: int = 24
    packed32: int = 12
    packed64_div: int = 90
    packed32_div: int = 45
    cvt64: int = 8
    cvt32: int = 4
    lane: int = 2            # pextr / pinsr
    out_rand: int = 4
    mpi_local: int = 20      # local cost of reaching a collective
    mem8: int = 12
    mem4: int = 6
    mem16: int = 24
    #: frame (stack-local) accesses stay L1-resident on real hardware;
    #: array/global traffic is what streams through the memory system.
    mem_frame: int = 1

    def mem_cost(self, width: int, is_frame: bool = False) -> int:
        if is_frame:
            return self.mem_frame
        if width == 4:
            return self.mem4
        if width == 16:
            return self.mem16
        return self.mem8

    def op_cost(self, op: Op) -> int:
        return _build_table(self)[op]


_TABLE_CACHE: dict = {}


def _build_table(model: CostModel) -> dict:
    cached = _TABLE_CACHE.get(model)
    if cached is not None:
        return cached

    m = model
    table: dict[Op, int] = {}
    fp64_bin = {Op.ADDSD, Op.SUBSD, Op.MULSD, Op.MINSD, Op.MAXSD, Op.UCOMISD}
    fp32_bin = {Op.ADDSS, Op.SUBSS, Op.MULSS, Op.MINSS, Op.MAXSS, Op.UCOMISS}
    fp64_cheap = {Op.ABSSD, Op.NEGSD}
    fp32_cheap = {Op.ABSSS, Op.NEGSS}
    transc64 = {Op.SINSD, Op.COSSD, Op.EXPSD, Op.LOGSD}
    transc32 = {Op.SINSS, Op.COSSS, Op.EXPSS, Op.LOGSS}
    pd = {Op.ADDPD, Op.SUBPD, Op.MULPD}
    ps = {Op.ADDPS, Op.SUBPS, Op.MULPS}

    for op, info in OPCODE_INFO.items():
        if op in fp64_bin:
            cost = m.fp64
        elif op in fp32_bin:
            cost = m.fp32
        elif op in fp64_cheap:
            cost = m.int_alu
        elif op in fp32_cheap:
            cost = m.int_alu
        elif op in (Op.DIVSD, Op.SQRTSD):
            cost = m.fp64_div
        elif op in (Op.DIVSS, Op.SQRTSS):
            cost = m.fp32_div
        elif op in transc64:
            cost = m.fp64_transc
        elif op in transc32:
            cost = m.fp32_transc
        elif op in pd:
            cost = m.packed64
        elif op in ps:
            cost = m.packed32
        elif op in (Op.DIVPD, Op.SQRTPD):
            cost = m.packed64_div
        elif op in (Op.DIVPS, Op.SQRTPS):
            cost = m.packed32_div
        elif op in (Op.CVTSI2SD, Op.CVTTSD2SI, Op.CVTSD2SS, Op.CVTSS2SD):
            cost = m.cvt64
        elif op in (Op.CVTSI2SS, Op.CVTTSS2SI):
            cost = m.cvt32
        elif op in (Op.MOVQXR, Op.MOVQRX):
            cost = m.movq
        elif op in (Op.PEXTR, Op.PINSR):
            cost = m.lane
        elif op in (Op.PUSH, Op.POP):
            cost = m.push_pop
        elif op in (Op.PUSHX, Op.POPX):
            cost = m.pushx_popx
        elif op in (Op.CALL, Op.RET):
            cost = m.call_ret
        elif info.is_branch:
            cost = m.branch
        elif op in (Op.OUTI, Op.OUTSD, Op.OUTSS, Op.RAND):
            cost = m.out_rand
        elif info.comm:
            cost = m.mpi_local
        elif op in (Op.MOVSD, Op.MOVSS, Op.MOVAPD):
            cost = m.int_alu  # register form; memory forms add mem_cost
        else:
            cost = m.int_alu
        table[op] = cost

    _TABLE_CACHE[model] = table
    return table


#: The calibrated default used by all experiments.
DEFAULT_COST_MODEL = CostModel()
