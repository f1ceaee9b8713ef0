"""Small analysis subjects: what the registered workloads never execute.

The original programs of the registered workloads contain no packed
op, no XMM stack or lane op, no ``movss``/``cvtss2sd``/``cvtsd2ss`` and
no single-precision arithmetic, and none of them reaches an unknown
verdict.  These sources do, so that every wrapper of the analysis
observer runs under a test and every unknown reason an observed run can
reach is labelled somewhere:

* MH sources, compiled: ``f32`` variables (the single forms the
  compiler emits), a call, a loop, an ``i64(...)`` index, transcendental
  and min/max intrinsics, single-rank collectives, a compare and an
  integer conversion that decide differently in float32, and a baseline
  that traps;
* assembly sources, for what the compiler never emits: packed
  arithmetic, ``movapd``, ``pushx``/``popx``, ``pinsr``/``pextr``,
  every ``mov``/``push`` form, bfloat16 ops, and divergence escaping
  into integer compute, an address and a return address.
"""

from __future__ import annotations

from repro.asm import assemble_text
from repro.config.generator import build_tree
from repro.config.model import Config, Policy
from repro.search.evaluator import Evaluator
from repro.vm.machine import run_program
from tests.conftest import compile_src


class SrcWorkload:
    """Minimal workload around one program: verify against the
    double-precision baseline under a relative tolerance."""

    def __init__(self, program, rel_tol=1e-6, name="src"):
        self.program = program
        self.rel_tol = rel_tol
        self.name = name
        self._base = None

    def vm_params(self):
        return {}

    def run(self, program=None):
        return run_program(program if program is not None else self.program)

    def profile(self):
        return run_program(self.program, profile=True).exec_counts

    def verify(self, result) -> bool:
        if self._base is None:
            self._base = run_program(self.program)
        want = self._base.values()
        got = result.values()
        if len(want) != len(got):
            return False
        for w, g in zip(want, got):
            if w != w or g != g:  # NaN never verifies
                return False
            if abs(g - w) > self.rel_tol * max(1.0, abs(w)):
                return False
        return True


def real_outcomes(workload, addrs):
    """addr -> real singleton-replacement outcome via the evaluator."""
    tree = build_tree(workload.program)
    evaluator = Evaluator(workload)
    outcomes = {}
    for addr in addrs:
        node = tree.by_addr[addr]
        config = Config(tree, {node.node_id: Policy.SINGLE})
        passed, _cycles, _trap, _reason = evaluator.evaluate(config)
        outcomes[addr] = "pass" if passed else "fail"
    return outcomes


#: f32 variables, a call, a loop, an i64 index, every scalar intrinsic,
#: the single-rank collectives and MPI identity.
MH_MIXED = """
var buf: f32[4];
var xs: real[8];
fn scale(v: real, k: real) -> real {
    return v * k - 0.25;
}
fn main() {
    var d: real = 0.1;
    var acc: f32 = f32(0.0);
    for i in 0 .. 8 {
        d = scale(d, 1.1) + real(i);
        xs[i] = d / 3.0;
        var y: f32 = f32(d);
        acc = acc + y * y;
        buf[i % 4] = acc;
    }
    out(xs[i64(d * 0.01)]);
    out(f64(acc));
    out(buf[2]);
    out(i64(acc));
    out(min(sqrt(d), max(abs(-d), 0.5)));
    out(sin(d) + cos(d) + exp(0.5) + log(d));
    out(allreduce_sum(d) + allreduce_max(d));
    allreduce_sum_vec(xs, 8);
    out(xs[3]);
    out(frand() + real(mpi_rank()) + real(mpi_size()));
    out(rand_u64() % 7);
}
"""

#: 1.0 + 1e-10 and 3.0 - 1e-10 round to 1.0 and 3.0 in float32: the
#: compare's relation and the conversion's integer change.
MH_FLIPS = """
fn main() {
    var eps: real = 0.0000000001;
    var a: real = 1.0 + eps;
    if a > 1.0 {
        out(1.0);
    } else {
        out(2.0);
    }
    var t: real = 3.0 - eps;
    out(i64(t * 1.0));
    out(a * t);
}
"""

#: a sum that stays exact in float32 (every verdict can pass) beside one
#: that does not.
MH_EXACT = """
var total: real;
fn main() {
    var s: real = 0.0;
    var tiny: real = 1.0;
    for i in 0 .. 30 {
        s = s + real(i) * 0.125;
        tiny = tiny * 0.5;
    }
    total = s + tiny * 0.0000001;
    out(s);
    out(tiny);
    out(sqrt(total));
}
"""

#: the baseline itself traps: the statistics stay, no verdict is trusted.
MH_TRAP = """
var a: real[4] = [1.0, 2.0, 3.0, 4.0];
fn main() {
    var s: real = 0.0;
    for i in 0 .. 9 {
        s = s + a[i * 100000000];
    }
    out(s);
}
"""

#: packed double and single arithmetic, movapd, the XMM stack and the
#: lane moves.
ASM_PACKED = """
.global vec 8 0x3fb999999999999a 0x3ff199999999999a 0x4008000000000000 0x4010000000000000 0 0 0 0
.func _start
    movsd %x0, [vec]
    mulsd %x0, [vec+1]
    movapd %x2, [vec]
    movapd %x3, %x2
    addpd %x2, %x3
    mulpd %x2, [vec+2]
    subpd %x2, %x3
    divpd %x2, [vec+2]
    sqrtpd %x3, %x2
    sqrtpd %x4, [vec+2]
    movapd [vec+4], %x3
    movapd %x5, %x5
    pushx %x0
    pushx %x3
    popx %x6
    popx %x7
    addsd %x7, %x6
    movqrx %r1, %x7
    pinsr %x8, %r1, $1
    pinsr %x8, %r1, $0
    pextr %r2, %x8, $1
    pextr %r3, %x3, $0
    movqxr %x9, %r2
    addps %x8, %x2
    mulps %x8, [vec]
    sqrtps %x10, %x8
    outsd %x0
    outsd %x3
    outsd %x6
    outsd %x7
    outsd %x9
    outsd %x4
    outi %r3
    halt
.endfunc
"""

#: scalar single moves and conversions, every mov/push form, calls,
#: integer compute, bfloat16 ops and the collectives the VM runs as
#: no-ops at one rank.
ASM_SCALAR = """
.global vec 8 0x3fb999999999999a 0x3ff199999999999a 0x4008000000000000 0x4010000000000000 0 0 0 0
.global one 1 0x3ff0000000000000
.func _start
    movsd %x0, [vec]
    mulsd %x0, [vec+1]
    movsd %x1, %x0
    movsd %x1, %x1
    divsd %x1, %x0
    sqrtsd %x2, [vec+3]
    negsd %x2, %x2
    maxsd %x2, %x1
    ucomisd %x0, [vec+2]
    ucomisd %x2, %x0
    movsd [vec+5], %x0
    movss %x3, [vec]
    movss %x3, %x0
    movss [vec+6], %x0
    cvtsd2ss %x4, %x0
    cvtss2sd %x5, %x4
    addss %x4, %x4
    mulss %x4, [vec+6]
    sqrtss %x11, %x4
    ucomiss %x4, %x11
    cvtsi2ss %x12, %r0
    cvttss2si %r9, %x4
    cvtsd2bf %x6, %x0
    addbf %x6, %x6
    cvtbf2sd %x7, %x6
    mov %r1, $3
    mov %r2, %r1
    mov %r2, %r2
    mov %r3, [vec+2]
    mov [vec+7], %r3
    mov [vec+7], $5
    lea %r4, 2(%r1)
    add %r4, %r1
    imul %r4, $3
    idiv %r4, $2
    inc %r4
    cmp %r4, $4
    cvtsi2sd %x8, %r4
    addsd %x8, %x5
    cvttsd2si %r5, %x8
    push %r5
    push $7
    pop %r6
    pop %r7
    call helper
    movqrx %r8, %x0
    movqxr %x9, %r8
    rand %r10
    mpirank %r11
    mpisize %r12
    allred %x9, $0
    allredv [vec], $0, %r11
    barrier
    bcastsd %x9, $0
    outsd %x0
    outsd %x1
    outsd %x2
    outsd %x5
    outss %x4
    outsd %x7
    outsd %x8
    outsd %x9
    outi %r5
    outi %r6
    halt
.endfunc
.func helper
    mulsd %x1, [one]
    ret
.endfunc
"""

#: divergence escaping the channel model: into integer compute, into an
#: address, and into the stack word a return reads.  ``tiny`` is the
#: double whose bits are 3 (a denormal that float32 flushes to zero), so
#: the replaced product diverges while the baseline address stays valid.
ASM_ESCAPES = """
.global vec 4 0x3fb999999999999a 0x3ff199999999999a 0x4008000000000000 0x4010000000000000
.global tiny 1 3
.global one 1 0x3ff0000000000000
.func _start
    movsd %x0, [vec]
    mulsd %x0, [vec+1]
    movqrx %r4, %x0
    add %r4, $1
    movsd %x1, [tiny]
    mulsd %x1, [one]
    movqrx %r5, %x1
    movsd %x2, (%r5)
    call leaf
    outsd %x0
    outsd %x2
    outi %r4
    halt
.endfunc
.func leaf
    mov %r8, (%sp)
    movqxr %x3, %r8
    mulsd %x3, [one]
    movss (%sp), %x3
    ret
.endfunc
"""

MH_SOURCES = {
    "mh_mixed": MH_MIXED,
    "mh_flips": MH_FLIPS,
    "mh_exact": MH_EXACT,
    "mh_trap": MH_TRAP,
}
ASM_SOURCES = {
    "asm_packed": ASM_PACKED,
    "asm_scalar": ASM_SCALAR,
    "asm_escapes": ASM_ESCAPES,
}


def source_workload(name: str) -> SrcWorkload:
    """The named source, compiled or assembled, as a workload."""
    if name in MH_SOURCES:
        program = compile_src(MH_SOURCES[name])
    else:
        program = assemble_text(ASM_SOURCES[name], name=name)
    return SrcWorkload(program, name=name)


SOURCE_NAMES = (*MH_SOURCES, *ASM_SOURCES)
