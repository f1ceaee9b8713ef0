"""Rank scheduler: runs P VM instances and coordinates their collectives.

Execution model: every rank runs until it either halts or blocks at a
collective.  When all live ranks are blocked at the *same* collective,
the operation is applied, every participant's cycle clock advances to

    max(arrival clocks) + comm_cost

and all ranks resume.  A rank halting while others still wait at a
collective is reported as a deadlock (a real MPI program would hang).

The reported ``elapsed`` is the maximum cycle clock across ranks — the
parallel makespan, the quantity whose ratio between instrumented and
original runs reproduces the paper's Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.binary.model import Program
from repro.fpbits.ieee import (
    bits_to_double,
    bits_to_single,
    double_to_bits,
    single_to_bits,
)
from repro.isa.opcodes import RED_MAX, RED_MIN, RED_SUM
from repro.mpi.costmodel import CommCostModel
from repro.telemetry import NULL_TELEMETRY
from repro.vm.errors import CollectiveYield
from repro.vm.machine import VM


class MpiError(Exception):
    """Deadlock or mismatched collectives."""


@dataclass(slots=True)
class MpiResult:
    """Outcome of a multi-rank run."""

    size: int
    elapsed: int                    # makespan in cycles
    per_rank: list                  # list[ExecResult]
    collectives: int = 0
    #: per-rank cycles spent blocked in collectives (wait + transfer);
    #: compute time for rank r is per_rank[r].cycles - comm_cycles[r].
    comm_cycles: list = field(default_factory=list)

    @property
    def outputs(self) -> list:
        """Rank 0's output stream (the conventional reporting rank)."""
        return self.per_rank[0].outputs

    def values(self) -> list:
        from repro.vm.outputs import decode_outputs

        return decode_outputs(self.outputs)

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.per_rank)


_RED_FUNCS = {
    RED_SUM: lambda values: sum(values),
    RED_MIN: min,
    RED_MAX: max,
}


class MultiRankRunner:
    """Runs one program at ``size`` ranks."""

    def __init__(
        self,
        program: Program,
        size: int,
        stack_words: int = 8192,
        seed: int = 0x9E3779B97F4A7C15,
        max_steps: int = 200_000_000,
        profile: bool = False,
        cost_model: CommCostModel | None = None,
        telemetry=None,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.cost_model = cost_model or CommCostModel()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._comm = [0] * size
        # Decorrelate rank RNG streams deterministically.
        self.vms = [
            VM(
                program,
                stack_words=stack_words,
                seed=(seed + 0x9E3779B97F4A7C15 * rank) & 0xFFFFFFFFFFFFFFFF or 1,
                rank=rank,
                size=size,
                max_steps=max_steps,
                profile=profile,
            )
            for rank in range(size)
        ]
        self.collectives = 0

    def run(self) -> MpiResult:
        if self.size == 1:
            result = self.vms[0].run()
            return self._finish(MpiResult(1, result.cycles, [result], 0, [0]))

        vms = self.vms
        resume_at = {r: vm.entry_index() for r, vm in enumerate(vms)}
        blocked: dict[int, CollectiveYield] = {}
        active = set(range(self.size))

        while active:
            runnable = [r for r in sorted(active) if r not in blocked]
            if not runnable:
                # Every live rank is parked at a collective.  It only
                # completes if *all* ranks of the communicator are present.
                if len(blocked) != self.size:
                    raise MpiError(
                        f"deadlock: ranks {sorted(blocked)} blocked at a "
                        f"collective but ranks "
                        f"{sorted(set(range(self.size)) - set(blocked))} "
                        "have already terminated"
                    )
                self._complete_collective(blocked, active)
                for rank, y in blocked.items():
                    resume_at[rank] = y.resume_index
                blocked.clear()
                continue
            for rank in runnable:
                try:
                    halted = vms[rank].resume(resume_at[rank])
                except CollectiveYield as y:
                    blocked[rank] = y
                    continue
                if halted:
                    active.discard(rank)

        per_rank = [vm.result() for vm in vms]
        elapsed = max(r.cycles for r in per_rank)
        return self._finish(
            MpiResult(
                self.size, elapsed, per_rank, self.collectives, list(self._comm)
            )
        )

    def _finish(self, result: MpiResult) -> MpiResult:
        """Emit the per-rank compute/comm attribution for a completed run."""
        telemetry = self.telemetry
        if telemetry.enabled:
            for rank, rank_result in enumerate(result.per_rank):
                comm = result.comm_cycles[rank]
                telemetry.emit(
                    "mpi.rank",
                    rank=rank,
                    cycles=rank_result.cycles,
                    compute_cycles=rank_result.cycles - comm,
                    comm_cycles=comm,
                )
            telemetry.emit(
                "mpi.run",
                size=result.size,
                elapsed=result.elapsed,
                collectives=result.collectives,
            )
        return result

    # -- collectives ---------------------------------------------------------------

    def _complete_collective(self, blocked: dict, active: set) -> None:
        if set(blocked) != active:
            raise MpiError("collective does not include every live rank")
        kinds = {y.kind for y in blocked.values()}
        if len(kinds) != 1:
            raise MpiError(f"mismatched collectives: {sorted(kinds)}")
        kind = kinds.pop()
        vms = self.vms
        self.collectives += 1

        if kind == "allred":
            args = {y.arg for y in blocked.values()}
            if len(args) != 1:
                raise MpiError("mismatched reduction operators")
            fn = _RED_FUNCS[args.pop()]
            xregs = {r: y.xmm for r, y in blocked.items()}
            values = [bits_to_double(vms[r].xmm_lo[xregs[r]]) for r in sorted(blocked)]
            result = double_to_bits(fn(values))
            for r in blocked:
                vms[r].xmm_lo[xregs[r]] = result
            cost = self.cost_model.allreduce(self.size, words=1)
        elif kind == "allredss":
            args = {y.arg for y in blocked.values()}
            if len(args) != 1:
                raise MpiError("mismatched reduction operators")
            fn = _RED_FUNCS[args.pop()]
            xregs = {r: y.xmm for r, y in blocked.items()}
            values = [
                bits_to_single(vms[r].xmm_lo[xregs[r]] & 0xFFFFFFFF)
                for r in sorted(blocked)
            ]
            result = single_to_bits(fn(values))
            for r in blocked:
                lane = vms[r].xmm_lo[xregs[r]]
                vms[r].xmm_lo[xregs[r]] = (lane & 0xFFFFFFFF00000000) | result
            cost = self.cost_model.allreduce(self.size, words=1)
        elif kind == "allredv" or kind == "allredvss":
            args = {y.arg for y in blocked.values()}
            counts = {y.count for y in blocked.values()}
            if len(args) != 1 or len(counts) != 1:
                raise MpiError("mismatched vector collective parameters")
            fn = _RED_FUNCS[args.pop()]
            n = counts.pop()
            single = kind == "allredvss"
            for k in range(n):
                if single:
                    values = [
                        bits_to_single(vms[r].mem[blocked[r].addr + k] & 0xFFFFFFFF)
                        for r in sorted(blocked)
                    ]
                    result = single_to_bits(fn(values))
                    for r in blocked:
                        cell = vms[r].mem[blocked[r].addr + k]
                        vms[r].mem[blocked[r].addr + k] = (
                            cell & 0xFFFFFFFF00000000
                        ) | result
                else:
                    values = [
                        bits_to_double(vms[r].mem[blocked[r].addr + k])
                        for r in sorted(blocked)
                    ]
                    result = double_to_bits(fn(values))
                    for r in blocked:
                        vms[r].mem[blocked[r].addr + k] = result
            cost = self.cost_model.allreduce(self.size, words=n)
        elif kind == "bcastsd":
            roots = {y.arg for y in blocked.values()}
            if len(roots) != 1:
                raise MpiError("mismatched broadcast roots")
            root = roots.pop()
            if root not in blocked:
                raise MpiError(f"broadcast root {root} is not participating")
            xregs = {r: y.xmm for r, y in blocked.items()}
            value = vms[root].xmm_lo[xregs[root]]
            for r in blocked:
                vms[r].xmm_lo[xregs[r]] = value
            cost = self.cost_model.bcast(self.size, words=1)
        elif kind == "barrier":
            cost = self.cost_model.barrier(self.size)
        else:  # pragma: no cover - unreachable with current opcodes
            raise MpiError(f"unknown collective {kind!r}")

        # Synchronize clocks: everyone leaves at max(arrival) + cost.
        # Everything between a rank's arrival and the common departure is
        # communication time (wait for stragglers + the transfer itself).
        leave = max(vms[r]._cyc[0] for r in blocked) + cost
        for r in blocked:
            self._comm[r] += leave - vms[r]._cyc[0]
            vms[r]._cyc[0] = leave


def run_mpi_program(
    program: Program,
    size: int,
    **kwargs,
) -> MpiResult:
    """Convenience wrapper: run *program* at *size* ranks."""
    return MultiRankRunner(program, size, **kwargs).run()
