"""Bounded-retry policy for evaluations lost to dying workers.

Both out-of-process executors — the fork pool
(:class:`~repro.search.parallel.ParallelEvaluator`) and the lease
channel (:class:`~repro.cluster.coordinator.BaseLeaseEvaluator`) — face
the same failure: the process evaluating a configuration dies before
reporting an outcome (OOM kill, segfault in a native extension, a
SIGKILLed cluster worker, fault injection).  The shared policy is

* retry the configuration at most ``limit`` times, sleeping
  ``backoff * 2**(attempt-1)`` seconds before each retry round;
* a configuration that keeps killing its executor through every retry
  is *classified*, not fatal: it becomes a failed
  :class:`~repro.search.results.EvalOutcome` with reason
  :data:`~repro.search.results.REASON_WORKER_CRASH`, the search records
  it and descends exactly like a trap, and the campaign continues.

The two executors differ only in *when* they sleep (the pool evaluator
sleeps the parent between resubmission rounds; the coordinator delays
the individual task's next lease), which is why the policy carries no
clock of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.search.results import REASON_WORKER_CRASH, EvalOutcome


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How many times to retry a crashed evaluation, and how patiently.

    limit:
        Maximum retries per configuration (0 = classify on the first
        crash).  An evaluation is attempted at most ``limit + 1`` times.
    backoff:
        Base of the exponential backoff: attempt *n* (1-based) waits
        ``backoff * 2**(n-1)`` seconds before re-executing.
    """

    limit: int = 3
    backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.backoff < 0:
            raise ValueError("retry_backoff must be >= 0")

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry round *attempt* (1-based)."""
        return self.backoff * (2 ** (attempt - 1))

    def exhausted(self, attempts: int) -> bool:
        """True once *attempts* crashes mean no further retry is due."""
        return attempts > self.limit

    def crash_outcome(
        self, attempts: int, what: str = "worker process died"
    ) -> EvalOutcome:
        """The classified failure for a config that crashed *attempts*
        times — recorded by the search like any other failed evaluation
        so a crash can never abort a campaign."""
        return EvalOutcome(
            False, 0, f"{what} (x{attempts} attempts)", REASON_WORKER_CRASH
        )
