"""Parallel configuration evaluation: the fork-pool executor.

The paper notes the search "is highly parallelizable, and the system can
launch many independent tests if cores are available".  This module
provides that: a process pool (fork start method — the workload objects,
including their compiled programs and cached baselines, are inherited
by the children without pickling) running the jobs the
:class:`~repro.search.evaluator.Evaluator` front hands it.

Only the *evaluations* are parallel; the search loop itself stays
deterministic — batches are drained in submission order, so histories
and results are identical to a serial run with the same options.  Dedup,
the store and all accounting stay in the parent's front, so
``eval.cache_hits`` / ``eval.config`` counts are identical to a serial
run over the same sequence.

Every worker process evaluates like the inline executor: it owns an
:class:`~repro.search.evaluator.IncrementalState` (instrumentation-
template cache + persistent VM) that persists across the jobs it
executes, and ships its cache-counter deltas back with each outcome so
the parent can aggregate them into the shared telemetry — workers never
carry telemetry sinks of their own.

Crash-fault tolerance
---------------------
A worker process that dies mid-evaluation (OOM kill, segfault in a
native extension, fault injection) breaks the whole
``ProcessPoolExecutor``: every unfinished future raises
``BrokenProcessPool``.  Instead of letting that abort a multi-hour
campaign, the executor reaps the broken pool, respawns a fresh one,
and resubmits the unfinished configurations under the shared
:class:`~repro.search.retry.RetryPolicy` (exponential backoff).  A
configuration that keeps killing its worker through ``retry_limit``
respawns is classified as a failed evaluation with reason
``worker_crash`` — the search records it and descends, exactly like a
trap.  Outcomes that completed before the crash are never re-run, and
the front's result store persists each outcome as its batch returns,
so even a parent-process SIGKILL loses at most the in-flight batch.
"""

from __future__ import annotations

import multiprocessing
import time
import weakref
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.config.model import Config
from repro.search.evaluator import IncrementalState, execute_config
from repro.search.results import EvalOutcome
from repro.search.retry import RetryPolicy
from repro.telemetry import NULL_TELEMETRY

# Per-worker state, installed by the fork (never pickled).
_STATE: dict = {}

#: Fault-injection hook for crash-recovery tests and CI smoke jobs:
#: when set (parent-side, *before* the pool forks — children inherit
#: it, including respawned pools), every worker calls it with the
#: config's flag map right before evaluating.  A hook simulates a
#: worker crash by calling ``os._exit()``; see
#: tests/campaign/test_worker_crash.py for the file-sentinel idiom
#: that crashes exactly once across respawns.
FAULT_HOOK = None

#: cache-counter names shipped from workers to the parent, in order —
#: the aggregation contract of :func:`_worker_eval`'s deltas tuple.
DELTA_COUNTERS = (
    "instr.block_cache_hits",
    "instr.block_cache_misses",
    "vm.compile_cache_hits",
    "vm.compile_cache_misses",
    "vm.fuse_cache_hits",
    "vm.fuse_cache_misses",
)


def _counters(state) -> tuple[int, ...]:
    """Absolute cache counters of an IncrementalState."""
    machine = state.machine
    if machine is None:
        return (state.icache.hits, state.icache.misses, 0, 0, 0, 0)
    return (
        state.icache.hits,
        state.icache.misses,
        machine.compile_cache_hits,
        machine.compile_cache_misses,
        machine.fuse_cache_hits,
        machine.fuse_cache_misses,
    )


def _worker_init(workload, tree) -> None:
    _STATE["workload"] = workload
    _STATE["tree"] = tree
    _STATE["state"] = None


def _worker_eval(flags: dict):
    """Evaluate one config; returns (outcome, cache-counter deltas).

    The deltas (see :data:`DELTA_COUNTERS`) let the parent aggregate the
    worker-side incremental-cache activity into its telemetry.
    """
    if FAULT_HOOK is not None:
        FAULT_HOOK(flags)
    workload = _STATE["workload"]
    config = Config(_STATE["tree"], flags)
    state = _STATE["state"]
    if state is None:
        state = _STATE["state"] = IncrementalState(workload)
    before = _counters(state)
    outcome = execute_config(workload, config, state)
    return outcome, tuple(a - b for a, b in zip(_counters(state), before))


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _shutdown_pool(pool) -> None:
    """Module-level so ``weakref.finalize`` holds no reference to the
    executor (a bound method would keep it alive forever).

    ``cancel_futures`` matters on the interrupt path: a
    ``KeyboardInterrupt`` mid-batch leaves submitted-but-unstarted jobs
    in the pool's queue, and a plain ``shutdown()`` would block on all
    of them — keeping worker processes alive long after the search is
    dead.  Cancelling drains the queue; workers finish (at most) their
    current evaluation and exit, so no orphans survive the search.
    """
    pool.shutdown(wait=True, cancel_futures=True)


class ParallelEvaluator:
    """Fork-pool executor for the :class:`~repro.search.evaluator.Evaluator`
    front (needs the fork start method; see :func:`fork_available`).

    Also a context manager: ``with ParallelEvaluator(...) as pool:``
    closes the worker pool on exit even when a search raises mid-batch
    (a ``weakref.finalize`` backstop reaps the pool if the executor is
    dropped without ``close()``).  Telemetry events are emitted from the
    parent process only — worker children never carry sinks, so trace
    files have a single writer.
    """

    def __init__(
        self,
        workload,
        tree,
        workers: int,
        telemetry=None,
        retry_limit: int = 3,
        retry_backoff: float = 0.05,
    ):
        if workers < 2:
            raise ValueError("ParallelEvaluator needs workers >= 2")
        self.workload = workload
        self.tree = tree
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: bounded-retry policy for crashed workers (shared with the
        #: cluster coordinator — see :mod:`repro.search.retry`).
        self.retry = RetryPolicy(retry_limit, retry_backoff)
        self.pool_respawns = 0
        self.crashed_configs = 0
        # Make sure lazily cached state (baseline, profile) exists
        # before forking so children share it.
        workload.baseline()
        if hasattr(workload, "profile"):
            workload.profile()
        self._pool = self._spawn_pool()
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)

    def _spawn_pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context("fork")
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(self.workload, self.tree),
        )

    def _respawn_pool(self) -> None:
        """Replace a broken pool with a fresh one (same fork'd state)."""
        self._finalizer.detach()
        # The pool is broken: surviving workers exit after their current
        # item, dead ones are reaped.  Nothing is pending that we still
        # want (unfinished configs are resubmitted).
        self._pool.shutdown(wait=True, cancel_futures=True)
        self.pool_respawns += 1
        self._pool = self._spawn_pool()
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)

    def evaluate_batch(self, jobs: list) -> list[EvalOutcome]:
        """Run *jobs* on the pool, surviving worker crashes.

        A dead worker breaks the whole pool: every unfinished future
        raises ``BrokenProcessPool`` (or comes back cancelled).  Results
        that completed before the crash are kept; the pool is respawned
        and the rest resubmitted under the retry policy, each config at
        most ``retry_limit`` times before it is classified as failed
        with reason ``worker_crash``.
        """
        telemetry = self.telemetry
        flag_maps = [dict(job.config.flags) for job in jobs]
        outcomes: list = [None] * len(flag_maps)
        totals = [0] * len(DELTA_COUNTERS)
        attempts = [0] * len(flag_maps)
        pending = list(range(len(flag_maps)))
        while pending:
            futures = {
                i: self._pool.submit(_worker_eval, flag_maps[i])
                for i in pending
            }
            crashed = []
            for i, future in futures.items():
                try:
                    outcome, deltas = future.result()
                except (BrokenProcessPool, CancelledError):
                    crashed.append(i)
                else:
                    outcomes[i] = outcome
                    for j, delta in enumerate(deltas):
                        totals[j] += delta
            if not crashed:
                break
            self._respawn_pool()
            retry = []
            for i in crashed:
                attempts[i] += 1
                if self.retry.exhausted(attempts[i]):
                    # This config (or its cohort) kept killing workers:
                    # classify as a failed evaluation and move on — a
                    # crash must never abort the campaign.
                    self.crashed_configs += 1
                    outcomes[i] = self.retry.crash_outcome(attempts[i])
                    if telemetry.enabled:
                        telemetry.count("eval.worker_crashes")
                        telemetry.emit(
                            "eval.worker_crash", attempts=attempts[i]
                        )
                else:
                    retry.append(i)
            if retry:
                attempt = max(attempts[i] for i in retry)
                delay = self.retry.delay(attempt)
                if telemetry.enabled:
                    telemetry.count("eval.retries", len(retry))
                    telemetry.emit(
                        "eval.retry", attempt=attempt, pending=len(retry),
                        backoff_s=round(delay, 3),
                    )
                time.sleep(delay)
            pending = retry
        for name, total in zip(DELTA_COUNTERS, totals):
            if total:
                telemetry.count(name, total)
        return outcomes

    def close(self) -> None:
        if self._pool is not None:
            self._finalizer()  # idempotent: shuts the pool down once
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
