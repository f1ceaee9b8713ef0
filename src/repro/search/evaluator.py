"""Configuration evaluation: instrument, run, verify.

A crashed run (VM trap — out-of-bounds access from a corrupted index,
step-budget blowout from a wrecked loop bound, ...) counts as a failed
verification; this is the paper's deliberate "anything missed causes a
crash" property at work.

One front, three executors
--------------------------
:class:`Evaluator` is the front every search talks to, and the only
owner of evaluation state: the flag and semantic caches, the result
store lookup and write, the ``decided`` digest set, the counters, and
the ``eval.config`` / ``vm.trap`` / ``store.hit`` telemetry.  It dedups
each batch and hands the configurations that survive to its executor,
whose ``evaluate_batch(jobs)`` runs exactly those jobs and returns their
outcomes in order:

* :class:`InlineExecutor` runs them in this process, one after another
  (the serial path, and the fallback where fork is unavailable);
* :class:`~repro.search.parallel.ParallelEvaluator` runs them on a fork
  pool;
* :class:`~repro.cluster.coordinator.BaseLeaseEvaluator` leases them to
  network workers over one channel of a cluster coordinator.

Every executor runs a job through :func:`execute_config`, so an outcome
does not depend on where it was computed, and because dedup happens
only here, ``configs_tested`` and every counter are identical across
executors (differential-tested).

Every *actual* evaluation is reported to the attached telemetry as one
``eval.config`` event carrying pass/fail, cycles, the trap message, and
wall time — so a trace's ``eval.config`` count always equals the
search's ``configs_tested`` minus its ``store.hit`` replays (exactly
``configs_tested`` when no result store is attached).  An outcome whose
reason is ``trap`` or ``timeout`` adds exactly one ``vm.trap`` event; a
``worker_crash`` adds none.

Incremental evaluation
----------------------
With ``incremental`` on (the default) every executor threads two caches
through its evaluations so the marginal cost of a configuration is
proportional to its *delta* from previously seen ones:

* an :class:`~repro.instrument.cache.InstrumentCache` reuses per-block
  instrumentation templates, so only blocks whose policy slice changed
  are re-snippeted;
* a persistent :class:`~repro.vm.machine.Machine` reuses compiled VM
  closures for unchanged blocks across programs (only when the
  workload's ``run`` is the stock single-rank runner — a workload with
  a custom ``run`` is executed through that override, unchanged).

Both caches are semantics-invisible: the instrumented bytes and the
run's outputs/cycles/steps are bit-identical to the cold path (enforced
by differential tests).  A second, semantic config cache in the front
recognizes configurations whose *flag maps* differ but whose resolved
per-instruction policies coincide — those short-circuit as cache hits
without an ``eval.config`` event, exactly like flag-identical repeats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.config.model import Config
from repro.instrument.cache import InstrumentCache
from repro.instrument.engine import instrument
from repro.search.results import (
    REASON_TIMEOUT,
    REASON_TRAP,
    REASON_VERIFY,
    EvalOutcome,
)
from repro.telemetry import NULL_TELEMETRY
from repro.vm.errors import VmTimeout, VmTrap
from repro.vm.machine import Machine
from repro.workloads.base import Workload


def trap_reason(exc: VmTrap) -> str:
    """Classify a VM trap for :class:`EvalOutcome.reason`."""
    return REASON_TIMEOUT if isinstance(exc, VmTimeout) else REASON_TRAP


def machine_eligible(workload) -> bool:
    """True when *workload* executes programs with the stock single-rank
    runner (``Workload.run`` not overridden), so a persistent
    :class:`~repro.vm.machine.Machine` built from ``vm_params()``
    reproduces its runs bit-for-bit."""
    return isinstance(workload, Workload) and type(workload).run is Workload.run


class IncrementalState:
    """The per-process caches of incremental evaluation.

    One instance serves one workload in one process — the inline
    executor owns one directly; each fork-pool or network worker builds
    its own so closures bind to that process's state.
    """

    __slots__ = ("icache", "machine")

    def __init__(self, workload, telemetry=None) -> None:
        self.icache = InstrumentCache(workload.program)
        self.machine = (
            Machine(telemetry=telemetry, **workload.vm_params())
            if machine_eligible(workload)
            else None
        )

    def run(self, workload, instrumented):
        """Execute an instrumented build exactly as ``workload.run`` would."""
        if self.machine is not None:
            return self.machine.run(instrumented.program)
        return workload.run(instrumented.program)


def semantic_key(policies: dict) -> tuple:
    """Hashable identity of a configuration's resolved policy map."""
    return tuple(sorted(policies.items()))


def execute_config(
    workload,
    config: Config,
    state,
    telemetry=None,
    policies: dict | None = None,
) -> EvalOutcome:
    """Instrument + run + verify one configuration.

    *state* is the executor's :class:`IncrementalState` (None restores
    the cold path); *policies* is the config's resolved policy map when
    the caller already has it.  With *telemetry* attached,
    instrumentation statistics and cache counters land in the
    executor's local stream (cluster workers forward that stream to the
    coordinator).
    """
    instrumented = instrument(
        workload.program, config, telemetry=telemetry,
        cache=state.icache if state is not None else None,
        policies=policies,
    )
    try:
        if state is not None:
            result = state.run(workload, instrumented)
        else:
            result = workload.run(instrumented.program)
    except VmTrap as exc:
        return EvalOutcome(False, 0, str(exc), trap_reason(exc))
    passed = bool(workload.verify(result))
    return EvalOutcome(passed, result.cycles, "", "" if passed else REASON_VERIFY)


class PlannedJob(NamedTuple):
    """One configuration that survived deduplication and must execute."""

    skey: tuple | None      # semantic identity (None when non-incremental)
    digest: str             # store policy digest ("" without a store)
    policies: dict | None   # resolved policy map, if dedup needed it
    config: Config


class InlineExecutor:
    """Runs each job in this process, one after another."""

    def __init__(self, workload, incremental: bool = True,
                 telemetry=None) -> None:
        self.workload = workload
        self.incremental = incremental
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._state: IncrementalState | None = None

    def evaluate_batch(self, jobs: list) -> list[EvalOutcome]:
        if jobs and self.incremental and self._state is None:
            self._state = IncrementalState(self.workload, self.telemetry)
        return [
            execute_config(
                self.workload, job.config, self._state,
                self.telemetry, job.policies,
            )
            for job in jobs
        ]

    def close(self) -> None:
        """Nothing to release."""


@dataclass(slots=True)
class Evaluator:
    """Evaluates configurations against a workload.

    Parameters
    ----------
    workload:
        Object with ``program`` (the original double-precision binary),
        ``run(program) -> ExecResult`` and ``verify(result) -> bool``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; receives one
        ``eval.config`` event per execution plus the instrumentation
        engine's ``instr.stats`` counters and the incremental-cache
        metrics (``instr.block_cache_*``, ``vm.compile_cache_*``,
        ``vm.fuse_cache_*``).
    incremental:
        Semantic dedup here, and the instrumentation/compile caches in
        the default inline executor (see module docstring).  ``False``
        restores the cold path for every test — results are identical
        either way.
    store:
        Optional :class:`repro.store.ResultStore`.  Decided outcomes are
        looked up by ``(store_workload, policy digest)`` before any
        execution and persisted after each one, so campaigns resume and
        warm-start without re-running configurations.  A store *replay*
        counts toward ``evaluations`` (the search's decision budget is
        unchanged either way) but not toward executions — ``store_hits``
        tracks the split.
    store_workload:
        The :func:`repro.store.workload_id` the store rows are keyed by;
        computed from ``workload`` on first use when left empty.
    lattice:
        Precision lattice spec (or :class:`repro.lattice.Lattice`) the
        evaluated configurations refer to; salts the store's policy
        digests so outcomes never dedup across lattices.  ``None`` and
        the binary ``"f64,f32"`` lattice produce the legacy digests.
    executor:
        What runs the configurations that survive dedup (see module
        docstring); an :class:`InlineExecutor` when omitted.
    """

    workload: object
    telemetry: object = None
    incremental: bool = True
    store: object = None
    store_workload: str = ""
    lattice: object = None
    executor: object = None
    cache: dict = field(default_factory=dict, init=False)
    semantic_cache: dict = field(default_factory=dict, init=False)
    #: policy digests this campaign has counted toward ``evaluations``.
    #: Journaled and restored on resume so a store replay of a config
    #: that was merely an in-memory cache hit before the interruption
    #: does not inflate configs_tested — resumed counts match an
    #: uninterrupted run exactly.  Empty (and unused) without a store.
    decided: set = field(default_factory=set, init=False)
    evaluations: int = field(default=0, init=False)
    cache_hits: int = field(default=0, init=False)
    store_hits: int = field(default=0, init=False)
    #: configurations actually run (excludes every kind of replay)
    executions: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.telemetry is None:
            self.telemetry = NULL_TELEMETRY
        if self.executor is None:
            self.executor = InlineExecutor(
                self.workload, self.incremental, self.telemetry
            )

    def _store_id(self) -> str:
        if not self.store_workload:
            from repro.store import workload_id

            self.store_workload = workload_id(self.workload)
        return self.store_workload

    def evaluate(self, config: Config) -> EvalOutcome:
        """Returns EvalOutcome(passed, cycles, trap_message, reason)."""
        return self.evaluate_batch([config])[0]

    def evaluate_batch(self, configs: list[Config]) -> list[EvalOutcome]:
        """Outcomes of *configs*, in order.

        Flag-identical repeats, semantic twins (of a cached config or of
        an earlier one in the batch) and store replays are answered
        here; everything else runs on the executor, once.
        """
        keys = [frozenset(config.flags.items()) for config in configs]
        jobs: list[PlannedJob] = []
        planned: dict = {}   # flag key -> position of the job answering it
        by_skey: dict = {}   # semantic key -> job position
        replays = 0
        for key, config in zip(keys, configs):
            if key in self.cache or key in planned:
                continue
            skey = policies = None
            if self.incremental:
                policies = config.instruction_policies()
                skey = semantic_key(policies)
                hit = self.semantic_cache.get(skey)
                if hit is not None:
                    # Same executable as an earlier config under
                    # different flags: a cache hit, not a new evaluation.
                    self.cache[key] = hit
                    continue
                if skey in by_skey:
                    planned[key] = by_skey[skey]
                    continue
            digest = ""
            if self.store is not None:
                from repro.store import policy_digest

                if policies is None:
                    policies = config.instruction_policies()
                digest = policy_digest(policies, self.lattice)
                stored = self.store.get(self._store_id(), digest)
                if stored is not None:
                    self._replay(key, skey, digest, stored)
                    replays += 1
                    continue
            if skey is not None:
                by_skey[skey] = len(jobs)
            planned[key] = len(jobs)
            jobs.append(PlannedJob(skey, digest, policies, config))

        start = time.perf_counter()
        outcomes = self.executor.evaluate_batch(jobs)
        if jobs:
            self._record(jobs, outcomes, time.perf_counter() - start)
        for key, pos in planned.items():
            self.cache[key] = outcomes[pos]
        hits = len(keys) - len(jobs) - replays
        if hits:
            self.cache_hits += hits
            self.telemetry.count("eval.cache_hits", hits)
        return [self.cache[key] for key in keys]

    def _replay(self, key, skey, digest: str, stored: EvalOutcome) -> None:
        """Answer a config decided in a previous run from the store.  It
        counts toward evaluations only the first time this campaign
        sees it (see ``decided``)."""
        self.cache[key] = stored
        if skey is not None:
            self.semantic_cache[skey] = stored
        if digest not in self.decided:
            self.decided.add(digest)
            self.evaluations += 1
        self.store_hits += 1
        if self.telemetry.enabled:
            self.telemetry.count("store.hits")
            self.telemetry.emit("store.hit", key=digest[:12])

    def _record(self, jobs: list, outcomes: list, wall: float) -> None:
        """Account for executed *jobs*: caches, counters, store, telemetry."""
        telemetry = self.telemetry
        # Jobs may run concurrently, so each is charged the batch wall
        # amortized over its members.
        per_job = wall / len(jobs)
        for job, outcome in zip(jobs, outcomes):
            if job.skey is not None:
                self.semantic_cache[job.skey] = outcome
            self.evaluations += 1
            self.executions += 1
            if job.digest:
                self.decided.add(job.digest)
                self.store.put(
                    self._store_id(), job.digest, outcome, wall_s=per_job
                )
            if telemetry.enabled:
                passed, cycles, trap, reason = outcome
                if reason in (REASON_TRAP, REASON_TIMEOUT):
                    telemetry.emit("vm.trap", message=trap)
                telemetry.emit(
                    "eval.config", passed=passed, cycles=cycles, trap=trap,
                    reason=reason, wall_s=round(per_job, 6),
                )

    def close(self) -> None:
        """Release the executor (worker pool, coordinator channel)."""
        self.executor.close()

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
