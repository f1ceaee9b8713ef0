"""Job records and the admission-controlled registry.

A :class:`Job` is one submitted search campaign: its identity (id,
tenant, workload), its immutable options, and its mutable lifecycle
state.  The :class:`JobRegistry` is the service's source of truth for
every job it has ever accepted; it enforces the per-tenant *queued
jobs* quota at admission time (the per-tenant *in-flight lease* quota
lives in the coordinator's scheduler, where leases are granted).

States and their transitions::

    queued ──> running ──> complete
                  │  └───> failed
                  └──────> cancelled      (cancel may also land while
    queued ─────────────> cancelled        still queued)

Terminal states are ``complete``/``failed``/``cancelled``; a terminal
job keeps its stats and result row forever (the registry is the
service's job history as well as its queue).
"""

from __future__ import annotations

import threading
import time

#: lifecycle states
QUEUED = "queued"
RUNNING = "running"
COMPLETE = "complete"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset({COMPLETE, FAILED, CANCELLED})
ACTIVE_STATES = frozenset({QUEUED, RUNNING})


class QuotaError(RuntimeError):
    """A tenant tried to queue more jobs than its admission quota."""


class Job:
    """One submitted campaign and everything the service knows about it."""

    def __init__(
        self,
        job_id: str,
        tenant: str,
        workload: str,
        klass: str,
        options: dict,
        quantum: float = 1.0,
    ) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.workload = workload
        self.klass = klass
        self.options = dict(options)   # JSON form (campaign options_to_dict)
        self.quantum = quantum         # DRR share of the worker pool
        self.state = QUEUED
        self.error = ""
        self.submitted = time.time()
        self.started = 0.0
        self.finished = 0.0
        self.path = ""                 # campaign directory, set at start
        #: set to ask the job's engine thread to stop at the next batch;
        #: the coordinator-side channel abort unblocks a batch already
        #: in flight.
        self.cancel_event = threading.Event()
        #: live engine handle while running (its evaluator counters are
        #: plain ints, safe to read cross-thread for status reports).
        self.engine = None
        self.thread: threading.Thread | None = None
        # terminal-state artifacts
        self.result_row: dict | None = None
        self.config_text = ""
        self.tested = 0
        self.executions = 0
        self.store_replays = 0

    # -- views ---------------------------------------------------------------

    def _live_counter(self, name: str) -> int:
        engine = self.engine
        return getattr(engine.evaluator, name) if engine is not None else 0

    def status(self) -> dict:
        """JSON-safe snapshot for ``status``/``list`` replies."""
        running = self.state == RUNNING
        return {
            "job": self.job_id,
            "tenant": self.tenant,
            "workload": self.workload,
            "klass": self.klass,
            "state": self.state,
            "error": self.error,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "path": self.path,
            "tested": (
                self._live_counter("evaluations") if running else self.tested
            ),
            "executions": (
                self._live_counter("executions") if running else self.executions
            ),
            "store_hits": (
                self._live_counter("store_hits") if running
                else self.store_replays
            ),
        }

    def result_reply(self) -> dict:
        """The ``result`` frame body: status plus the final artifacts."""
        reply = self.status()
        reply["row"] = self.result_row
        reply["config"] = self.config_text
        return reply


class JobRegistry:
    """Thread-safe job table with per-tenant admission quotas.

    ``max_queued`` caps how many *active* (queued or running) jobs one
    tenant may hold; None disables the cap.  Quota rejection happens at
    admission so a tenant flooding ``submit`` cannot pile up unbounded
    engine threads — contrast with the in-flight lease quota, which is
    enforced lease-by-lease in the coordinator's scheduler.
    """

    def __init__(self, max_queued: int | None = None) -> None:
        self.max_queued = max_queued
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._seq = 0

    def admit(self, tenant: str, workload: str, klass: str,
              options: dict, quantum: float = 1.0) -> Job:
        with self._lock:
            if self.max_queued is not None:
                active = sum(
                    1 for job in self._jobs.values()
                    if job.tenant == tenant and job.state in ACTIVE_STATES
                )
                if active >= self.max_queued:
                    raise QuotaError(
                        f"tenant {tenant!r} already has {active} active "
                        f"job(s) (quota {self.max_queued})"
                    )
            self._seq += 1
            job = Job(
                f"j{self._seq}", tenant, workload, klass, options, quantum
            )
            self._jobs[job.job_id] = job
            return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All jobs in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: int(j.job_id[1:]))

    def active(self) -> list[Job]:
        return [job for job in self.jobs() if job.state in ACTIVE_STATES]
