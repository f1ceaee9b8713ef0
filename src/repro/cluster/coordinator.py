"""The cluster coordinator: lease-based dispatch over TCP workers.

:class:`BaseLeaseEvaluator` is the lease-channel executor of the
:class:`~repro.search.evaluator.Evaluator` front: the front hands it the
jobs that survived dedup, and it shards them across however many
``repro worker`` processes are currently connected.  The engine — and
therefore the whole search trajectory — cannot tell the difference:
dedup, store replay and counters stay in the front, outcomes come back
in submission order, and every evaluation a worker runs goes through
the shared :func:`~repro.search.evaluator.execute_config` kernel, so
the final configuration is byte-identical to a serial search
(differential-tested).

Channels
--------
Work is organised into *channels*, one per campaign (:class:`_Channel`),
each with its own pending queue, backoff list, retry policy and
in-flight batch, and each task frame names the workload of its channel.
A standalone ``--cluster`` search is a :class:`ClusterEvaluator`: one
channel on a coordinator it owns.  The :mod:`repro.service` job server
opens one channel per submitted job on a coordinator it owns, so one
worker pool serves all of them.  Leases are multiplexed fairly with
deficit round-robin: each ready channel accumulates ``quantum`` credit
per scheduler pass and spends one credit per granted lease, so a large
campaign cannot starve a small one, and per-tenant in-flight quotas
(``max_inflight``) cap how much of the pool any one tenant can hold at
once.

Threading model
---------------
The asyncio TCP server runs on one dedicated background thread
(:meth:`_Coordinator.serve`); all coordinator state (workers, channels,
leases, queues) lives on that loop and is never touched from an engine
thread.  ``evaluate_batch`` submits a batch with
``run_coroutine_threadsafe`` and blocks, draining its channel's event
queue into the telemetry hub while it waits — so every trace keeps a
single writer (that engine's thread) and ``--progress`` still renders
worker occupancy live.

Fault tolerance
---------------
Liveness is heartbeat-based: any worker message refreshes its deadline,
and a worker silent for ``lease_timeout`` seconds — or whose connection
reaches EOF, the usual fate of a SIGKILLed process — is declared lost.
Its leases are requeued under the channel's
:class:`~repro.search.retry.RetryPolicy` (exponential per-task backoff);
a task that keeps losing its worker through every retry is classified
``worker_crash`` exactly like a fork-pool crash.  A worker that leaves
with ``bye`` while holding a lease (it could not build the task's
workload) returns it: the task is requeued at once and not charged.
Results are first-wins: if a presumed-dead worker resurfaces and
reports a requeued task, the duplicate is ignored — evaluations are
deterministic, so either copy is the same outcome — and re-connected
workers never re-execute configs the store already decided, because the
front filters decided configs out before tasks are ever created.
Cancelling a job aborts only its channel: its queued tasks are dropped,
its leases are released from the quota ledger, and every other channel
keeps running untouched.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import threading
from collections import deque

from repro.cluster.protocol import (
    BYE,
    CANCEL,
    ERROR,
    EVENTS,
    HEARTBEAT,
    HELLO,
    LEASE,
    LIST,
    OK,
    PROTOCOL_VERSION,
    RESULT,
    ROLE_CLIENT,
    STATUS,
    SUBMIT,
    REJECTED,
    TASK,
    WAIT,
    WELCOME,
    ProtocolError,
    outcome_from_wire,
    pack_frame,
    parse_address,
    recv_frame_async,
    send_frame_async,
    unsupported_frame,
)
from repro.search.results import EvalOutcome
from repro.search.retry import RetryPolicy
from repro.telemetry import NULL_TELEMETRY

#: how long an idle worker is told to wait before polling for work again
#: (doubles as the heartbeat that keeps it alive while the queue is dry).
POLL_DELAY = 0.02


class ClusterError(RuntimeError):
    """Coordinator-side setup or dispatch failure."""


class JobCancelled(RuntimeError):
    """A campaign's channel was aborted while a batch was in flight.

    Raised out of ``evaluate_batch`` on the engine thread of the
    cancelled job (and only that job); the service turns it into a
    ``cancelled`` job state.
    """


class _Task:
    """One leased unit of work: a deduplicated configuration."""

    __slots__ = ("task_id", "index", "flags", "digest", "job", "attempts",
                 "not_before", "done", "inflight")

    def __init__(self, task_id: int, index: int, flags: dict, digest: str,
                 job: str):
        self.task_id = task_id
        self.index = index          # position in the owning batch
        self.flags = flags          # wire form: node id -> policy char
        self.digest = digest
        self.job = job              # owning channel id
        self.attempts = 0           # crashes so far (not normal failures)
        self.not_before = 0.0       # backoff gate for requeued tasks
        self.done = False
        self.inflight = False       # currently leased (quota accounting)


class _Batch:
    """One engine batch in flight on the loop."""

    __slots__ = ("outcomes", "remaining", "done")

    def __init__(self, size: int, loop) -> None:
        self.outcomes: list = [None] * size
        self.remaining = size
        self.done = loop.create_future()

    def finish_one(self, index: int, outcome: EvalOutcome) -> None:
        self.outcomes[index] = outcome
        self.remaining -= 1
        if self.remaining == 0 and not self.done.done():
            self.done.set_result(None)

    def abort(self, exc: BaseException) -> None:
        if not self.done.done():
            self.done.set_exception(exc)


class _Channel:
    """Loop-side state for one campaign sharing the worker pool."""

    __slots__ = ("job_id", "tenant", "quantum", "deficit", "retry", "info",
                 "events", "pending", "delayed", "batch", "leased")

    def __init__(self, job_id: str, tenant: str, quantum: float,
                 retry: RetryPolicy, info: dict, events: deque) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.quantum = quantum      # DRR credit earned per scheduler pass
        self.deficit = 0.0          # unspent credit (reset while idle)
        self.retry = retry          # for tasks whose worker is lost
        self.info = info            # workload fields merged into tasks
        self.events = events        # (kind, fields) — drained engine-side
        self.pending: deque[_Task] = deque()
        self.delayed: list[_Task] = []
        self.batch: _Batch | None = None
        self.leased = 0             # tasks of this channel currently leased

    def promote(self, now: float) -> None:
        """Move backoff-expired tasks back onto the pending queue."""
        if not self.delayed:
            return
        still_delayed = []
        for task in self.delayed:
            if task.done:
                continue
            if task.not_before <= now:
                self.pending.append(task)
            else:
                still_delayed.append(task)
        self.delayed[:] = still_delayed

    def pop_ready(self) -> _Task | None:
        while self.pending:
            task = self.pending.popleft()
            if not task.done:
                return task
        return None


class _WorkerConn:
    """Loop-side connection state for one network worker."""

    __slots__ = ("wid", "name", "writer", "leases", "last_seen", "reaped")

    def __init__(self, wid: str, name: str, writer, now: float) -> None:
        self.wid = wid
        self.name = name
        self.writer = writer
        self.leases: dict[int, _Task] = {}
        self.last_seen = now
        self.reaped = False


class _Coordinator:
    """The coordinator: its event-loop thread, and everything that runs
    on it.  Only :meth:`serve`, :meth:`call` and :meth:`close` are meant
    for other threads."""

    def __init__(
        self,
        lease_timeout: float,
        events: deque,
        client_api=None,
        max_inflight: int | None = None,
        lease_log: bool = False,
    ) -> None:
        self.lease_timeout = lease_timeout
        self.events = events        # global (kind, fields) queue
        #: service hook answering client job frames (None = worker-only)
        self.client_api = client_api
        #: per-tenant cap on simultaneously leased tasks (None = off;
        #: channels with an empty tenant are never capped)
        self.max_inflight = max_inflight
        self.workers: dict[str, _WorkerConn] = {}
        self.channels: dict[str, _Channel] = {}
        self._ring: deque[str] = deque()   # DRR visit order over channels
        self.tasks: dict[int, _Task] = {}
        self.tenant_inflight: dict[str, int] = {}
        #: (job_id, tenant, tenant_inflight_after_grant) per granted
        #: lease, recorded only when requested — the fairness tests and
        #: the service bench read interleaving straight off this.
        self.lease_log: list | None = [] if lease_log else None
        self.closing = False
        self.server = None
        self.sweeper = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.address = ""
        self._worker_seq = 0
        self._task_seq = 0
        # stats (read engine-side after drain; plain ints, GIL-safe)
        self.workers_seen = 0
        self.leases_granted = 0
        self.requeues = 0
        self.crashed_tasks = 0

    # -- thread-side lifecycle -------------------------------------------------

    def serve(self, bind: str, thread_name: str) -> None:
        """Start the event loop on its own thread and listen on *bind*
        (``HOST:PORT``; port 0 picks one, see :attr:`address`)."""
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name=thread_name, daemon=True
        )
        self._thread.start()
        try:
            host, port = self.call(self._start(*parse_address(bind)), 10)
        except BaseException:
            self._stop_loop()
            raise
        self.address = f"{host}:{port}"

    def call(self, coro, timeout: float = 5.0):
        """Run *coro* on the loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self) -> None:
        """Dismiss every worker, stop listening, and stop the loop."""
        try:
            self.call(self._shutdown())
        except (concurrent.futures.TimeoutError, RuntimeError):
            pass
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        if not self.loop.is_running():
            self.loop.close()

    # -- loop-side lifecycle ---------------------------------------------------

    def event(self, kind: str, **fields) -> None:
        self.events.append((kind, fields))

    def job_event(self, job_id: str, kind: str, **fields) -> None:
        """Route an event to the owning channel's queue (so it lands in
        that job's trace); fall back to the global queue if the channel
        is already gone."""
        channel = self.channels.get(job_id)
        if channel is not None:
            if job_id:
                fields.setdefault("job", job_id)
            channel.events.append((kind, fields))
        else:
            self.events.append((kind, fields))

    async def _start(self, host: str, port: int) -> tuple[str, int]:
        self.server = await asyncio.start_server(self._handle, host, port)
        self.sweeper = asyncio.ensure_future(self._sweep())
        bound = self.server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _shutdown(self) -> None:
        self.closing = True
        if self.sweeper is not None:
            self.sweeper.cancel()
        for job_id in list(self.channels):
            self._abort_channel(job_id, "coordinator shutting down")
        for worker in list(self.workers.values()):
            worker.reaped = True  # a closed connection is not a lost worker
            with contextlib.suppress(Exception):
                worker.writer.write(pack_frame({"type": BYE}))
            with contextlib.suppress(Exception):
                worker.writer.close()
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()

    # -- channel registry (loop thread) --------------------------------------

    async def open_channel(self, job_id: str, tenant: str, quantum: float,
                           retry: RetryPolicy, info: dict,
                           events: deque) -> None:
        if job_id in self.channels:
            raise ClusterError(f"channel {job_id!r} already registered")
        self.channels[job_id] = _Channel(
            job_id, tenant, max(0.05, float(quantum)), retry, info, events
        )
        self._ring.append(job_id)

    async def close_channel(self, job_id: str) -> None:
        self._abort_channel(job_id, "channel closed")
        self.channels.pop(job_id, None)
        with contextlib.suppress(ValueError):
            self._ring.remove(job_id)

    async def cancel_channel(self, job_id: str) -> bool:
        """Abort a channel's queues and in-flight batch (the channel
        stays registered until its owner closes it)."""
        return self._abort_channel(job_id, "job cancelled")

    def _abort_channel(self, job_id: str, why: str) -> bool:
        channel = self.channels.get(job_id)
        if channel is None:
            return False
        for task in list(self.tasks.values()):
            if task.job != job_id:
                continue
            self._release(task)
            task.done = True
            del self.tasks[task.task_id]
        channel.pending.clear()
        channel.delayed.clear()
        batch, channel.batch = channel.batch, None
        if batch is not None:
            batch.abort(JobCancelled(f"{job_id or 'search'}: {why}"))
            return True
        return False

    # -- batch dispatch (loop thread) ---------------------------------------

    async def run_batch(self, job_id: str, payload: list) -> list:
        """Queue *payload* (``(flags, digest)`` pairs) as leasable tasks
        on *job_id*'s channel and wait until every one is decided."""
        channel = self.channels.get(job_id)
        if channel is None:
            raise ClusterError(f"no channel {job_id!r}")
        loop = asyncio.get_running_loop()
        batch = _Batch(len(payload), loop)
        channel.batch = batch
        tasks = []
        for index, (flags, digest) in enumerate(payload):
            self._task_seq += 1
            task = _Task(self._task_seq, index, flags, digest, job_id)
            self.tasks[task.task_id] = task
            channel.pending.append(task)
            tasks.append(task)
        try:
            await batch.done
        finally:
            if channel.batch is batch:
                channel.batch = None
                channel.pending.clear()
                channel.delayed.clear()
            for task in tasks:
                self._release(task)
                task.done = True
                self.tasks.pop(task.task_id, None)
        return batch.outcomes

    def _quota_blocked(self, channel: _Channel) -> bool:
        if self.max_inflight is None or not channel.tenant:
            return False
        return (
            self.tenant_inflight.get(channel.tenant, 0) >= self.max_inflight
        )

    def _next_task(self) -> _Task | None:
        """Deficit round-robin over every ready channel.

        Each visited channel earns ``quantum`` credit and a lease costs
        one credit, so with the default quantum of 1.0 ready channels
        alternate strictly; fractional quanta throttle a channel to a
        share of the pool.  Idle channels forfeit their credit (classic
        DRR, so a long-idle campaign cannot burst later), and channels
        whose tenant is at its in-flight quota are skipped without
        earning credit.
        """
        ring = self._ring
        if not ring:
            return None
        now = asyncio.get_running_loop().time()
        for _ in range(2 * len(ring)):
            job_id = ring[0]
            ring.rotate(-1)
            channel = self.channels.get(job_id)
            if channel is None:
                continue
            channel.promote(now)
            if not channel.pending:
                channel.deficit = 0.0
                continue
            if self._quota_blocked(channel):
                continue
            channel.deficit += channel.quantum
            if channel.deficit < 1.0:
                continue
            task = channel.pop_ready()
            if task is None:
                channel.deficit = 0.0
                continue
            channel.deficit -= 1.0
            return task
        return None

    # -- connection handling (loop thread) ----------------------------------

    async def _handle(self, reader, writer) -> None:
        worker = None
        try:
            role, worker = await self._handshake(reader, writer)
            if role == ROLE_CLIENT:
                await self._serve_client(reader, writer)
            elif worker is not None:
                await self._serve(worker, reader, writer)
        except (ProtocolError, ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            if worker is not None:
                self._reap(worker, "disconnect")
            with contextlib.suppress(Exception):
                writer.close()

    async def _handshake(self, reader, writer):
        hello = await recv_frame_async(reader)
        if hello is None or hello.get("type") != HELLO:
            return None, None
        if hello.get("version") != PROTOCOL_VERSION:
            # Structured refusal, then a clean close instead of silently
            # dropping the connection.
            await send_frame_async(writer, unsupported_frame(hello))
            return None, None
        if hello.get("role") == ROLE_CLIENT:
            if self.client_api is None:
                await send_frame_async(writer, {
                    "type": ERROR,
                    "message": "this coordinator does not accept job "
                               "submissions (start it with --service)",
                })
                return None, None
            await send_frame_async(writer, {
                "type": WELCOME, "version": PROTOCOL_VERSION, "service": True,
            })
            return ROLE_CLIENT, None
        self._worker_seq += 1
        wid = f"w{self._worker_seq}"
        name = f"{hello.get('host', '?')}:{hello.get('pid', '?')}"
        now = asyncio.get_running_loop().time()
        worker = _WorkerConn(wid, name, writer, now)
        self.workers[wid] = worker
        self.workers_seen += 1
        self.event("cluster.worker_join", worker=wid, name=name)
        await send_frame_async(writer, {
            "type": WELCOME,
            "version": PROTOCOL_VERSION,
            "lease_timeout": self.lease_timeout,
        })
        return None, worker

    async def _serve_client(self, reader, writer) -> None:
        """Request/response loop for a job-submission client.

        Handlers run on an executor thread, not the loop: they take the
        registry lock, start job threads, and (for cancel) block on a
        coroutine scheduled back onto this very loop — which would
        deadlock if called inline.
        """
        loop = asyncio.get_running_loop()
        while True:
            message = await recv_frame_async(reader)
            if message is None or message.get("type") == BYE:
                return
            kind = message.get("type")
            if kind not in (SUBMIT, STATUS, RESULT, CANCEL, LIST):
                raise ProtocolError(f"unexpected client message {kind!r}")
            try:
                reply = await loop.run_in_executor(
                    None, self.client_api.handle_client, message
                )
            except Exception as exc:  # service bug: report, keep serving
                reply = {
                    "type": REJECTED,
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            await send_frame_async(writer, reply)

    async def _serve(self, worker: _WorkerConn, reader, writer) -> None:
        while True:
            message = await recv_frame_async(reader)
            if message is None:
                return  # EOF: worker gone (reaped by caller)
            worker.last_seen = asyncio.get_running_loop().time()
            kind = message.get("type")
            if kind == LEASE:
                if self.closing:
                    await send_frame_async(writer, {"type": BYE})
                    worker.reaped = True  # clean exit: not "lost"
                    self.workers.pop(worker.wid, None)
                    return
                task = self._next_task()
                if task is None:
                    await send_frame_async(
                        writer, {"type": WAIT, "delay": POLL_DELAY}
                    )
                else:
                    self._grant(worker, task)
                    await send_frame_async(writer, {
                        "type": TASK,
                        "task": task.task_id,
                        "job": task.job,
                        "flags": task.flags,
                        "digest": task.digest,
                        **self.channels[task.job].info,
                    })
            elif kind == RESULT:
                self._complete(worker, message)
                await send_frame_async(writer, {"type": OK})
            elif kind == ERROR:
                # The worker survived but its evaluation blew up
                # (instrumentation bug, unpicklable trap, ...): treat it
                # like a crash of that one task — requeue elsewhere.
                worker.leases.pop(message.get("task"), None)
                self._task_lost(message.get("task"), "worker_error")
                await send_frame_async(writer, {"type": OK})
            elif kind == HEARTBEAT:
                self.event(
                    "cluster.heartbeat",
                    worker=worker.wid, busy=len(worker.leases),
                )
            elif kind == EVENTS:
                # One-way telemetry forwarding: merge the worker's
                # per-task events into the owning channel's queue,
                # tagged with the worker id.  The worker's own clock is
                # preserved as `worker_ts`; the engine-side drain stamps
                # the merged trace's single monotonic `ts` on emission.
                task_id = message.get("task")
                task = self.tasks.get(task_id)
                job_id = task.job if task is not None else None
                for forwarded in message.get("events", ()):
                    if not isinstance(forwarded, dict) or "kind" not in forwarded:
                        continue
                    fields = dict(forwarded)
                    event_kind = fields.pop("kind")
                    fields["worker_ts"] = fields.pop("ts", 0.0)
                    fields["worker"] = worker.wid
                    fields.setdefault("task", task_id)
                    self.job_event(job_id, event_kind, **fields)
            elif kind == BYE:
                worker.reaped = True
                self.workers.pop(worker.wid, None)
                # A leaving worker returns its leases: not a crash.
                self._requeue_leases(worker, "bye", charge=False)
                return
            else:
                raise ProtocolError(f"unexpected message {kind!r}")

    # -- lease accounting (loop thread) --------------------------------------

    def _grant(self, worker: _WorkerConn, task: _Task) -> None:
        worker.leases[task.task_id] = task
        task.inflight = True
        channel = self.channels[task.job]
        channel.leased += 1
        tenant = channel.tenant
        if tenant:
            self.tenant_inflight[tenant] = (
                self.tenant_inflight.get(tenant, 0) + 1
            )
        self.leases_granted += 1
        if self.lease_log is not None:
            self.lease_log.append(
                (task.job, tenant, self.tenant_inflight.get(tenant, 0))
            )
        self.job_event(
            task.job, "cluster.lease",
            worker=worker.wid, task=task.task_id, busy=len(worker.leases),
        )

    def _release(self, task: _Task) -> None:
        """Return a task's lease to the quota ledger (idempotent)."""
        if not task.inflight:
            return
        task.inflight = False
        channel = self.channels.get(task.job)
        if channel is not None:
            channel.leased = max(0, channel.leased - 1)
            if channel.tenant:
                left = self.tenant_inflight.get(channel.tenant, 0) - 1
                if left > 0:
                    self.tenant_inflight[channel.tenant] = left
                else:
                    self.tenant_inflight.pop(channel.tenant, None)

    def _complete(self, worker: _WorkerConn, message: dict) -> None:
        task_id = message.get("task")
        worker.leases.pop(task_id, None)
        task = self.tasks.get(task_id)
        if task is None or task.done:
            return  # late duplicate from a presumed-dead worker: first wins
        self._release(task)
        task.done = True
        batch = self.channels[task.job].batch
        if batch is not None:
            batch.finish_one(task.index, outcome_from_wire(message["outcome"]))

    def _task_lost(self, task_id, reason: str, charge: bool = True) -> None:
        """Requeue a task its worker lost; a *charge*-d loss counts
        against the channel's retry budget."""
        task = self.tasks.get(task_id)
        if task is None or task.done:
            return
        self._release(task)
        channel = self.channels[task.job]
        if charge:
            task.attempts += 1
            if channel.retry.exhausted(task.attempts):
                # Kept killing (or losing) its executor: classify, descend.
                self.crashed_tasks += 1
                self.job_event(
                    task.job, "eval.worker_crash", attempts=task.attempts
                )
                task.done = True
                if channel.batch is not None:
                    channel.batch.finish_one(
                        task.index,
                        channel.retry.crash_outcome(
                            task.attempts, what="cluster worker died"
                        ),
                    )
                return
            now = asyncio.get_running_loop().time()
            task.not_before = now + channel.retry.delay(task.attempts)
            channel.delayed.append(task)
        else:
            channel.pending.appendleft(task)
        self.requeues += 1
        self.job_event(
            task.job, "cluster.requeue",
            task=task.task_id, attempts=task.attempts, reason=reason,
        )

    def _requeue_leases(self, worker: _WorkerConn, reason: str,
                        charge: bool = True) -> None:
        leases = list(worker.leases.values())
        worker.leases.clear()
        for task in leases:
            self._task_lost(task.task_id, reason, charge)

    def _reap(self, worker: _WorkerConn, reason: str) -> None:
        """A worker is gone (EOF, protocol error, expired heartbeat)."""
        if worker.reaped:
            return
        worker.reaped = True
        self.workers.pop(worker.wid, None)
        self.event(
            "cluster.worker_lost",
            worker=worker.wid, leases=len(worker.leases), reason=reason,
        )
        self._requeue_leases(worker, reason)

    async def _sweep(self) -> None:
        """Expire workers whose heartbeats stopped (network partition,
        frozen process — a SIGKILL usually surfaces as EOF instead)."""
        interval = max(0.01, min(1.0, self.lease_timeout / 4))
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for worker in list(self.workers.values()):
                if now - worker.last_seen > self.lease_timeout:
                    self._reap(worker, "expired")
                    with contextlib.suppress(Exception):
                        worker.writer.close()


class BaseLeaseEvaluator:
    """Lease-channel executor: runs each batch's jobs as leases on one
    channel (*job_id*) of a coordinator.

    A service job borrows the service's coordinator; a standalone
    search's :class:`ClusterEvaluator` owns one.  The channel's events
    (leases, requeues, forwarded worker telemetry) are drained into
    *telemetry* from the engine thread, the trace's single writer.  A
    set *cancel_event* raises :class:`JobCancelled` at the next batch;
    the owner aborts a batch already in flight through the coordinator.
    """

    def __init__(
        self,
        coord: _Coordinator,
        job_id: str,
        workload,
        telemetry=None,
        incremental: bool = True,
        retry: RetryPolicy | None = None,
        tenant: str = "",
        quantum: float = 1.0,
        cancel_event=None,
        events: deque | None = None,
    ) -> None:
        from repro.store import workload_id

        self.job_id = job_id
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._coord = coord
        self._cancel = cancel_event
        self._events = events if events is not None else deque()
        self._closed = False
        name = getattr(workload, "name", workload.program.name)
        klass = getattr(workload, "klass", "")
        if klass and name.endswith("." + klass):
            name = name[: -(len(klass) + 1)]
        # Task fields: workers build (and cache) the workload each task
        # names, so one pool serves every channel concurrently.
        info = {
            "workload": name,
            "klass": klass,
            "workload_id": workload_id(workload),
            "incremental": incremental,
        }
        coord.call(coord.open_channel(
            job_id, tenant, quantum, retry or RetryPolicy(), info,
            self._events,
        ), 10)

    def _drain_events(self) -> None:
        """Emit queued coordinator events from the engine thread (the
        trace's single writer)."""
        telemetry = self.telemetry
        events = self._events
        while events:
            kind, fields = events.popleft()
            if not telemetry.enabled:
                continue
            if kind == "eval.worker_crash":
                telemetry.count("eval.worker_crashes")
            elif kind == "cluster.requeue":
                telemetry.count("cluster.requeues")
            elif kind == "cluster.lease":
                telemetry.count("cluster.leases")
            telemetry.emit(kind, **fields)

    def evaluate_batch(self, jobs: list) -> list[EvalOutcome]:
        """Lease *jobs* to the connected workers (waiting for the first
        one to join if need be); outcomes in job order."""
        if self._closed:
            raise ClusterError("evaluator is closed")
        if self._cancel is not None and self._cancel.is_set():
            raise JobCancelled(f"{self.job_id}: job cancelled")
        if not jobs:
            self._drain_events()
            return []
        payload = [
            ({nid: policy.value for nid, policy in job.config.flags.items()},
             job.digest)
            for job in jobs
        ]
        future = asyncio.run_coroutine_threadsafe(
            self._coord.run_batch(self.job_id, payload), self._coord.loop
        )
        try:
            while True:
                try:
                    return future.result(0.05)
                except concurrent.futures.TimeoutError:
                    self._drain_events()  # keep progress/traces live
        finally:
            self._drain_events()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(Exception):  # coordinator already closed
            self._coord.call(self._coord.close_channel(self.job_id))
        self._drain_events()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ClusterEvaluator(BaseLeaseEvaluator):
    """Lease-channel executor on a coordinator of its own: a standalone
    ``--cluster`` search.

    Parameters mirror :class:`~repro.search.parallel.ParallelEvaluator`
    where they overlap; the extras:

    bind:
        ``HOST:PORT`` to listen on (port 0 = let the OS pick; the bound
        address is in :attr:`address`).
    retry:
        Shared :class:`~repro.search.retry.RetryPolicy` for tasks whose
        worker dies (requeue with exponential backoff, classify as
        ``worker_crash`` on exhaustion).
    lease_timeout:
        Seconds of worker silence (no result/heartbeat/poll) before its
        leases are requeued and the connection is declared lost.
        Workers heartbeat at a quarter of this, so only a dead — not
        merely busy — worker expires.

    Workers may connect at any time, including mid-search; a batch with
    no connected workers simply waits for the first one to join.  The
    coordinator's own events (joins, losses, heartbeats) share the
    channel's queue, so they land in the search's trace.
    """

    def __init__(
        self,
        workload,
        bind: str = "127.0.0.1:0",
        telemetry=None,
        incremental: bool = True,
        retry: RetryPolicy | None = None,
        lease_timeout: float = 30.0,
    ) -> None:
        events: deque = deque()
        coord = _Coordinator(lease_timeout, events)
        coord.serve(bind, "repro-cluster")
        try:
            super().__init__(
                coord, "", workload, telemetry=telemetry,
                incremental=incremental, retry=retry, events=events,
            )
        except BaseException:
            coord.close()
            raise

    # -- coordinator stats ---------------------------------------------------

    @property
    def address(self) -> str:
        """The bound ``host:port`` workers should connect to."""
        return self._coord.address

    @property
    def workers_connected(self) -> int:
        return len(self._coord.workers)

    @property
    def workers_seen(self) -> int:
        return self._coord.workers_seen

    @property
    def leases_granted(self) -> int:
        return self._coord.leases_granted

    @property
    def requeues(self) -> int:
        return self._coord.requeues

    @property
    def crashed_configs(self) -> int:
        return self._coord.crashed_tasks

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._coord.close()
        self._drain_events()
