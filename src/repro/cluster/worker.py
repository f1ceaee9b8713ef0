"""The network worker: a stateless evaluation client.

``repro worker HOST:PORT`` connects to a coordinator, then loops: lease
a task, execute it through the shared
:func:`~repro.search.evaluator.execute_config` kernel, report the
outcome.  A lease with no task ready is parked on the coordinator and
answered when one is, so an idle worker blocks instead of polling.
Each ``task`` frame names its own ``workload``/``klass``/
``workload_id``, so one worker serves every campaign on the coordinator.
Workloads (and their evaluation caches, one
:class:`~repro.search.evaluator.IncrementalState` each) are rebuilt
*locally* on first use and cached per ``workload_id`` — programs are
compiled deterministically, so the coordinator only ships a name, and the
content-addressed ``workload_id`` catches any version skew between the
two hosts: a worker that cannot reproduce it leaves with ``bye``, which
returns the lease uncharged.  All search state lives on the coordinator;
a worker can be killed, restarted, or added mid-search without changing
the result.

A heartbeat thread sends one-way ``heartbeat`` frames at a quarter of
the coordinator's lease timeout so a long-running evaluation does not
look like a dead worker.  Heartbeats are never answered — the main
loop's request/response pairing stays strict.

Fault injection: when the environment variable named by
:data:`EXIT_SENTINEL_VAR` points at an existing file, the worker unlinks
the file and ``os._exit(1)``-s right before executing its next task —
the crash-exactly-once idiom the differential and CI smoke tests use to
prove lost leases are requeued (the unlink happens first, so a respawned
or sibling worker does not crash again).
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.cluster.protocol import (
    BYE,
    ERROR,
    EVENTS,
    HEARTBEAT,
    HELLO,
    LEASE,
    OK,
    PROTOCOL_VERSION,
    RESULT,
    ROLE_WORKER,
    TASK,
    UNSUPPORTED,
    WAIT,
    WELCOME,
    ProtocolError,
    dial,
    outcome_to_wire,
    pack_frame,
    recv_frame,
    send_frame,
)
from repro.config.generator import build_tree
from repro.config.model import Config, Policy
from repro.search.evaluator import IncrementalState, execute_config
from repro.telemetry import ListSink, Telemetry
from repro.workloads import make_workload

#: environment variable holding a sentinel-file path; see module docstring.
EXIT_SENTINEL_VAR = "REPRO_WORKER_EXIT_SENTINEL"


class WorkerError(RuntimeError):
    """Handshake refusal or workload mismatch — not worth retrying."""


def _maybe_crash() -> None:
    sentinel = os.environ.get(EXIT_SENTINEL_VAR)
    if sentinel and os.path.exists(sentinel):
        try:
            os.unlink(sentinel)  # crash exactly once across restarts
        except OSError:
            pass
        os._exit(1)


def _handshake(sock: socket.socket) -> dict:
    send_frame(sock, {
        "type": HELLO,
        "version": PROTOCOL_VERSION,
        "role": ROLE_WORKER,
        "host": socket.gethostname(),
        "pid": os.getpid(),
    })
    welcome = recv_frame(sock)
    if welcome is None:
        raise WorkerError("coordinator closed the connection during handshake")
    if welcome.get("type") == UNSUPPORTED:
        raise WorkerError(
            f"{welcome.get('message', 'protocol version refused')} "
            f"(coordinator supports {welcome.get('supported')})"
        )
    if welcome.get("type") == ERROR:
        raise WorkerError(welcome.get("message", "handshake refused"))
    if welcome.get("type") != WELCOME:
        raise ProtocolError(f"expected welcome, got {welcome.get('type')!r}")
    return welcome


def _build(name: str, klass: str, expected_id: str, telemetry) -> tuple:
    """(workload, tree, evaluation state) for the workload a task names,
    validated against the coordinator's content-addressed id so version
    skew between hosts surfaces as a refusal rather than wrong results."""
    from repro.store import workload_id

    workload = make_workload(name, klass or "W")
    local_id = workload_id(workload)
    if local_id != expected_id:
        raise WorkerError(
            f"workload {name!r} class {klass!r} builds to id "
            f"{local_id[:12]} here but the coordinator expects "
            f"{expected_id[:12]} — version skew between hosts"
        )
    state = IncrementalState(workload, telemetry)
    return workload, build_tree(workload.program), state


def _reply(sock, send_lock, events_sink, message: dict) -> None:
    """Send a task's result/error with its buffered telemetry in one write.

    The one-way ``events`` frame goes first, so the coordinator merges
    the evidence into its trace ahead of the outcome it explains, and in
    the same ``sendall``, so the reply is never two TCP writes.  An empty
    buffer sends no ``events`` frame.
    """
    wire = pack_frame(message)
    if events_sink.events:
        wire = pack_frame({
            "type": EVENTS, "task": message["task"],
            "events": list(events_sink.events),
        }) + wire
        events_sink.events.clear()
    with send_lock:
        sock.sendall(wire)


class _Heartbeat(threading.Thread):
    """One-way keepalives under the shared send lock."""

    def __init__(self, sock, lock: threading.Lock, interval: float) -> None:
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self.sock = sock
        self.lock = lock
        self.interval = interval
        self.stopping = threading.Event()

    def run(self) -> None:
        while not self.stopping.wait(self.interval):
            try:
                with self.lock:
                    send_frame(self.sock, {"type": HEARTBEAT})
            except OSError:
                return  # connection gone; main loop will notice too

    def stop(self) -> None:
        self.stopping.set()


def run_worker(
    address: str,
    max_tasks: int | None = None,
    connect_retries: int = 50,
    connect_backoff: float = 0.1,
) -> dict:
    """Serve one coordinator until it says ``bye`` (or *max_tasks* runs
    out); returns ``{"tasks": n, "workload": names}`` run statistics."""
    try:
        sock = dial(address, connect_retries, connect_backoff)
    except OSError as exc:
        raise WorkerError(
            f"cannot reach coordinator at {address}: {exc}"
        ) from None
    send_lock = threading.Lock()
    heartbeat = None
    tasks_done = 0
    builds: dict = {}   # workload_id -> (workload, tree, state)
    try:
        welcome = _handshake(sock)
        # Local telemetry buffer: per-task events (the evaluation's
        # eval.remote and its cache counters) travel to the coordinator
        # with the task's reply so the search's trace covers worker-side
        # activity too.
        events_sink = ListSink()
        wtel = Telemetry(sinks=[events_sink])
        interval = max(0.005, float(welcome.get("lease_timeout", 30.0)) / 4)
        heartbeat = _Heartbeat(sock, send_lock, interval)
        heartbeat.start()
        while max_tasks is None or tasks_done < max_tasks:
            with send_lock:
                send_frame(sock, {"type": LEASE})
            reply = recv_frame(sock)
            if reply is None or reply.get("type") == BYE:
                break
            kind = reply.get("type")
            if kind == WAIT:
                time.sleep(float(reply.get("delay", 0)))
                continue
            if kind != TASK:
                raise ProtocolError(f"expected task/wait/bye, got {kind!r}")
            _maybe_crash()
            key = reply["workload_id"]
            if key not in builds:
                builds[key] = _build(
                    reply["workload"], reply.get("klass", ""), key, wtel
                )
            workload, tree, state = builds[key]
            flags = {
                nid: Policy(policy) for nid, policy in reply["flags"].items()
            }
            config = Config(tree, flags)
            started = time.perf_counter()
            try:
                outcome = execute_config(
                    workload, config, state, telemetry=wtel
                )
            except Exception as exc:  # an evaluation bug, not a protocol one
                _reply(sock, send_lock, events_sink, {
                    "type": ERROR,
                    "task": reply["task"],
                    "message": f"{type(exc).__name__}: {exc}",
                })
            else:
                wtel.emit(
                    "eval.remote",
                    task=reply["task"],
                    passed=outcome.passed,
                    cycles=outcome.cycles,
                    trap=outcome.trap,
                    reason=outcome.reason,
                    wall_s=round(time.perf_counter() - started, 6),
                )
                _reply(sock, send_lock, events_sink, {
                    "type": RESULT,
                    "task": reply["task"],
                    "outcome": outcome_to_wire(outcome),
                })
                tasks_done += 1
            ack = recv_frame(sock)
            if ack is None:
                break
            if ack.get("type") != OK:
                raise ProtocolError(f"expected ok, got {ack.get('type')!r}")
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        try:
            with send_lock:
                send_frame(sock, {"type": BYE})
        except OSError:
            pass
        sock.close()
    names = sorted({workload.name for workload, _, _ in builds.values()})
    return {"tasks": tasks_done, "workload": ", ".join(names)}
