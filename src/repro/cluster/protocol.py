"""The coordinator/worker wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON encoding a single object with a ``type`` key.  The format is
deliberately boring: debuggable with ``nc`` + ``xxd``, versioned with a
single integer, and byte-order-explicit so heterogeneous hosts agree.

Message flow (worker-initiated request/response, except one-way frames)::

    worker                         coordinator
    ------                         -----------
    hello {version, role,
           host, pid}           ->
                                <- welcome {version, lease_timeout}
                                   | unsupported {supported, message}
                                     (any version but PROTOCOL_VERSION:
                                      structured refusal + clean close)
    lease {}                    ->    (no task ready: the lease is parked
                                       and answered the moment one is)
                                <- task {task, job, flags, digest,
                                         workload, klass, workload_id}
                                   | wait {delay: 0} (parked for a whole
                                                      sweep interval: a
                                                      keepalive, lease
                                                      again at once)
                                   | bye {}         (coordinator closing)
    events {task, events}       ->    (one-way: never answered, sent in
                                       the same write as result/error —
                                       the worker's telemetry events for
                                       that task, merged by the
                                       coordinator into the unified
                                       trace tagged with the worker id)
    result {task, outcome}      ->
                                <- ok {}
    error {task, message}       ->    (the evaluation raised: the
                                       coordinator aborts the task's
                                       batch with a ClusterError carrying
                                       the message, as an inline search
                                       raises; nothing is requeued)
                                <- ok {}
    heartbeat {}                ->    (one-way: never answered, sent by
                                       the worker's heartbeat thread to
                                       keep its leases alive during long
                                       evaluations)
    bye {}                      ->    (clean disconnect; a lease still
                                       held is requeued uncharged)

Every task names its workload, so one worker serves every campaign on
the coordinator: it builds each workload it is sent once, and refuses
(with ``bye``) a task whose ``workload_id`` it cannot reproduce.

Client flow (``hello`` with ``role: "client"`` — spoken by
:mod:`repro.service` against a ``repro serve --service`` coordinator)::

    client                         service
    ------                         -------
    hello {version,
           role: "client"}      ->
                                <- welcome {version, service: true}
                                   | unsupported {supported, message}
    submit {workload, klass,
            tenant, options}    ->
                                <- submitted {job}
                                   | rejected {code, message}
    status {job}                ->
                                <- job {job, state, ...}
                                   | rejected {code: "unknown_job"}
    result {job}                ->
                                <- job {job, state, row, config, ...}
    cancel {job}                ->
                                <- job {job, state}
    list {}                     ->
                                <- jobs {jobs: [...]}
    bye {}                      ->    (clean disconnect)

Worker and client frames share one framing layer and one handshake; the
``role`` field routes the connection after ``welcome``.  A worker ``result``
carries a ``task`` key, a client ``result`` carries a ``job`` key — they
never travel on the same connection.

Every worker→coordinator message refreshes the worker's liveness
deadline; a worker silent for longer than the lease timeout — or whose
connection reaches EOF, the usual fate of a SIGKILLed process — is
declared lost and its leases are requeued.

Both a synchronous (blocking-socket, worker-side) and an asyncio
(coordinator-side) implementation of the framing live here so the two
endpoints cannot drift, as does :func:`dial`, the one way a worker or
client opens its connection.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time

#: the protocol version; hello/welcome carry it, and a hello naming any
#: other version is refused at handshake time.  Every peer ships from
#: this package, so there is exactly one.
PROTOCOL_VERSION = 3

#: frames above this are a protocol violation (a config flag map for a
#: huge program is ~100 KiB; 16 MiB is three orders of magnitude slack).
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")

# message types
HELLO = "hello"
WELCOME = "welcome"
LEASE = "lease"
TASK = "task"
WAIT = "wait"
RESULT = "result"
ERROR = "error"
HEARTBEAT = "heartbeat"
EVENTS = "events"
OK = "ok"
BYE = "bye"
# handshake refusal: structured "I don't speak your version"
UNSUPPORTED = "unsupported"
# client job frames (role: "client")
SUBMIT = "submit"
SUBMITTED = "submitted"
STATUS = "status"
CANCEL = "cancel"
LIST = "list"
JOB = "job"
JOBS = "jobs"
REJECTED = "rejected"

# connection roles carried in hello; absent = worker
ROLE_WORKER = "worker"
ROLE_CLIENT = "client"


class ProtocolError(RuntimeError):
    """Malformed frame, oversized frame, or an unexpected message."""


def pack_frame(message: dict) -> bytes:
    """Serialize one message to its wire form (header + JSON payload)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(payload)) + payload


def _decode(payload: bytes) -> dict:
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a typed message: {message!r}")
    return message


def _check_length(length: int) -> None:
    if length > MAX_FRAME:
        raise ProtocolError(f"frame header claims {length} bytes (> MAX_FRAME)")


# -- synchronous (worker-side) endpoints ------------------------------------


def dial(address: str, retries: int = 50, backoff: float = 0.1) -> socket.socket:
    """Connect to ``HOST:PORT``, retrying while the peer is still coming
    up; re-raises the last :class:`OSError` once *retries* run out.

    The socket has ``TCP_NODELAY`` set.  Exchanges here are small
    request/response frames, and with Nagle's algorithm on, a frame
    written while an earlier one is unacknowledged waits for the peer's
    delayed ACK (~40 ms on Linux) — which a one-way frame never hurries.
    """
    host, port = parse_address(address)
    for attempt in range(max(retries, 0) + 1):
        try:
            sock = socket.create_connection((host, port), timeout=30)
            break
        except OSError:
            if attempt >= retries:
                raise
            time.sleep(backoff * min(attempt + 1, 10))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(pack_frame(message))


def recv_frame(sock: socket.socket) -> dict | None:
    """Read one frame from a blocking socket; None on clean EOF at a
    frame boundary, :class:`ProtocolError` on EOF mid-frame."""
    header = _recv_exact(sock, _HEADER.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    payload = _recv_exact(sock, length, eof_ok=False)
    return _decode(payload)


def _recv_exact(sock: socket.socket, n: int, eof_ok: bool) -> bytes | None:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- asyncio (coordinator-side) endpoints -----------------------------------


async def send_frame_async(writer: asyncio.StreamWriter, message: dict) -> None:
    writer.write(pack_frame(message))
    await writer.drain()


async def recv_frame_async(reader: asyncio.StreamReader) -> dict | None:
    """Asyncio twin of :func:`recv_frame` (None on clean EOF)."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError(
            f"connection closed mid-frame (wanted {length} bytes)"
        ) from None
    return _decode(payload)


# -- shared helpers ----------------------------------------------------------


def parse_address(address: str) -> tuple[str, int]:
    """Split ``HOST:PORT`` (port may be 0 = let the OS pick)."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {address!r} is not HOST:PORT")
    return host, int(port)


def unsupported_frame(hello: dict) -> dict:
    """The structured refusal of a hello naming another version."""
    return {
        "type": UNSUPPORTED,
        "supported": [PROTOCOL_VERSION],
        "message": (
            f"peer speaks protocol version {hello.get('version')!r}, "
            f"this coordinator speaks {PROTOCOL_VERSION}"
        ),
    }


def outcome_to_wire(outcome) -> list:
    """EvalOutcome -> JSON-safe list (NamedTuples serialize as lists
    anyway; this pins the order as part of the protocol)."""
    return [bool(outcome.passed), int(outcome.cycles), outcome.trap, outcome.reason]


def outcome_from_wire(wire) -> tuple:
    from repro.search.results import EvalOutcome

    passed, cycles, trap, reason = wire
    return EvalOutcome(bool(passed), int(cycles), str(trap), str(reason))
