"""Synchronous client for the job service's protocol-v3 frames.

:class:`ServiceClient` speaks the same length-prefixed JSON framing as
the workers, but handshakes with ``role: "client"`` and then exchanges
``submit``/``status``/``result``/``cancel``/``list`` frames.  It is
what ``repro submit``/``repro jobs``/``repro result`` use; being a few
dozen lines over a blocking socket is the point — any language with
sockets and JSON can submit campaigns.
"""

from __future__ import annotations

import os
import socket
import time

from repro.cluster.protocol import (
    BYE,
    CANCEL,
    ERROR,
    HELLO,
    JOB,
    JOBS,
    LIST,
    PROTOCOL_VERSION,
    REJECTED,
    RESULT,
    ROLE_CLIENT,
    STATUS,
    SUBMIT,
    SUBMITTED,
    UNSUPPORTED,
    WELCOME,
    parse_address,
    recv_frame,
    send_frame,
)

#: job states a poller treats as "still in progress"
_PENDING = ("queued", "running")


class ServiceError(RuntimeError):
    """Connection failure, handshake refusal, or a rejected request."""

    def __init__(self, message: str, code: str = "") -> None:
        super().__init__(message)
        self.code = code


class ServiceClient:
    """One connection to a :class:`~repro.service.server.PrecisionService`."""

    def __init__(
        self,
        address: str,
        connect_retries: int = 50,
        connect_backoff: float = 0.1,
    ) -> None:
        host, port = parse_address(address)
        last_error: Exception | None = None
        sock = None
        for attempt in range(connect_retries + 1):
            try:
                sock = socket.create_connection((host, port), timeout=30)
                break
            except OSError as exc:
                last_error = exc
                time.sleep(connect_backoff * min(attempt + 1, 10))
        if sock is None:
            raise ServiceError(
                f"cannot reach service at {address}: {last_error}"
            )
        self.sock = sock
        self.address = address
        send_frame(self.sock, {
            "type": HELLO,
            "version": PROTOCOL_VERSION,
            "role": ROLE_CLIENT,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        })
        welcome = recv_frame(self.sock)
        if welcome is None:
            raise ServiceError("service closed the connection during handshake")
        if welcome.get("type") == UNSUPPORTED:
            raise ServiceError(
                f"{welcome.get('message', 'protocol version refused')}",
                code="unsupported",
            )
        if welcome.get("type") == ERROR:
            raise ServiceError(welcome.get("message", "handshake refused"))
        if welcome.get("type") != WELCOME or not welcome.get("service"):
            raise ServiceError(
                f"{address} is not a job service (got "
                f"{welcome.get('type')!r})"
            )

    # -- request/response core ------------------------------------------------

    def _rpc(self, message: dict, expect: tuple) -> dict:
        send_frame(self.sock, message)
        reply = recv_frame(self.sock)
        if reply is None:
            raise ServiceError("service closed the connection")
        if reply.get("type") == REJECTED:
            raise ServiceError(
                reply.get("message", "request rejected"),
                code=reply.get("code", ""),
            )
        if reply.get("type") not in expect:
            raise ServiceError(f"unexpected reply {reply.get('type')!r}")
        return reply

    # -- job API ---------------------------------------------------------------

    def submit(self, workload: str, klass: str = "W", options=None,
               tenant: str = "default", quantum: float = 1.0) -> str:
        """Submit one campaign; returns its job id."""
        reply = self._rpc({
            "type": SUBMIT,
            "workload": workload,
            "klass": klass,
            "options": dict(options or {}),
            "tenant": tenant,
            "quantum": quantum,
        }, (SUBMITTED,))
        return reply["job"]

    def status(self, job_id: str) -> dict:
        return self._rpc({"type": STATUS, "job": job_id}, (JOB,))

    def result(self, job_id: str) -> dict:
        """Status plus the final row and configuration text."""
        return self._rpc({"type": RESULT, "job": job_id}, (JOB,))

    def cancel(self, job_id: str) -> dict:
        return self._rpc({"type": CANCEL, "job": job_id}, (JOB,))

    def jobs(self) -> list[dict]:
        return self._rpc({"type": LIST}, (JOBS,))["jobs"]

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05) -> dict:
        """Poll until the job reaches a terminal state; returns its
        final ``result`` reply.  Raises on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] not in _PENDING:
                return self.result(job_id)
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"{job_id} still {status['state']} after {timeout:.0f}s"
                )
            time.sleep(poll)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        try:
            send_frame(self.sock, {"type": BYE})
        except OSError:
            pass
        self.sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
