"""The wire protocol as a client sees it: submit/status/result/cancel/
list round-trips, structured rejections, and version refusal at the
service's front door.
"""

import gc
import os
import socket
import threading
import warnings

import pytest

from repro.cluster.protocol import (
    ERROR,
    HELLO,
    PROTOCOL_VERSION,
    ROLE_WORKER,
    UNSUPPORTED,
    WELCOME,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.service import ServiceClient, ServiceError
from repro.service.jobs import COMPLETE

from tests.service.conftest import service_running


@pytest.fixture
def service(tmp_path):
    with service_running(tmp_path, max_queued=2) as svc:
        yield svc


class TestRoundTrips:
    def test_submit_wait_result_over_the_wire(self, tmp_path, serial_mg):
        reference, reference_config = serial_mg
        with service_running(tmp_path, workers=1) as svc:
            with ServiceClient(svc.address) as client:
                job_id = client.submit("mg", "T", tenant="alice")
                assert job_id == "j1"
                reply = client.wait(job_id, timeout=300)
            assert reply["state"] == COMPLETE
            assert reply["config"] == reference_config
            assert reply["row"]["benchmark"] == "mg.T"
            assert reply["tested"] == reference.configs_tested

    def test_status_and_list(self, service):
        with ServiceClient(service.address) as client:
            job_id = client.submit("cg", "T", tenant="alice")
            status = client.status(job_id)
            assert status["job"] == job_id
            assert status["state"] in ("queued", "running")
            listed = client.jobs()
            assert [job["job"] for job in listed] == [job_id]
            assert listed[0]["tenant"] == "alice"
            client.cancel(job_id)
        assert service.wait_all(timeout=60)

    def test_cancel_over_the_wire(self, service):
        with ServiceClient(service.address) as client:
            job_id = client.submit("cg", "T")
            reply = client.cancel(job_id)
            assert reply["job"] == job_id
        assert service.wait_all(timeout=60)
        assert service.registry.get(job_id).state == "cancelled"


class TestRejections:
    def test_unknown_workload_is_rejected(self, service):
        with ServiceClient(service.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit("nosuch", "T")
            assert excinfo.value.code == "unknown_workload"
            # the message names the live catalogue, not a baked-in list
            assert "registered workloads" in excinfo.value.args[0]
            assert "heat" in excinfo.value.args[0]
            # the connection survives a rejection
            assert client.jobs() == []

    def test_unknown_job_is_rejected(self, service):
        with ServiceClient(service.address) as client:
            for call in (client.status, client.result, client.cancel):
                with pytest.raises(ServiceError) as excinfo:
                    call("j99")
                assert excinfo.value.code == "unknown_job"

    def test_quota_rejection_names_the_quota(self, service):
        with ServiceClient(service.address) as client:
            client.submit("cg", "T", tenant="alice")
            client.submit("cg", "T", tenant="alice")
            with pytest.raises(ServiceError) as excinfo:
                client.submit("cg", "T", tenant="alice")
            assert excinfo.value.code == "quota"
            # another tenant is unaffected
            client.submit("cg", "T", tenant="bob")
            for job in client.jobs():
                client.cancel(job["job"])
        assert service.wait_all(timeout=60)


class TestNegotiation:
    def test_v2_worker_gets_structured_unsupported(self, service):
        # The service's tasks carry per-frame workloads, which only v3
        # workers understand — a v2-only worker must be refused with the
        # structured reply and a clean close, not a hang or a traceback.
        sock = socket.create_connection(
            parse_address(service.address), timeout=10
        )
        try:
            send_frame(sock, {
                "type": HELLO, "version": 2, "versions": [2],
                "role": ROLE_WORKER,
                "host": socket.gethostname(), "pid": os.getpid(),
            })
            reply = recv_frame(sock)
            assert reply["type"] == UNSUPPORTED
            assert reply["supported"] == [PROTOCOL_VERSION]
            assert "version" in reply["message"]
            assert recv_frame(sock) is None  # clean close
        finally:
            sock.close()

    def test_client_refused_on_disjoint_versions(self, service):
        sock = socket.create_connection(
            parse_address(service.address), timeout=10
        )
        try:
            send_frame(sock, {
                "type": HELLO, "version": 1, "versions": [1],
                "role": "client",
                "host": socket.gethostname(), "pid": os.getpid(),
            })
            reply = recv_frame(sock)
            assert reply["type"] == UNSUPPORTED
            assert recv_frame(sock) is None
        finally:
            sock.close()


def _one_shot_server(reply):
    """A listener that answers one hello with *reply* (None: hang up)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                if reply is not None:
                    send_frame(conn, reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    return f"{host}:{port}", thread


class TestConnection:
    def test_client_socket_has_nodelay(self, service):
        with ServiceClient(service.address) as client:
            assert client.sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )

    @pytest.mark.parametrize("reply", [
        {"type": UNSUPPORTED, "supported": [PROTOCOL_VERSION],
         "message": "peer speaks another version"},
        # what a coordinator started without --service answers
        {"type": ERROR, "message": "no job submissions here"},
        {"type": WELCOME, "version": PROTOCOL_VERSION},
        None,
    ], ids=["unsupported", "error", "worker-welcome", "hangup"])
    def test_refused_handshake_closes_the_socket(self, reply):
        address, thread = _one_shot_server(reply)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ServiceError):
                ServiceClient(address, connect_retries=0)
            gc.collect()  # finalize the client the traceback held
        thread.join(timeout=10)
        assert not thread.is_alive()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, leaks[0].message


class TestPluginTenant:
    def test_sdk_registered_workload_is_a_tenant(self, tmp_path):
        # A workload registered through the SDK at runtime — no edits to
        # repro.workloads — is accepted at the front door and runs to
        # completion like any built-in.
        from repro.sdk import WorkloadSpec
        from repro.workloads import REGISTRY
        from repro.workloads.base import Workload

        def make(klass):
            return Workload(
                name=f"svcplug.{klass}",
                sources=["fn main() { out(3.0 * 7.0); }"],
                klass=klass,
            )

        REGISTRY.register(
            WorkloadSpec(name="svcplug", factory=make, classes=("T",),
                         origin="plugin:test")
        )
        try:
            with service_running(tmp_path, workers=1) as svc:
                with ServiceClient(svc.address) as client:
                    job_id = client.submit("svcplug", "T", tenant="plug")
                    reply = client.wait(job_id, timeout=300)
                assert reply["state"] == COMPLETE
                assert reply["row"]["benchmark"] == "svcplug.T"
        finally:
            REGISTRY.unregister("svcplug")
