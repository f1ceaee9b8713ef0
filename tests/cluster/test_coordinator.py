"""Coordinator behavior against hand-driven fake workers.

Real workers are exercised by the differential tests; here a raw socket
speaks the protocol directly so the lease lifecycle (version refusal,
requeue, retry exhaustion, bye, duplicate results, heartbeats, parked
leases) can be pinned message by message.
"""

import socket
import threading
import time
from collections import deque

import pytest

from repro.cluster import ClusterEvaluator, PROTOCOL_VERSION, run_worker
from repro.cluster import worker as worker_module
from repro.cluster.coordinator import BaseLeaseEvaluator, _Coordinator
from repro.cluster.protocol import parse_address, recv_frame, send_frame
from repro.config.generator import build_tree
from repro.config.model import Config, Policy
from repro.search import Evaluator
from repro.search.results import REASON_WORKER_CRASH
from repro.search.retry import RetryPolicy
from repro.store import workload_id
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("cg", "T")


@pytest.fixture(scope="module")
def tree(workload):
    return build_tree(workload.program)


def _front(workload, **cluster):
    """An evaluator front leasing through a fresh coordinator."""
    return Evaluator(workload, executor=ClusterEvaluator(workload, **cluster))


@pytest.fixture
def evaluator(workload):
    ev = _front(
        workload, retry=RetryPolicy(limit=2, backoff=0.001),
        lease_timeout=10.0,
    )
    yield ev
    ev.close()


class FakeWorker:
    """A raw-socket protocol client under full test control."""

    def __init__(self, address: str, version: int = PROTOCOL_VERSION):
        host, port = parse_address(address)
        self.sock = socket.create_connection((host, port), timeout=10)
        send_frame(self.sock, {
            "type": "hello", "version": version, "host": "fake", "pid": 1,
        })
        self.welcome = recv_frame(self.sock)

    def send_lease(self):
        send_frame(self.sock, {"type": "lease"})

    def recv(self):
        return recv_frame(self.sock)

    def lease(self):
        self.send_lease()
        return self.recv()

    def lease_task(self, timeout: float = 10.0):
        """Poll through wait replies until a task arrives."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            reply = self.lease()
            if reply["type"] == "task":
                return reply
            assert reply["type"] == "wait"
            time.sleep(reply["delay"])
        raise AssertionError("no task leased within timeout")

    def result(self, task_id, passed=True, cycles=100, trap="", reason=""):
        send_frame(self.sock, {
            "type": "result", "task": task_id,
            "outcome": [passed, cycles, trap, reason],
        })
        ack = recv_frame(self.sock)
        assert ack["type"] == "ok"

    def heartbeat(self):
        send_frame(self.sock, {"type": "heartbeat"})

    def bye(self):
        send_frame(self.sock, {"type": "bye"})
        self.sock.close()

    def close(self):
        self.sock.close()


def _batch_async(evaluator, configs):
    """Run evaluate_batch in a thread (it blocks on the fake worker)."""
    box = {}

    def run():
        box["outcomes"] = evaluator.evaluate_batch(configs)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _wait_parked(coord, count: int = 1) -> None:
    """Block until *count* leases are parked on *coord* (a lease the
    coordinator has not read yet would be answered, not parked)."""
    deadline = time.monotonic() + 10
    # list() copies the loop thread's dict in one step
    while sum(w.parked_at is not None
              for w in list(coord.workers.values())) < count:
        assert time.monotonic() < deadline, "lease never parked"
        time.sleep(0.005)


def _configs(tree, count):
    """Distinct single-flag configurations (never semantic duplicates)."""
    nodes = [n for n in tree.by_id.values() if not n.children][: count]
    assert len(nodes) == count
    configs = []
    for node in nodes:
        config = Config.all_double(tree)
        config.flags[node.node_id] = Policy.SINGLE
        configs.append(config)
    return configs


class TestHandshake:
    def test_task_describes_the_search(self, evaluator, workload, tree):
        # The welcome pins no workload: every task names its own.
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        worker = FakeWorker(evaluator.executor.address)
        try:
            assert worker.welcome["type"] == "welcome"
            assert worker.welcome["version"] == PROTOCOL_VERSION
            assert "workload" not in worker.welcome
            task = worker.lease_task()
            assert task["workload"] == "cg"
            assert task["klass"] == "T"
            assert task["workload_id"] == workload_id(workload)
            worker.result(task["task"])
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed
        assert evaluator.executor.workers_seen == 1

    def test_version_mismatch_refused(self, evaluator):
        # Any version but PROTOCOL_VERSION gets a structured refusal
        # naming the acceptable one, then a clean close.
        for version in (PROTOCOL_VERSION + 1, 3, 2):
            worker = FakeWorker(evaluator.executor.address, version=version)
            try:
                assert worker.welcome["type"] == "unsupported"
                assert worker.welcome["supported"] == [PROTOCOL_VERSION]
                assert "version" in worker.welcome["message"]
                # clean close: EOF at a frame boundary, not a reset
                assert recv_frame(worker.sock) is None
            finally:
                worker.close()
        assert evaluator.executor.workers_seen == 0

    def test_worker_socket_has_nodelay(self, evaluator, monkeypatch):
        # Without TCP_NODELAY a reply written behind an unacknowledged
        # frame waits out the coordinator's delayed ACK.
        real_dial = worker_module.dial
        dialed = []

        def dial(*args):
            dialed.append(real_dial(*args))
            return dialed[-1]

        monkeypatch.setattr(worker_module, "dial", dial)
        thread = threading.Thread(
            target=run_worker, args=(evaluator.executor.address,),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 10
        while evaluator.executor.workers_connected < 1:
            assert time.monotonic() < deadline, "worker never connected"
            time.sleep(0.005)
        assert dialed[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        evaluator.executor.close()  # dismisses the worker
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestParkedLeases:
    """A lease that finds nothing to do is parked on the coordinator and
    answered, without another frame from the worker, once a task is
    leasable."""

    def test_answered_when_a_batch_is_queued(self, evaluator, tree):
        worker = FakeWorker(evaluator.executor.address)
        try:
            worker.send_lease()
            _wait_parked(evaluator.executor._coord)
            worker.heartbeat()  # one-way frames leave the lease parked
            thread, box = _batch_async(evaluator, _configs(tree, 1))
            task = worker.recv()
            assert task["type"] == "task"
            worker.result(task["task"], passed=True, cycles=3)
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].cycles == 3

    def test_keepalive_after_one_sweep_interval(self, evaluator, tree):
        # lease_timeout 10 s: the sweeper runs every second.
        worker = FakeWorker(evaluator.executor.address)
        try:
            sent = time.monotonic()
            reply = worker.lease()
            assert time.monotonic() - sent >= 1.0
            assert reply == {"type": "wait", "delay": 0}
            assert evaluator.executor.workers_connected == 1
            # leasing again parks again, and the next batch reaches it
            worker.send_lease()
            _wait_parked(evaluator.executor._coord)
            thread, box = _batch_async(evaluator, _configs(tree, 1))
            task = worker.recv()
            assert task["type"] == "task"
            worker.result(task["task"], passed=True, cycles=4)
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].cycles == 4

    def test_gets_a_task_returned_by_bye(self, workload, tree):
        # limit=0: a charged loss would classify the task worker_crash.
        ev = _front(workload, retry=RetryPolicy(limit=0), lease_timeout=10.0)
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            leaving = FakeWorker(ev.executor.address)
            task = leaving.lease_task()
            parked = FakeWorker(ev.executor.address)
            try:
                parked.send_lease()
                _wait_parked(ev.executor._coord)
                leaving.bye()
                requeued = parked.recv()
                assert requeued["type"] == "task"
                assert requeued["task"] == task["task"]
                parked.result(requeued["task"], passed=True, cycles=5)
            finally:
                parked.close()
            thread.join(timeout=10)
            assert box["outcomes"][0].cycles == 5
            assert ev.executor.crashed_configs == 0
        finally:
            ev.close()

    def test_gets_a_task_after_its_backoff(self, workload, tree):
        ev = _front(
            workload, retry=RetryPolicy(limit=2, backoff=0.1),
            lease_timeout=10.0,
        )
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            doomed = FakeWorker(ev.executor.address)
            task = doomed.lease_task()
            parked = FakeWorker(ev.executor.address)
            try:
                parked.send_lease()
                _wait_parked(ev.executor._coord)
                doomed.close()  # EOF: a charged loss, 0.1 s of backoff
                requeued = parked.recv()
                assert requeued["type"] == "task"
                assert requeued["task"] == task["task"]
                parked.result(requeued["task"], passed=True, cycles=6)
            finally:
                parked.close()
            thread.join(timeout=10)
            assert box["outcomes"][0].cycles == 6
            assert ev.executor.requeues == 1
        finally:
            ev.close()


@pytest.fixture
def coordinator():
    coord = _Coordinator(10.0, deque(), max_inflight=1)
    coord.serve("127.0.0.1:0", "test-coordinator")
    yield coord
    coord.close()


def _channel(coord, workload, job_id, **kwargs):
    """An evaluator front on one tenant channel of *coord*."""
    return Evaluator(
        workload,
        executor=BaseLeaseEvaluator(coord, job_id, workload, **kwargs),
    )


class TestTenantChannels:
    def test_parked_lease_gets_a_task_freed_by_the_quota(
        self, coordinator, workload, tree
    ):
        # max_inflight=1: while the first task is out, the tenant's
        # second one cannot be leased.
        ev = _channel(coordinator, workload, "j1", tenant="alice")
        first = FakeWorker(coordinator.address)
        second = FakeWorker(coordinator.address)
        try:
            thread, box = _batch_async(ev, _configs(tree, 2))
            t1 = first.lease_task()
            second.send_lease()
            _wait_parked(coordinator)
            first.result(t1["task"], passed=True, cycles=7)
            t2 = second.recv()
            assert t2["type"] == "task"
            second.result(t2["task"], passed=True, cycles=8)
            thread.join(timeout=10)
            assert [o.cycles for o in box["outcomes"]] == [7, 8]
        finally:
            first.close()
            second.close()
            ev.close()

    def test_small_quantum_is_not_a_reason_to_park(
        self, coordinator, workload, tree
    ):
        # A lone channel earning 0.1 credit per visit still gets every
        # lease: DRR shares the pool between channels, it never leaves
        # a worker idle beside a leasable task.
        ev = _channel(coordinator, workload, "j1", quantum=0.1)
        worker = FakeWorker(coordinator.address)
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            task = worker.lease()
            assert task["type"] == "task"
            worker.result(task["task"], passed=True, cycles=9)
            thread.join(timeout=10)
            assert box["outcomes"][0].cycles == 9
        finally:
            worker.close()
            ev.close()


class TestLeaseLifecycle:
    def test_batch_outcomes_in_submission_order(self, evaluator, tree):
        configs = _configs(tree, 2)
        thread, box = _batch_async(evaluator, configs)
        worker = FakeWorker(evaluator.executor.address)
        try:
            t1 = worker.lease_task()
            t2 = worker.lease_task()
            # Answer out of order; results must come back in input order.
            worker.result(t2["task"], passed=False, cycles=0, reason="verify")
            worker.result(t1["task"], passed=True, cycles=111)
        finally:
            worker.close()
        thread.join(timeout=10)
        outcomes = box["outcomes"]
        assert outcomes[0].passed and outcomes[0].cycles == 111
        assert not outcomes[1].passed and outcomes[1].reason == "verify"
        assert evaluator.evaluations == 2
        assert evaluator.executions == 2
        assert evaluator.executor.leases_granted == 2

    def test_duplicate_result_is_ignored(self, evaluator, tree):
        configs = _configs(tree, 2)
        thread, box = _batch_async(evaluator, configs)
        worker = FakeWorker(evaluator.executor.address)
        try:
            t1 = worker.lease_task()
            t2 = worker.lease_task()
            worker.result(t1["task"], passed=True, cycles=10)
            worker.result(t1["task"], passed=False, cycles=0)  # dup: first wins
            worker.result(t2["task"], passed=True, cycles=20)
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed
        assert box["outcomes"][0].cycles == 10
        assert evaluator.evaluations == 2

    def test_lost_worker_lease_requeued_to_survivor(self, evaluator, tree):
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        first = FakeWorker(evaluator.executor.address)
        task = first.lease_task()
        first.close()  # EOF with the lease outstanding
        second = FakeWorker(evaluator.executor.address)
        try:
            requeued = second.lease_task()
            assert requeued["task"] == task["task"]
            assert requeued["flags"] == task["flags"]
            second.result(requeued["task"], passed=True, cycles=42)
        finally:
            second.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed
        assert evaluator.executor.requeues == 1
        assert evaluator.executor.workers_seen == 2

    def test_retry_exhaustion_classified_worker_crash(self, workload, tree):
        ev = _front(workload, retry=RetryPolicy(limit=0), lease_timeout=10.0)
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            worker = FakeWorker(ev.executor.address)
            worker.lease_task()
            worker.close()  # limit=0: first loss exhausts the budget
            thread.join(timeout=10)
            outcome = box["outcomes"][0]
            assert not outcome.passed
            assert outcome.reason == REASON_WORKER_CRASH
            assert "cluster worker died" in outcome.trap
            assert ev.executor.crashed_configs == 1
            assert ev.executor.requeues == 0
        finally:
            ev.close()

    def test_bye_returns_the_lease_uncharged(self, workload, tree):
        # A worker that cannot build a task's workload leaves with bye
        # while holding the lease.  Under limit=0 a charged loss would
        # classify the config worker_crash without it ever running.
        ev = _front(workload, retry=RetryPolicy(limit=0), lease_timeout=10.0)
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            first = FakeWorker(ev.executor.address)
            task = first.lease_task()
            first.bye()
            second = FakeWorker(ev.executor.address)
            try:
                requeued = second.lease_task()
                assert requeued["task"] == task["task"]
                second.result(requeued["task"], passed=True, cycles=7)
            finally:
                second.close()
            thread.join(timeout=10)
            outcome = box["outcomes"][0]
            assert outcome.passed and outcome.cycles == 7
            assert ev.executor.crashed_configs == 0
        finally:
            ev.close()

    def test_heartbeats_do_not_break_pairing(self, evaluator, tree):
        thread, box = _batch_async(evaluator, _configs(tree, 1))
        worker = FakeWorker(evaluator.executor.address)
        try:
            worker.heartbeat()
            task = worker.lease_task()
            worker.heartbeat()
            worker.result(task["task"], passed=True, cycles=5)
        finally:
            worker.close()
        thread.join(timeout=10)
        assert box["outcomes"][0].passed

    def test_silent_worker_expires_and_lease_requeues(self, workload, tree):
        ev = _front(
            workload, retry=RetryPolicy(limit=2, backoff=0.001),
            lease_timeout=0.2,
        )
        try:
            thread, box = _batch_async(ev, _configs(tree, 1))
            silent = FakeWorker(ev.executor.address)
            silent.lease_task()
            # Say nothing: no heartbeat, no result.  The sweeper must
            # declare the worker lost and hand the lease to a live one.
            live = FakeWorker(ev.executor.address)
            task = live.lease_task(timeout=15.0)
            live.result(task["task"], passed=True, cycles=9)
            live.close()
            silent.close()
            thread.join(timeout=10)
            assert box["outcomes"][0].passed
            assert ev.executor.requeues == 1
        finally:
            ev.close()
