"""Coordinator behavior against hand-driven fake workers.

Real workers are exercised by the differential tests; here a raw socket
speaks the protocol directly so the lease lifecycle (version refusal,
requeue, retry exhaustion, bye, duplicate results, heartbeats) can be
pinned message by message.
"""

import socket
import threading
import time

import pytest

from repro.cluster import ClusterEvaluator, PROTOCOL_VERSION
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

    def lease(self):
        send_frame(self.sock, {"type": "lease"})
        return recv_frame(self.sock)

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
        for version in (PROTOCOL_VERSION + 1, 2):
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

    def test_idle_lease_gets_wait(self, evaluator):
        worker = FakeWorker(evaluator.executor.address)
        try:
            reply = worker.lease()
            assert reply["type"] == "wait"
            assert reply["delay"] > 0
        finally:
            worker.close()


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
