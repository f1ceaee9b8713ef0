"""One evaluation front, three executors: the front does all the
accounting, so trap, crash and cache counters come out the same whether
jobs run inline, on the fork pool, or as leases to network workers."""

import contextlib
import os

import pytest

from repro.cluster import ClusterError, ClusterEvaluator
from repro.config import Config, build_tree
from repro.sdk import REGISTRY, WorkloadSpec
from repro.search import Evaluator, SearchEngine, SearchOptions, parallel
from repro.search.evaluator import InlineExecutor
from repro.search.parallel import ParallelEvaluator, fork_available
from repro.search.results import REASON_TRAP, REASON_WORKER_CRASH
from repro.telemetry import MetricsRegistry, Telemetry
from repro.workloads import make_workload
from repro.workloads.base import Workload

from tests.cluster.conftest import workers_running

EXECUTORS = ("inline", "pool", "lease")

# In double, (x + 1 - x) - 1 == 0 and the index is fine; in single, x
# absorbs the +1 and the index underflows to -1: a trap.
UNDERFLOW = """
var a: real[2] = [1.0, 2.0];
fn main() {
    var x: real = 100000000.0;
    var y: real = x + 1.0 - x;
    out(a[i64(y - 1.0)]);
}
"""


@pytest.fixture(scope="module")
def underflow():
    # Registered through the SDK so network workers can rebuild it by name.
    REGISTRY.register(WorkloadSpec(
        name="underflow",
        factory=lambda klass: Workload(
            name=f"underflow.{klass}", sources=[UNDERFLOW], klass=klass
        ),
        classes=("T",),
        origin="plugin:test",
    ))
    try:
        yield make_workload("underflow", "T")
    finally:
        REGISTRY.unregister("underflow")


class _RaisingVerify(Workload):
    """A workload whose verification routine raises."""

    def verify(self, result):
        raise ValueError("boom")


@pytest.fixture(scope="module")
def raising():
    REGISTRY.register(WorkloadSpec(
        name="raising",
        factory=lambda klass: _RaisingVerify(
            name=f"raising.{klass}", sources=[UNDERFLOW], klass=klass
        ),
        classes=("T",),
        origin="plugin:test",
    ))
    try:
        yield make_workload("raising", "T")
    finally:
        REGISTRY.unregister("raising")


def _traced():
    metrics = MetricsRegistry()
    return Telemetry(metrics=metrics), metrics.counters


@contextlib.contextmanager
def _front(workload, kind, telemetry, retry_limit=3):
    """An evaluator front over a *kind* executor (with workers serving
    it for a lease channel), closed on exit."""
    if kind == "pool" and not fork_available():
        pytest.skip("needs fork start method")
    with contextlib.ExitStack() as stack:
        if kind == "inline":
            executor = InlineExecutor(workload, telemetry=telemetry)
        elif kind == "pool":
            executor = ParallelEvaluator(
                workload, build_tree(workload.program), workers=2,
                telemetry=telemetry, retry_limit=retry_limit,
                retry_backoff=0.001,
            )
        else:
            executor = ClusterEvaluator(
                workload, telemetry=telemetry, lease_timeout=10.0
            )
            stack.enter_context(workers_running(executor.address))
        yield stack.enter_context(
            Evaluator(workload, telemetry=telemetry, executor=executor)
        )


@pytest.mark.parametrize("kind", EXECUTORS)
def test_a_trap_counts_one_vm_trap(underflow, kind):
    telemetry, counters = _traced()
    with _front(underflow, kind, telemetry) as front:
        outcome = front.evaluate(
            Config.all_single(build_tree(underflow.program))
        )
    assert outcome.reason == REASON_TRAP
    assert "out of bounds" in outcome.trap
    assert counters["vm.traps"] == 1


@pytest.mark.parametrize("kind", EXECUTORS)
def test_an_evaluation_error_aborts_every_executor(raising, kind):
    # Inline and pool raise the exception itself; a lease channel raises
    # a ClusterError carrying the worker's report of it.  None retries.
    error, match = {
        "inline": (ValueError, "boom"),
        "pool": (ValueError, "boom"),
        "lease": (ClusterError, "ValueError: boom"),
    }[kind]
    telemetry, counters = _traced()
    with _front(raising, kind, telemetry) as front:
        with pytest.raises(error, match=match):
            front.evaluate(Config.all_double(build_tree(raising.program)))
    assert counters.get("eval.worker_crashes", 0) == 0
    assert counters.get("cluster.requeues", 0) == 0


def test_a_worker_crash_is_not_a_vm_trap(underflow, monkeypatch):
    monkeypatch.setattr(parallel, "FAULT_HOOK", lambda flags: os._exit(1))
    telemetry, counters = _traced()
    with _front(underflow, "pool", telemetry, retry_limit=0) as front:
        outcome = front.evaluate(
            Config.all_single(build_tree(underflow.program))
        )
    assert outcome.reason == REASON_WORKER_CRASH
    assert counters["eval.worker_crashes"] == 1
    assert counters.get("vm.traps", 0) == 0


@pytest.mark.parametrize("kind", EXECUTORS)
def test_fuse_cache_counters_reach_the_trace(kind):
    if kind == "pool" and not fork_available():
        pytest.skip("needs fork start method")
    telemetry, counters = _traced()
    options = {
        "inline": SearchOptions(),
        "pool": SearchOptions(workers=2),
        "lease": SearchOptions(cluster="127.0.0.1:0", workers=2,
                               lease_timeout=10.0),
    }[kind]
    engine = SearchEngine(make_workload("cg", "T"), options, telemetry=telemetry)
    with contextlib.ExitStack() as stack:
        if kind == "lease":
            stack.enter_context(
                workers_running(engine.evaluator.executor.address, 2)
            )
        engine.run()
    assert counters["vm.fuse_cache_hits"] > 0
