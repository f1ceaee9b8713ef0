"""Trace round-trips for every execution mode (satellite of the
profiling PR): serial, parallel-worker, and cluster searches of the same
workload each produce a JSONL trace in which

* every line parses and validates against ``EVENT_FIELDS``;
* replaying the trace through a fresh :class:`MetricsRegistry`
  reproduces the live registry's ``summary()`` byte-for-byte;
* the causally-load-bearing counts (``eval.config`` vs
  ``configs_tested``) reconcile exactly.

The cluster case additionally proves the tentpole property: worker-side
events arrive in the coordinator's merged trace tagged with the worker
id that produced them.
"""

import threading

import pytest

from repro.cluster import run_worker
from repro.search.bfs import SearchEngine, SearchOptions
from repro.telemetry import JsonlSink, MetricsRegistry, Telemetry
from repro.telemetry.tools import load_events, replay_metrics
from repro.workloads import make_workload


def _traced_run(tmp_path, options, workers=0):
    path = tmp_path / "trace.jsonl"
    registry = MetricsRegistry()
    workload = make_workload("cg", "S")
    with Telemetry(sinks=[JsonlSink(str(path))], metrics=registry) as tel:
        engine = SearchEngine(workload, options, telemetry=tel)
        threads = []
        if workers:
            threads = [
                threading.Thread(
                    target=run_worker,
                    args=(engine.evaluator.executor.address,),
                    daemon=True,
                )
                for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
        result = engine.run()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    return str(path), registry, result


@pytest.fixture(
    scope="module",
    params=["serial", "parallel", "cluster"],
)
def traced_mode(request, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp(f"roundtrip_{request.param}")
    if request.param == "serial":
        path, registry, result = _traced_run(tmp_path, SearchOptions())
    elif request.param == "parallel":
        path, registry, result = _traced_run(
            tmp_path, SearchOptions(workers=2)
        )
    else:
        path, registry, result = _traced_run(
            tmp_path,
            SearchOptions(cluster="127.0.0.1:0", lease_timeout=10.0),
            workers=2,
        )
    return request.param, path, registry, result


class TestRoundTrip:
    def test_every_line_validates(self, traced_mode):
        _mode, path, _registry, _result = traced_mode
        assert load_events(path)

    def test_replay_reproduces_live_summary(self, traced_mode):
        _mode, path, registry, _result = traced_mode
        events = load_events(path)
        assert replay_metrics(events).summary() == registry.summary()

    def test_eval_config_count_reconciles(self, traced_mode):
        _mode, path, _registry, result = traced_mode
        events = load_events(path)
        n_eval = sum(1 for e in events if e["kind"] == "eval.config")
        assert n_eval == result.configs_tested

    def test_search_span_present(self, traced_mode):
        _mode, path, _registry, _result = traced_mode
        kinds = [e["kind"] for e in load_events(path)]
        assert kinds.count("search.begin") == 1
        assert kinds.count("search.end") == 1

    def test_all_modes_agree_on_final_config(self, traced_mode):
        _mode, _path, _registry, result = traced_mode
        assert result.final_config is not None
        assert result.final_verified


class TestClusterMerge:
    @pytest.fixture(scope="class")
    def cluster_trace(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("cluster_merge")
        path, registry, result = _traced_run(
            tmp_path,
            SearchOptions(cluster="127.0.0.1:0", lease_timeout=10.0),
            workers=2,
        )
        return load_events(path), registry, result

    def test_remote_evals_are_worker_tagged(self, cluster_trace):
        events, _registry, result = cluster_trace
        remote = [e for e in events if e["kind"] == "eval.remote"]
        assert len(remote) == result.configs_tested
        assert all("worker" in e and e["worker"] for e in remote)
        assert all("worker_ts" in e for e in remote)

    def test_forwarded_metric_events_are_worker_tagged(self, cluster_trace):
        events, _registry, _result = cluster_trace
        forwarded = [
            e for e in events if e["kind"] == "metric.count" and "worker" in e
        ]
        # Worker-side instrumentation cache counters ride the stream.
        assert any(
            e["name"].startswith("instr.") for e in forwarded
        ), "no forwarded instrumentation counters"

    def test_trace_is_causally_ordered(self, cluster_trace):
        events, _registry, _result = cluster_trace
        stamps = [e["ts"] for e in events]
        assert stamps == sorted(stamps)

    def test_worker_occupancy_metrics_recorded(self, cluster_trace):
        _events, registry, result = cluster_trace
        assert (
            registry.get("cluster.remote_evals") == result.configs_tested
        )
        per_worker = {
            name: value
            for name, value in registry.counters.items()
            if name.startswith("cluster.tasks.")
        }
        assert per_worker
        assert sum(per_worker.values()) == result.configs_tested
        assert "cluster.eval_wall_s" in registry.observations
