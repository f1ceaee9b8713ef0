"""Crash-fault differentials with real worker processes.

Two failure modes, both against a live coordinator:

* deterministic: a worker that ``os._exit``-s while holding a lease
  (the ``REPRO_WORKER_EXIT_SENTINEL`` crash-once idiom), plus a worker
  joining mid-search — the union of everything the paper's "many
  independent tests" machinery must shrug off;
* violent: SIGKILL of a worker process mid-batch.

In every case the final configuration and configs_tested must be
byte-identical to the serial engine, and the trace must show the lease
lifecycle (worker_lost, requeue) that made that possible.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

from repro.config.fileformat import dump_config
from repro.search import SearchEngine, SearchOptions
from repro.telemetry import JsonlSink, Telemetry
from repro.telemetry.events import validate_event
from repro.workloads import make_workload

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _spawn_worker(address, sentinel=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    if sentinel is not None:
        env["REPRO_WORKER_EXIT_SENTINEL"] = str(sentinel)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", address,
         "--quiet", "--connect-retries", "20"],
        env=env, cwd=_REPO,
    )


def _trace_kinds(path):
    kinds = {}
    with open(path) as handle:
        for line in handle:
            event = validate_event(json.loads(line))
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    return kinds


class TestWorkerFaults:
    def test_sentinel_crash_and_late_join_identical(self, tmp_path, serial_cg):
        reference, reference_config = serial_cg
        sentinel = tmp_path / "crash-once"
        sentinel.touch()
        trace = tmp_path / "trace.jsonl"

        telemetry = Telemetry(sinks=[JsonlSink(str(trace))])
        engine = SearchEngine(
            make_workload("cg", "T"),
            SearchOptions(cluster="127.0.0.1:0", workers=4, lease_timeout=5.0),
            telemetry=telemetry,
        )
        address = engine.evaluator.executor.address
        procs = [
            _spawn_worker(address, sentinel=sentinel),  # dies on first task
            _spawn_worker(address),
        ]

        def late_join():
            # Join once the search is demonstrably under way.
            deadline = time.monotonic() + 30
            while (engine.evaluator.executor.leases_granted < 2
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            procs.append(_spawn_worker(address))

        joiner = threading.Thread(target=late_join, daemon=True)
        joiner.start()
        with telemetry:
            result = engine.run()
        joiner.join(timeout=30)
        for proc in procs:
            proc.wait(timeout=30)

        assert dump_config(result.final_config) == reference_config
        assert result.configs_tested == reference.configs_tested
        assert not sentinel.exists(), "crash sentinel never consumed"
        assert procs[0].returncode == 1  # the os._exit(1) crash
        assert procs[1].returncode == 0

        kinds = _trace_kinds(trace)
        assert kinds.get("cluster.worker_join", 0) >= 2
        assert kinds["cluster.worker_lost"] >= 1
        assert kinds["cluster.requeue"] >= 1
        assert kinds["eval.config"] == reference.configs_tested

    def test_sigkill_mid_batch_identical(self, tmp_path, serial_cg):
        reference, reference_config = serial_cg
        trace = tmp_path / "trace.jsonl"
        telemetry = Telemetry(sinks=[JsonlSink(str(trace))])
        engine = SearchEngine(
            make_workload("cg", "T"),
            SearchOptions(cluster="127.0.0.1:0", workers=4, lease_timeout=5.0),
            telemetry=telemetry,
        )
        address = engine.evaluator.executor.address
        victim = _spawn_worker(address)
        survivor = None
        box = {}

        def murder():
            # SIGKILL the only worker once it has taken leases, then
            # bring up a replacement to finish the search.
            deadline = time.monotonic() + 30
            while (engine.evaluator.executor.leases_granted < 2
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            os.kill(victim.pid, signal.SIGKILL)
            box["survivor"] = _spawn_worker(address)

        killer = threading.Thread(target=murder, daemon=True)
        killer.start()
        with telemetry:
            result = engine.run()
        killer.join(timeout=30)
        victim.wait(timeout=30)
        survivor = box.get("survivor")
        assert survivor is not None
        survivor.wait(timeout=30)

        assert victim.returncode == -signal.SIGKILL
        assert survivor.returncode == 0
        assert dump_config(result.final_config) == reference_config
        assert result.configs_tested == reference.configs_tested

        kinds = _trace_kinds(trace)
        assert kinds["cluster.worker_lost"] >= 1
        assert kinds.get("cluster.worker_join", 0) >= 2
