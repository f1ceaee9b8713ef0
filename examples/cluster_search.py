"""Distributed search: a coordinator, network workers, and a crash.

The search engine can serve its evaluations to stateless TCP workers
instead of running them locally (``repro.cluster``).  The coordinator
owns the frontier and leases one configuration at a time to whichever
workers are connected; workers may join late, leave early, or die
mid-task — lost leases are requeued, and the final configuration is
byte-identical to a serial search.

This script runs the CG analogue (class T) three ways:

1. the serial reference;
2. a cluster search served by two in-process worker threads;
3. a cluster search where one worker is a real subprocess that crashes
   (``os._exit``) while holding a lease — the surviving worker picks up
   the requeued configuration and the result is still identical.

Run:  python examples/cluster_search.py

CLI equivalent::

    python -m repro serve 127.0.0.1:7070 cg T     # terminal 1
    python -m repro worker 127.0.0.1:7070         # terminals 2..N

See docs/CLUSTER.md for the wire protocol and the failure matrix.
"""

import os
import subprocess
import sys
import tempfile
import threading

import repro
from repro.cluster import run_worker
from repro.config import dump_config
from repro.search import SearchEngine, SearchOptions
from repro.workloads import make_nas

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def main() -> None:
    # 1. The serial reference.
    reference = SearchEngine(make_nas("cg", "T"), SearchOptions()).run()
    print(f"serial:    {reference.configs_tested} configurations tested")

    options = SearchOptions(cluster="127.0.0.1:0", workers=4, lease_timeout=5.0)

    # 2. Two worker threads serve the whole search.
    engine = SearchEngine(make_nas("cg", "T"), options)
    address = engine.evaluator.executor.address
    threads = [
        threading.Thread(target=run_worker, args=(address,), daemon=True)
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    clustered = engine.run()
    for thread in threads:
        thread.join(timeout=30)
    print(f"cluster:   {clustered.configs_tested} configurations tested "
          f"across {engine.evaluator.executor.workers_seen} workers")
    same = dump_config(clustered.final_config) == dump_config(
        reference.final_config
    )
    print(f"identical final configuration: {same}")

    # 3. One subprocess worker crashes while holding a lease (the
    #    sentinel file makes it os._exit exactly once); a second worker
    #    finishes the search.
    sentinel = tempfile.mktemp(prefix="repro-crash-")
    open(sentinel, "w").close()
    engine = SearchEngine(make_nas("cg", "T"), options)
    address = engine.evaluator.executor.address
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    doomed = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", address, "--quiet"],
        env=dict(env, REPRO_WORKER_EXIT_SENTINEL=sentinel),
    )

    def survivor_when_doomed_is_in() -> None:
        # Let the doomed worker connect (and take the first lease)
        # before the survivor joins, so the crash actually happens.
        import time

        deadline = time.monotonic() + 30
        while (engine.evaluator.executor.workers_seen < 1
               and time.monotonic() < deadline):
            time.sleep(0.05)
        run_worker(address)

    survivor = threading.Thread(target=survivor_when_doomed_is_in, daemon=True)
    survivor.start()
    crashed = engine.run()
    doomed.wait(timeout=30)
    survivor.join(timeout=30)
    print(f"crashed worker exit code {doomed.returncode}; "
          f"{engine.evaluator.executor.requeues} lease(s) requeued")
    same = dump_config(crashed.final_config) == dump_config(
        reference.final_config
    )
    print(f"identical final configuration after crash: {same}")


if __name__ == "__main__":
    main()
