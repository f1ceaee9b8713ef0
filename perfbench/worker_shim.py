"""A traced ``repro worker``: installs the benchmark's span wrappers,
serves the coordinator, then writes its spans.

Usage: ``python3 perfbench/worker_shim.py HOST:PORT SPAN_DIR`` with
``src`` on ``PYTHONPATH``.
"""

import sys

from spans import Tracer, install


def main() -> int:
    address, outdir = sys.argv[1], sys.argv[2]
    from repro.cluster import run_worker

    tracer = Tracer(outdir, role="worker")
    install(tracer)
    try:
        run_worker(address)
    finally:
        tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
