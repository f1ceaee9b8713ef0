"""Distributed search service: coordinator + network workers.

The paper observes the search "is highly parallelizable, and the system
can launch many independent tests if cores are available"; this package
extends that beyond one machine.  A coordinator (``repro serve``, or any
``repro search --cluster``) owns the search frontier and leases
individual configuration evaluations to stateless TCP workers
(``repro worker HOST:PORT``) over the length-prefixed JSON protocol in
:mod:`repro.cluster.protocol`.  Leases are heartbeat-guarded: a worker
that dies or partitions mid-task has its work requeued under the shared
:class:`~repro.search.retry.RetryPolicy`, and results are deduplicated
first-wins — so the final configuration is byte-identical to a serial
search no matter how many workers join, leave, or crash along the way.

See ``docs/CLUSTER.md`` for the protocol and failure matrix.
"""

from repro.cluster.coordinator import (
    ClusterError,
    ClusterEvaluator,
    JobCancelled,
)
from repro.cluster.protocol import PROTOCOL_VERSION, ProtocolError, parse_address
from repro.cluster.worker import EXIT_SENTINEL_VAR, WorkerError, run_worker

__all__ = [
    "PROTOCOL_VERSION",
    "ClusterError",
    "ClusterEvaluator",
    "EXIT_SENTINEL_VAR",
    "JobCancelled",
    "ProtocolError",
    "WorkerError",
    "parse_address",
    "run_worker",
]
