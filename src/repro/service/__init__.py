"""Precision-search-as-a-service: a multi-tenant campaign server.

The paper frames mixed-precision adaptation as a per-program offline
search; the ROADMAP's north star is a production system answering
precision queries for many users at once.  This package is that
inversion of ownership: instead of one :class:`~repro.search.bfs.SearchEngine`
embedding its own coordinator, a long-lived :class:`PrecisionService`
owns one :mod:`repro.cluster` coordinator — and therefore one shared
worker pool — and hosts many concurrent search campaigns on top of it:

- A :class:`~repro.service.jobs.JobRegistry` accepts jobs over the wire
  (cluster protocol v4 ``submit``/``status``/``result``/``cancel``/
  ``list`` frames alongside the existing worker frames) with per-tenant
  admission quotas.
- Each job runs its own engine on a dedicated thread against an
  isolated campaign directory (journal + trace + metrics), so every
  result is byte-identical to the standalone search of the same
  options — differential-tested.
- Leases are multiplexed across campaigns by the coordinator's deficit
  round-robin scheduler with per-tenant in-flight quotas, so a big
  campaign cannot starve a small one.
- All jobs share one service-wide content-addressed
  :class:`~repro.store.ResultStore`: identical ``(workload_id,
  policy_digest)`` evaluations are answered once across tenants.

See ``docs/SERVICE.md`` for the job lifecycle, fairness model, and
protocol frames.
"""

from repro.cluster.coordinator import JobCancelled
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobRegistry, QuotaError
from repro.service.server import PrecisionService

__all__ = [
    "Job",
    "JobCancelled",
    "JobRegistry",
    "PrecisionService",
    "QuotaError",
    "ServiceClient",
    "ServiceError",
]
