"""Crash-fault tolerance: worker death must never abort a campaign.

Fault injection goes through :data:`repro.search.parallel.FAULT_HOOK` —
set parent-side before the pool forks, inherited by every worker
(including respawned pools).  The file-sentinel idiom crashes exactly
once across respawns: ``os.unlink`` is atomic, so only one worker wins
the race to die.
"""

import os

import pytest

from repro.search import Evaluator, SearchEngine, SearchOptions
from repro.search.parallel import ParallelEvaluator, fork_available
from repro.search.results import REASON_WORKER_CRASH
from repro.workloads import make_workload

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)


def _crash_once_hook(sentinel: str):
    """Kill the calling worker iff it wins the race for *sentinel*."""

    def hook(flags):
        try:
            os.unlink(sentinel)
        except FileNotFoundError:
            return
        os._exit(1)

    return hook


def _crash_on_module_hook(flags):
    """Kill the worker whenever a module-level flag is being tested."""
    if any(key.startswith("MODL") for key in flags):
        os._exit(1)


@pytest.fixture
def fault_hook(monkeypatch):
    """Install a FAULT_HOOK for the duration of one test."""
    from repro.search import parallel

    def install(hook):
        monkeypatch.setattr(parallel, "FAULT_HOOK", hook)

    return install


def test_single_crash_recovered_transparently(tmp_path, fault_hook):
    sentinel = tmp_path / "crash-once"
    sentinel.touch()
    reference = SearchEngine(
        make_workload("cg", "T"), SearchOptions(workers=2)
    ).run()

    fault_hook(_crash_once_hook(str(sentinel)))
    options = SearchOptions(workers=2, retry_backoff=0.001)
    engine = SearchEngine(make_workload("cg", "T"), options)
    result = engine.run()

    assert not sentinel.exists(), "the injected crash never fired"
    assert engine.evaluator.executor.pool_respawns >= 1
    assert engine.evaluator.executor.crashed_configs == 0
    # The crash was invisible to the search: identical outcome.
    assert result.configs_tested == reference.configs_tested
    assert [(r.label, r.passed, r.cycles) for r in result.history] == [
        (r.label, r.passed, r.cycles) for r in reference.history
    ]
    assert not any(r.reason == REASON_WORKER_CRASH for r in result.history)


def test_persistent_crash_classified_not_fatal(fault_hook):
    fault_hook(_crash_on_module_hook)
    options = SearchOptions(workers=2, retry_limit=1, retry_backoff=0.001)
    engine = SearchEngine(make_workload("cg", "T"), options)
    result = engine.run()  # must complete despite every MODL eval dying

    crashed = [r for r in result.history if r.reason == REASON_WORKER_CRASH]
    assert crashed, "no evaluation was classified worker_crash"
    assert all(not r.passed for r in crashed)
    assert all("worker process died" in r.trap for r in crashed)
    assert engine.evaluator.executor.crashed_configs == len(crashed)
    # retry_limit=1 means one retry round per crash cohort: attempts=2.
    assert all("(x2 attempts)" in r.trap for r in crashed)
    # The search descended past the crashes and kept deciding configs.
    assert result.configs_tested > len(crashed)


def test_retry_exhaustion_outcome_shape(fault_hook):
    """Direct evaluator-level check of the bounded-retry classification."""
    from repro.config import Config, build_tree

    fault_hook(lambda flags: os._exit(1))
    workload = make_workload("cg", "T")
    tree = build_tree(workload.program)
    with ParallelEvaluator(
        workload, tree, workers=2, retry_limit=2, retry_backoff=0.001
    ) as evaluator:
        front = Evaluator(workload, executor=evaluator)
        outcome = front.evaluate(Config.all_single(tree))
    assert outcome.passed is False
    assert outcome.cycles == 0
    assert outcome.reason == REASON_WORKER_CRASH
    assert "x3 attempts" in outcome.trap  # 1 try + retry_limit retries
    assert evaluator.crashed_configs == 1
    assert evaluator.pool_respawns == 3


def test_crash_during_campaign_then_resume_identical(tmp_path, fault_hook):
    """The satellite integration test: a worker dies mid-campaign, the
    campaign is interrupted at the next batch boundary, and the resumed
    search still matches the uninterrupted reference exactly."""
    from repro.campaign import Campaign

    reference = SearchEngine(
        make_workload("cg", "T"), SearchOptions(workers=2)
    ).run()

    sentinel = tmp_path / "crash-once"
    sentinel.touch()
    fault_hook(_crash_once_hook(str(sentinel)))
    options = SearchOptions(workers=2, retry_backoff=0.001)
    workdir = tmp_path / "campaign"
    campaign = Campaign.create(workdir, "cg", "T", options)
    campaign.interrupt_after = 1
    with pytest.raises(KeyboardInterrupt):
        SearchEngine(
            make_workload("cg", "T"), options, campaign=campaign
        ).run()
    campaign.close()
    assert not sentinel.exists(), "the injected crash never fired"

    fault_hook(None)  # the fault is gone; only the journal+store remain
    resumed_campaign = Campaign.open(workdir)
    try:
        resumed = SearchEngine(
            make_workload("cg", "T"),
            resumed_campaign.options,
            campaign=resumed_campaign,
        ).run()
    finally:
        resumed_campaign.close()

    assert resumed.resumed
    assert resumed.configs_tested == reference.configs_tested
    assert resumed.final_config.flags == reference.final_config.flags
    assert [(r.label, r.passed, r.cycles, r.reason) for r in resumed.history] == [
        (r.label, r.passed, r.cycles, r.reason) for r in reference.history
    ]
