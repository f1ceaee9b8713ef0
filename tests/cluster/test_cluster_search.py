"""The cluster differential: a distributed search must be byte-identical
to the serial engine — same final configuration, same configs_tested —
no matter how many workers serve it.
"""

import json

import pytest

from repro.campaign import Campaign
from repro.config.fileformat import dump_config
from repro.search import SearchEngine, SearchOptions
from repro.store import ResultStore
from repro.workloads import make_workload

from tests.cluster.conftest import workers_running


def _cluster_options(**kwargs):
    defaults = dict(cluster="127.0.0.1:0", workers=4, lease_timeout=10.0)
    defaults.update(kwargs)
    return SearchOptions(**defaults)


def _run_cluster(name, klass, options, worker_count, **engine_kwargs):
    engine = SearchEngine(make_workload(name, klass), options, **engine_kwargs)
    with workers_running(engine.evaluator.executor.address, worker_count):
        return engine.run()


class TestDifferential:
    def test_one_worker_matches_serial_on_cg(self, serial_cg):
        reference, reference_config = serial_cg
        result = _run_cluster("cg", "T", _cluster_options(), 1)
        assert dump_config(result.final_config) == reference_config
        assert result.configs_tested == reference.configs_tested
        assert result.final_verified == reference.final_verified

    def test_four_workers_match_serial_on_cg(self, serial_cg):
        reference, reference_config = serial_cg
        result = _run_cluster("cg", "T", _cluster_options(), 4)
        assert dump_config(result.final_config) == reference_config
        assert result.configs_tested == reference.configs_tested

    def test_cluster_matches_serial_on_mg(self, serial_mg):
        reference, reference_config = serial_mg
        result = _run_cluster("mg", "T", _cluster_options(workers=2), 2)
        assert dump_config(result.final_config) == reference_config
        assert result.configs_tested == reference.configs_tested

    def test_batch_size_does_not_change_the_search(self, serial_cg):
        reference, reference_config = serial_cg
        result = _run_cluster("cg", "T", _cluster_options(workers=7), 2)
        assert dump_config(result.final_config) == reference_config
        assert result.configs_tested == reference.configs_tested


class TestStoreIntegration:
    def test_warm_rerun_executes_nothing(self, tmp_path, serial_cg):
        reference, reference_config = serial_cg
        db = str(tmp_path / "results.sqlite")
        with ResultStore(db) as store:
            first = _run_cluster(
                "cg", "T", _cluster_options(), 2, store=store,
            )
            assert dump_config(first.final_config) == reference_config

        # Warm re-run over the same store: every outcome replays
        # parent-side, so no task is ever leased — the search finishes
        # with ZERO workers connected.
        with ResultStore(db) as store:
            engine = SearchEngine(
                make_workload("cg", "T"), _cluster_options(), store=store,
            )
            warm = engine.run()
            assert engine.evaluator.executions == 0
            assert engine.evaluator.executor.leases_granted == 0
        assert dump_config(warm.final_config) == reference_config
        assert warm.configs_tested == reference.configs_tested

    def test_campaign_interrupt_resume_identical(self, tmp_path, serial_cg):
        reference, reference_config = serial_cg
        options = _cluster_options()
        workdir = tmp_path / "camp"

        campaign = Campaign.create(workdir, "cg", "T", options)
        campaign.interrupt_after = 2  # simulated coordinator SIGKILL
        engine = SearchEngine(
            make_workload("cg", "T"), options, campaign=campaign,
        )
        with pytest.raises(KeyboardInterrupt):
            with workers_running(engine.evaluator.executor.address, 2):
                engine.run()
        campaign.close()
        meta = json.loads((workdir / "campaign.json").read_text())
        assert meta["status"] == "interrupted"

        with Campaign.open(workdir) as resumed_campaign:
            # The durable options carry the old (now meaningless) bind
            # address; rebind to a fresh port as the CLI's --resume does.
            engine = SearchEngine(
                make_workload("cg", "T"), options, campaign=resumed_campaign,
            )
            with workers_running(engine.evaluator.executor.address, 2):
                result = engine.run()
        assert result.resumed
        assert dump_config(result.final_config) == reference_config
        assert result.configs_tested == reference.configs_tested
