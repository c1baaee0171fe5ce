"""Out-of-core paper-scale day emitter: determinism, strata, equivalence."""

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import Segugio, SegugioConfig
from repro.synth.bigday import BigDay, BigDayConfig

FAST = SegugioConfig(n_estimators=5)


@pytest.fixture(scope="module")
def world():
    return BigDay(BigDayConfig.for_edges(30_000, seed=11, n_days=2))


class TestConfig:
    def test_for_edges_hits_target(self, world):
        config = world.config
        trace = world.trace(config.start_day)
        assert trace.n_edges >= 30_000

    def test_strata_partition_machines(self):
        config = BigDayConfig(n_machines=5_000)
        total = (
            config.n_inactive
            + config.n_meganodes
            + config.n_infected
            + config.n_normal
        )
        assert total == config.n_machines

    def test_domain_pools_scale_with_population(self):
        small = BigDayConfig.for_edges(30_000, seed=0)
        large = BigDayConfig.for_edges(300_000, seed=0)
        assert large.n_mid > small.n_mid
        assert large.n_hot > small.n_hot


class TestDeterminism:
    def test_batch_size_independent(self, world):
        day = world.config.start_day
        small = [b for b in world.iter_edge_batches(day, 97)]
        large = [b for b in world.iter_edge_batches(day, 50_000)]
        np.testing.assert_array_equal(
            np.concatenate([m for m, _ in small]),
            np.concatenate([m for m, _ in large]),
        )
        np.testing.assert_array_equal(
            np.concatenate([d for _, d in small]),
            np.concatenate([d for _, d in large]),
        )

    def test_same_seed_same_rows(self):
        config = BigDayConfig.for_edges(30_000, seed=11, n_days=2)
        a = BigDay(config).trace(config.start_day)
        b = BigDay(config).trace(config.start_day)
        np.testing.assert_array_equal(a.edge_machines, b.edge_machines)
        np.testing.assert_array_equal(a.edge_domains, b.edge_domains)

    def test_days_differ(self, world):
        day = world.config.start_day
        a = world.trace(day)
        b = world.trace(day + 1)
        assert not np.array_equal(a.edge_domains, b.edge_domains)


class TestShardedEquivalence:
    def test_sharded_context_scores_bit_identical(self, tmp_path, world):
        day = world.config.start_day
        ref_context = world.context(day)
        ref = Segugio(FAST).fit(ref_context).classify(ref_context)

        context = world.context(
            day, store_dir=str(tmp_path), shards=3, batch_size=4096
        )
        assert getattr(context.trace, "is_sharded", False)
        got = Segugio(FAST).fit(context).classify(context)
        np.testing.assert_array_equal(got.domain_ids, ref.domain_ids)
        np.testing.assert_array_equal(got.scores, ref.scores)
        np.testing.assert_array_equal(got.features, ref.features)

    def test_n_jobs_starts_no_process_and_changes_no_bytes(
        self, tmp_path, world, monkeypatch
    ):
        """``n_jobs`` is read by nothing: a 2-shard day at ``n_jobs=2``
        runs in this process and scores what ``n_jobs=1`` scores."""
        import multiprocessing
        from multiprocessing.process import BaseProcess

        started = []
        start = BaseProcess.start
        monkeypatch.setattr(
            BaseProcess, "start", lambda self: started.append(self) or start(self)
        )
        day = world.config.start_day
        reports = {}
        for jobs in (1, 2):
            context = world.context(
                day, store_dir=str(tmp_path / f"jobs{jobs}"), shards=2
            )
            config = dataclasses.replace(FAST, n_jobs=jobs)
            reports[jobs] = Segugio(config).fit(context).classify(context)
            assert started == []
            assert multiprocessing.active_children() == []
        np.testing.assert_array_equal(reports[2].domain_ids, reports[1].domain_ids)
        np.testing.assert_array_equal(reports[2].scores, reports[1].scores)


class TestStrataBehavior:
    @pytest.fixture(scope="class")
    def prune(self, world):
        return Segugio(FAST).prepare_day(
            world.context(world.config.start_day)
        ).prune

    def test_all_four_rules_fire(self, prune):
        stats = prune.stats
        assert stats["removed_r1_machines"] >= 1, "inactive machines → R1"
        assert stats["removed_r2_machines"] >= 1, "meganodes → R2"
        assert stats["removed_r3_domains"] >= 1, "tail domains → R3"
        assert stats["removed_r4_domains"] >= 1, "CDN fqds → R4"

    def test_fresh_cnc_scores_dominate(self, world):
        day = world.config.start_day
        context = world.context(day)
        report = Segugio(FAST).fit(context).classify(context)
        names = [
            context.trace.domains.name(int(d)) for d in report.domain_ids
        ]
        scores = np.asarray(report.scores)
        cnc = np.array(["-cc.example" in name for name in names])
        assert cnc.any(), "fresh C&C domains must survive pruning"
        assert scores[cnc].mean() > 0.9
        assert scores[~cnc].mean() < 0.3
