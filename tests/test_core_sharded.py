"""Sharded out-of-core day build: bit-identity with the in-memory path.

The determinism contract of :mod:`repro.core.sharded` is that at ANY
shard count and batch size, the merged per-shard build reproduces the
in-memory prepare/fit/classify outputs byte for byte — same edge arrays,
same rule attributions, same stats dict, same scores.  These tests
enforce that contract, plus kill-and-resume and fault injection through
the shard workers.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import Segugio, SegugioConfig
from repro.core.tracker import DomainTracker
from repro.datasets.edgestore import ShardedDayTrace
from repro.runtime.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.runtime.supervisor import (
    SupervisorPolicy,
    supervised_process_day,
)

FAST = SegugioConfig(n_estimators=5)
PARALLEL = SegugioConfig(n_estimators=5, n_jobs=2)


def _sharded(context, directory, n_shards, batch_size=1024):
    trace = ShardedDayTrace.from_day_trace(
        context.trace, str(directory), n_shards=n_shards, batch_size=batch_size
    )
    return dataclasses.replace(context, trace=trace)


@pytest.fixture(scope="module")
def reference(train_context):
    """In-memory PreparedDay of the shared train day."""
    return Segugio(FAST).prepare_day(train_context)


class TestPrepareDayBitIdentity:
    @pytest.mark.parametrize(
        "n_shards,batch_size", [(1, 100), (2, 1024), (7, 333)]
    )
    def test_graph_labels_stats_identical(
        self, tmp_path, train_context, reference, n_shards, batch_size
    ):
        ref_graph, ref_labels, ref_prune = (
            reference.graph, reference.labels, reference.prune
        )
        context = _sharded(
            train_context, tmp_path / "store", n_shards, batch_size
        )
        prepared = Segugio(FAST).prepare_day(context)
        graph, labels, prune = prepared.graph, prepared.labels, prepared.prune

        np.testing.assert_array_equal(
            graph.edge_machines, ref_graph.edge_machines
        )
        np.testing.assert_array_equal(
            graph.edge_domains, ref_graph.edge_domains
        )
        np.testing.assert_array_equal(
            labels.machine_labels, ref_labels.machine_labels
        )
        np.testing.assert_array_equal(
            labels.domain_labels, ref_labels.domain_labels
        )
        assert prune.stats == ref_prune.stats
        np.testing.assert_array_equal(
            prune.domain_rule, ref_prune.domain_rule
        )
        np.testing.assert_array_equal(
            prune.machine_rule, ref_prune.machine_rule
        )

    def test_resolutions_identical(self, tmp_path, train_context, reference):
        ref_graph = reference.graph
        context = _sharded(train_context, tmp_path / "store", 3)
        graph = Segugio(FAST).prepare_day(context).graph
        assert graph.resolutions.keys() == ref_graph.resolutions.keys()
        for did in ref_graph.resolutions:
            np.testing.assert_array_equal(
                graph.resolutions[did], ref_graph.resolutions[did]
            )

    def test_hide_domains_identical(self, tmp_path, train_context, reference):
        hide = train_context.trace.unique_domain_ids()[:5].tolist()
        ref = Segugio(FAST).prepare_day(train_context, hide_domains=hide)
        context = _sharded(train_context, tmp_path / "store", 2)
        got = Segugio(FAST).prepare_day(context, hide_domains=hide)
        np.testing.assert_array_equal(
            got.graph.edge_machines, ref.graph.edge_machines
        )
        np.testing.assert_array_equal(
            got.labels.domain_labels, ref.labels.domain_labels
        )
        np.testing.assert_array_equal(got.hidden, ref.hidden)

    def test_filter_probes_refused_with_clear_message(
        self, tmp_path, train_context
    ):
        context = _sharded(train_context, tmp_path / "store", 2)
        model = Segugio(SegugioConfig(n_estimators=5, filter_probes=True))
        with pytest.raises(ValueError, match="filter_probes"):
            model.prepare_day(context)


class TestScoresBitIdentity:
    def test_fit_classify_identical(
        self, tmp_path, train_context, test_context
    ):
        ref = Segugio(FAST).fit(train_context).classify(test_context)
        sharded_train = _sharded(train_context, tmp_path / "train", 3)
        sharded_test = _sharded(test_context, tmp_path / "test", 3)
        got = Segugio(FAST).fit(sharded_train).classify(sharded_test)
        np.testing.assert_array_equal(got.domain_ids, ref.domain_ids)
        np.testing.assert_array_equal(got.scores, ref.scores)
        np.testing.assert_array_equal(got.features, ref.features)

    def test_parallel_pool_identical(self, tmp_path, train_context):
        """Shard workers through a real process pool change no bytes."""
        ref = Segugio(FAST).fit(train_context).classify(train_context)
        context = _sharded(train_context, tmp_path / "store", 4)
        got = Segugio(PARALLEL).fit(context).classify(context)
        np.testing.assert_array_equal(got.domain_ids, ref.domain_ids)
        np.testing.assert_array_equal(got.scores, ref.scores)


class TestKillAndResume:
    def test_resume_through_sharded_days(self, tmp_path, scenario):
        """Checkpoint after a sharded day, resume, finish: the final
        ledger must match an uninterrupted sharded run byte for byte."""
        contexts = [
            scenario.context("isp1", scenario.eval_day(offset))
            for offset in range(2)
        ]
        sharded = [
            _sharded(context, tmp_path / f"day-{i}", 3)
            for i, context in enumerate(contexts)
        ]

        uninterrupted = DomainTracker(config=FAST, fp_target=0.01)
        for context in sharded:
            uninterrupted.process_day(context)

        tracker = DomainTracker(config=FAST, fp_target=0.01)
        tracker.process_day(sharded[0])
        ckpt = str(tmp_path / "run.ckpt")
        tracker.save_checkpoint(ckpt)
        del tracker  # the "kill"

        resumed = DomainTracker.resume(ckpt)
        resumed.process_day(sharded[1])
        assert resumed.state_dict() == uninterrupted.state_dict()


class TestFaultInjection:
    def test_shard_worker_faults_change_no_bytes(
        self, tmp_path, train_context
    ):
        """Kills and transient errors at the shard_* sites degrade the
        run (retry / serial fallback) without perturbing the ledger."""
        clean = DomainTracker(config=PARALLEL, fp_target=0.01)
        context = _sharded(train_context, tmp_path / "store", 4)
        clean.process_day(context)

        plan = FaultPlan(
            [
                FaultSpec(kind="worker_kill", site="shard_scan", task=1),
                FaultSpec(kind="io_error", site="shard_prune", task=0),
            ]
        )
        policy = SupervisorPolicy(base_delay=0.0, sleep=lambda _: None)
        tracker = DomainTracker(config=PARALLEL, fp_target=0.01)
        with use_fault_plan(plan):
            supervised_process_day(tracker, context, policy=policy)
        assert plan.n_fired > 0  # the plan really injected
        assert tracker.state_dict() == clean.state_dict()
