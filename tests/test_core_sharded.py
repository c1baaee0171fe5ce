"""Sharded out-of-core day build: bit-identity with the in-memory path.

The determinism contract of :mod:`repro.core.sharded` is that at ANY
shard count and batch size, the merged per-shard build reproduces the
in-memory prepare/fit/classify outputs byte for byte — same edge arrays,
same rule attributions, same stats dict, same scores.  These tests
enforce that contract, plus kill-and-resume and fault injection through
sharded days.
"""

import dataclasses
import multiprocessing

import numpy as np
import pytest

from repro.core.pipeline import Segugio, SegugioConfig
from repro.core.pruning import PruneConfig
from repro.core.sharded import _kept_subgraph
from repro.core.tracker import DomainTracker
from repro.datasets.edgestore import ShardedDayTrace
from repro.dns.trace import DayTrace
from repro.runtime.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.runtime.supervisor import (
    SupervisorPolicy,
    supervised_process_day,
)
from repro.utils.ids import Interner

FAST = SegugioConfig(n_estimators=5)
PARALLEL = SegugioConfig(n_estimators=5, n_jobs=2)

#: every rule switched off alone and together, every threshold moved — the
#: sharded path must follow the one R1-R4 wherever the config takes it
PRUNE_CONFIGS = {
    "no_r1": PruneConfig(apply_r1=False),
    "no_r2": PruneConfig(apply_r2=False),
    "no_r3": PruneConfig(apply_r3=False),
    "no_r4": PruneConfig(apply_r4=False),
    "no_rules": PruneConfig(
        apply_r1=False, apply_r2=False, apply_r3=False, apply_r4=False
    ),
    "r1_min_0": PruneConfig(r1_min_domains=0),
    "r2_pct_90": PruneConfig(r2_percentile=90),
    "r4_frac_005": PruneConfig(r4_machine_fraction=0.05),
}


def _sharded(context, directory, n_shards, batch_size=1024):
    trace = ShardedDayTrace.from_day_trace(
        context.trace, str(directory), n_shards=n_shards, batch_size=batch_size
    )
    return dataclasses.replace(context, trace=trace)


def _assert_same_day(got, ref):
    """Two PreparedDays agree bit for bit: graph, labels, rules, stats."""
    for part, fields in (
        ("graph", ("edge_machines", "edge_domains")),
        ("labels", ("machine_labels", "domain_labels")),
        ("prune", ("machine_rule", "domain_rule")),
    ):
        for field in fields:
            np.testing.assert_array_equal(
                getattr(getattr(got, part), field),
                getattr(getattr(ref, part), field),
                err_msg=f"{part}.{field}",
            )
    assert got.prune.stats == ref.prune.stats


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
        context = _sharded(
            train_context, tmp_path / "store", n_shards, batch_size
        )
        _assert_same_day(Segugio(FAST).prepare_day(context), reference)

    @pytest.mark.parametrize("name", sorted(PRUNE_CONFIGS))
    def test_identical_under_every_prune_config(
        self, tmp_path, train_context, reference, name
    ):
        config = dataclasses.replace(FAST, prune=PRUNE_CONFIGS[name])
        ref = Segugio(config).prepare_day(train_context)
        # the config really moved the outcome, so agreement is not vacuous
        assert ref.prune.stats != reference.prune.stats
        for n_shards in (1, 2, 7):
            context = _sharded(train_context, tmp_path / str(n_shards), n_shards)
            _assert_same_day(Segugio(config).prepare_day(context), ref)

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


class TestKeptEdgeMerge:
    """`_kept_subgraph` orders the shards' kept edges by one packed
    (machine, domain) key; the in-memory order is the (machine, domain)
    lexsort."""

    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    @pytest.mark.parametrize("seed", range(5))
    def test_order_equals_lexsort(self, tmp_path, n_shards, seed):
        rng = np.random.default_rng(seed)
        n_machines, n_domains = int(rng.integers(1, 40)), int(rng.integers(1, 60))
        machines = Interner(f"m{i}" for i in range(n_machines))
        domains = Interner(f"d{i}.com" for i in range(n_domains))
        n_rows = int(rng.integers(0, 400))
        trace = ShardedDayTrace.from_day_trace(
            DayTrace.build(
                0,
                machines,
                domains,
                rng.integers(0, n_machines, n_rows),
                rng.integers(0, n_domains, n_rows),
            ),
            str(tmp_path / "store"),
            n_shards=n_shards,
            batch_size=64,
        )
        keep_machines = rng.random(n_machines) < 0.8
        keep_domains = rng.random(n_domains) < 0.8
        graph = _kept_subgraph(trace, keep_machines, keep_domains)

        em, ed = (
            np.concatenate(columns)
            for columns in zip(
                *(trace.store.shard_edges(shard) for shard in range(n_shards))
            )
        )
        kept = keep_machines[em] & keep_domains[ed]
        em, ed = em[kept], ed[kept]
        order = np.lexsort((ed, em))
        np.testing.assert_array_equal(graph.edge_machines, em[order])
        np.testing.assert_array_equal(graph.edge_domains, ed[order])
        assert graph.domain_ids().tolist() == np.unique(ed).tolist()


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
        """Asking for two jobs starts no process and changes no bytes."""
        ref = Segugio(FAST).fit(train_context).classify(train_context)
        context = _sharded(train_context, tmp_path / "store", 4)
        got = Segugio(PARALLEL).fit(context).classify(context)
        assert multiprocessing.active_children() == []
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
        """Transient errors while a sharded day is learned and scored
        retry the whole day without perturbing the ledger."""
        clean = DomainTracker(config=PARALLEL, fp_target=0.01)
        context = _sharded(train_context, tmp_path / "store", 4)
        clean.process_day(context)

        plan = FaultPlan(
            [
                FaultSpec(kind="io_error", site="pipeline_fit"),
                FaultSpec(kind="io_error", site="pipeline_classify"),
            ]
        )
        policy = SupervisorPolicy(base_delay=0.0, sleep=lambda _: None)
        tracker = DomainTracker(config=PARALLEL, fp_target=0.01)
        with use_fault_plan(plan):
            supervised_process_day(tracker, context, policy=policy)
        assert plan.n_fired == 2  # the plan really injected
        assert tracker.state_dict() == clean.state_dict()


class TestLocatedErrors:
    @pytest.mark.parametrize("n_jobs", [0, -2])
    def test_bad_n_jobs_raises_before_any_shard_work(
        self, tmp_path, train_context, monkeypatch, n_jobs
    ):
        """The config refuses a nonsense n_jobs up front, before a single
        shard is scanned."""
        import repro.core.sharded as sharded

        def no_shard_work(*args, **kwargs):
            raise AssertionError("shard work started before n_jobs was checked")

        monkeypatch.setattr(sharded, "_shard_scan", no_shard_work)
        context = _sharded(train_context, tmp_path / "store", 2)
        with pytest.raises(ValueError, match=rf"n_jobs must be >= 1 or -1, got {n_jobs}"):
            Segugio(SegugioConfig(n_estimators=5, n_jobs=n_jobs)).prepare_day(context)

    @pytest.mark.parametrize("kind", ["machine", "domain"])
    def test_stale_interner_is_a_located_error(
        self, tmp_path, train_context, kind
    ):
        """A store written against more ids than the interner it is opened
        with holds: the in-memory path's message, not a bare IndexError."""
        trace = _sharded(train_context, tmp_path / "store", 2).trace
        interners = {"machine": trace.machines, "domain": trace.domains}
        stale = Interner()
        for name in interners[kind].names(range(10)):
            stale.intern(name)
        interners[kind] = stale
        with pytest.raises(
            ValueError,
            match=rf"{kind} ids .* outside the interned id space \[0, 10\) — "
            r"the trace was built against a stale or torn interner",
        ) as error:
            ShardedDayTrace.open(
                trace.directory, interners["machine"], interners["domain"]
            )
        assert trace.directory in str(error.value)

    def test_grown_interner_still_opens(self, tmp_path, train_context):
        """Interners are append-only across days: a store written earlier
        stays readable after they grew."""
        trace = _sharded(train_context, tmp_path / "store", 2).trace
        grown = Interner()
        for name in trace.machines.names(range(len(trace.machines))):
            grown.intern(name)
        grown.intern("a-machine-first-seen-tomorrow")
        reopened = ShardedDayTrace.open(trace.directory, grown, trace.domains)
        assert reopened.n_edges == trace.n_edges
