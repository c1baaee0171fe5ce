"""Failure injection: degraded and hostile inputs through the pipeline.

A production deployment will eventually see an empty feed, a dead pDNS
collector, a day of missing traffic, a kill -9 mid-save, or a checkpoint
mangled in transit.  Each case must either degrade gracefully (documented
fallback, recorded in provenance) or fail loudly with an actionable error
— never a silent wrong answer.
"""

import dataclasses
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import ObservationContext, Segugio, SegugioConfig
from repro.core.tracker import DomainTracker
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.eval.chaos import run_chaos
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.obs.events import RuntimeEventLog, use_event_log
from repro.pdns.database import PassiveDNSDatabase
from repro.runtime.checkpoint import drift_sidecar_path, load_drift_sidecar
from repro.runtime.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.runtime.supervisor import SupervisorPolicy, supervised_process_day
from repro.utils.errors import CheckpointError, IngestError
from repro.utils.ids import Interner

FAST = SegugioConfig(n_estimators=5)


def degraded_context(base: ObservationContext, **overrides) -> ObservationContext:
    return dataclasses.replace(base, **overrides)


class TestEmptyFeeds:
    def test_empty_blacklist_fails_loudly(self, train_context):
        empty = CncBlacklist("empty")
        context = degraded_context(train_context, blacklist=empty)
        with pytest.raises(ValueError, match="malware"):
            Segugio(FAST).fit(context)

    def test_empty_whitelist_fails_loudly(self, train_context):
        context = degraded_context(train_context, whitelist=DomainWhitelist([]))
        with pytest.raises(ValueError, match="benign"):
            Segugio(FAST).fit(context)

    def test_classify_with_empty_feeds_still_scores(self, train_context, test_context):
        """Classification needs no fresh ground truth: a model trained on a
        good day still scores a day whose feeds went dark (every domain is
        unknown then)."""
        model = Segugio(FAST).fit(train_context)
        dark = degraded_context(
            test_context,
            blacklist=CncBlacklist("dark"),
            whitelist=DomainWhitelist([]),
        )
        report = model.classify(dark)
        assert len(report) > 0


class TestDeadCollectors:
    def test_empty_pdns_degrades_f3_to_zero(self, train_context):
        context = degraded_context(train_context, pdns=PassiveDNSDatabase())
        model = Segugio(FAST).fit(context)
        X = model.training_set_.X
        assert (X[:, 7:11] == 0).all()
        # The model still trains and ranks on F1/F2 alone.
        assert model.classifier_ is not None

    def test_empty_activity_degrades_f2_to_zero(self, train_context):
        context = degraded_context(
            train_context,
            fqd_activity=ActivityIndex(),
            e2ld_activity=ActivityIndex(),
        )
        model = Segugio(FAST).fit(context)
        X = model.training_set_.X
        assert (X[:, 3:7] == 0).all()

    def test_empty_trace_fails_loudly(self, train_context):
        machines, domains = Interner(), Interner()
        empty_trace = DayTrace.build(train_context.day, machines, domains, [], [])
        context = degraded_context(train_context, trace=empty_trace)
        with pytest.raises(ValueError):
            Segugio(FAST).fit(context)


class TestHostileInputs:
    def test_hiding_nonexistent_ids_is_harmless(self, train_context):
        model = Segugio(FAST)
        # Ids beyond the edge set simply have no edges; labeling arrays
        # cover the full interner space.
        huge = [len(train_context.trace.domains) - 1]
        model.fit(train_context, exclude_domains=huge)
        assert model.classifier_ is not None

    def test_duplicate_hidden_ids_deduplicated_effect(self, train_context, test_context):
        model = Segugio(FAST).fit(train_context)
        some = [int(test_context.trace.edge_domains[0])] * 5
        report = model.classify(test_context, hide_domains=some)
        assert len(report) > 0

    def test_blacklist_whitelist_conflict_resolved_to_malware(self, scenario):
        """A domain in both feeds is treated as malware (the blacklist is
        analyst-vetted; the whitelist is popularity-derived)."""
        from repro.core.graph import BehaviorGraph
        from repro.core.labeling import MALWARE, label_domains

        context = scenario.context("isp1", scenario.eval_day(0))
        graph = BehaviorGraph.from_trace(context.trace)
        core_fqd = scenario.domains.name(int(scenario.universe.fqd_ids[0]))
        conflicted = CncBlacklist("conflict")
        conflicted.add(core_fqd, added_day=0)
        labels = label_domains(
            graph,
            conflicted,
            context.whitelist,
            context.e2ld_index,
            as_of_day=context.day,
        )
        domain_id = context.domain_id(core_fqd)
        if domain_id is not None and graph.domain_degrees()[domain_id] > 0:
            assert labels[domain_id] == MALWARE

    def test_future_blacklist_entries_invisible(self, train_context):
        """Entries time-stamped after the observation day must not leak."""
        future = CncBlacklist("future")
        for entry in train_context.blacklist:
            future.add(entry.domain, added_day=train_context.day + 100, family=entry.family)
        context = degraded_context(train_context, blacklist=future)
        with pytest.raises(ValueError, match="malware"):
            Segugio(FAST).fit(context)


class TestDegradationProvenance:
    """Every degraded run must carry the record of *what* was degraded."""

    def test_dead_pdns_day_is_tagged(self, scenario):
        context = degraded_context(
            scenario.context("isp1", scenario.eval_day(0)),
            pdns=PassiveDNSDatabase(),
        )
        tracker = DomainTracker(config=FAST)
        report = tracker.process_day(context)
        assert "pdns_empty_window:f3_zero" in report.provenance
        assert "pdns_empty_window:warning" in report.provenance
        assert "degraded" in report.summary()

    def test_dead_activity_day_is_tagged(self, scenario):
        context = degraded_context(
            scenario.context("isp1", scenario.eval_day(0)),
            fqd_activity=ActivityIndex(),
            e2ld_activity=ActivityIndex(),
        )
        report = DomainTracker(config=FAST).process_day(context)
        assert "fqd_activity_empty:f2_zero" in report.provenance
        assert "e2ld_activity_empty:f2_zero" in report.provenance

    def test_healthy_day_carries_no_tags(self, scenario):
        context = scenario.context("isp1", scenario.eval_day(0))
        report = DomainTracker(config=FAST).process_day(context)
        assert report.provenance == []
        assert "degraded" not in report.summary()


class TestKillAndResume:
    """A tracking run killed after day *k* must resume bit-identically."""

    @pytest.fixture(scope="class")
    def four_days(self, scenario):
        return [
            scenario.context("isp1", scenario.eval_day(i)) for i in range(4)
        ]

    @pytest.fixture(scope="class")
    def uninterrupted(self, four_days):
        tracker = DomainTracker(config=FAST, fp_target=0.01)
        for context in four_days:
            tracker.process_day(context)
        return tracker

    def test_resumed_ledger_is_bit_identical(
        self, four_days, uninterrupted, tmp_path, test_context
    ):
        interrupted = DomainTracker(config=FAST, fp_target=0.01)
        for context in four_days[:2]:
            interrupted.process_day(context)
        ckpt = str(tmp_path / "killed-after-day-2.ckpt")
        interrupted.save_checkpoint(ckpt)
        del interrupted  # the process dies here

        resumed = DomainTracker.resume(ckpt)
        assert resumed.days_processed == [c.day for c in four_days[:2]]
        for context in four_days[2:]:
            resumed.process_day(context)

        assert resumed.state_dict() == uninterrupted.state_dict()
        assert resumed.day_thresholds == uninterrupted.day_thresholds
        feed = test_context.blacklist
        assert resumed.confirmations(feed) == uninterrupted.confirmations(feed)

    def test_resume_refuses_replaying_a_scored_day(self, four_days, tmp_path):
        tracker = DomainTracker(config=FAST, fp_target=0.01)
        tracker.process_day(four_days[0])
        ckpt = str(tmp_path / "day-one.ckpt")
        tracker.save_checkpoint(ckpt)
        resumed = DomainTracker.resume(ckpt)
        with pytest.raises(ValueError, match="order"):
            resumed.process_day(four_days[0])

    def test_corrupted_checkpoint_refused_not_resumed(
        self, four_days, tmp_path
    ):
        tracker = DomainTracker(config=FAST, fp_target=0.01)
        tracker.process_day(four_days[0])
        ckpt = str(tmp_path / "mangled.ckpt")
        tracker.save_checkpoint(ckpt)
        with open(ckpt, "rb") as stream:
            blob = bytearray(stream.read())
        blob[len(blob) // 2] ^= 0xFF  # one flipped bit in transit
        with open(ckpt, "wb") as stream:
            stream.write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            DomainTracker.resume(ckpt)


class TestTornSaves:
    """kill -9 during a save must never leave a half-written observation."""

    def test_interrupted_observation_save_keeps_previous(
        self, tmp_path, train_context, test_context, scenario, monkeypatch
    ):
        from repro.datasets import store
        from repro.runtime.ingest import load_observation_checked

        directory = str(tmp_path / "obs")
        suffixes = scenario.universe.identified_services
        store.save_observation(
            directory, train_context, private_suffixes=suffixes
        )
        real_write = store._write_observation

        def dies_midway(staging, context, *args, **kwargs):
            real_write(staging, context, *args, **kwargs)
            os.remove(os.path.join(staging, "pdns.npz"))  # torn output
            raise OSError("disk full")

        monkeypatch.setattr(store, "_write_observation", dies_midway)
        with pytest.raises(OSError, match="disk full"):
            store.save_observation(
                directory, test_context, private_suffixes=suffixes
            )
        assert not os.path.exists(directory + ".tmp")
        survivor, _ = load_observation_checked(directory)
        assert survivor.day == train_context.day
        assert survivor.trace.n_edges == train_context.trace.n_edges

    @given(
        old=st.binary(min_size=1, max_size=64),
        new=st.binary(min_size=1, max_size=64),
        kill_at=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=30, deadline=None)
    def test_atomic_file_never_tears(self, old, new, kill_at):
        """Round trip: an interrupted save leaves the old bytes exactly; a
        completed save leaves the new bytes exactly; never a mixture."""
        import tempfile

        from repro.runtime.retry import atomic_file

        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "payload.bin")
            with open(target, "wb") as stream:
                stream.write(old)
            interrupted = kill_at < len(new)
            try:
                with atomic_file(target) as staging:
                    with open(staging, "wb") as stream:
                        stream.write(new[:kill_at] if interrupted else new)
                    if interrupted:
                        raise KeyboardInterrupt  # kill -9 stand-in
            except KeyboardInterrupt:
                pass
            with open(target, "rb") as stream:
                assert stream.read() == (old if interrupted else new)
            assert not os.path.exists(target + ".tmp")


class TestFuzzedDirectoryEndToEnd:
    """A fuzzed export must still score (lenient) with counters, or abort."""

    def test_lenient_load_of_fuzzed_export_still_scores(
        self, tmp_path, train_context, scenario
    ):
        from repro.datasets.store import save_observation
        from repro.runtime.ingest import load_observation_checked

        directory = str(tmp_path / "obs")
        save_observation(
            directory,
            train_context,
            private_suffixes=scenario.universe.identified_services,
        )
        with open(os.path.join(directory, "trace.tsv"), "a") as stream:
            stream.write("mX\tzzz.example\t999.999.999.999\n")
            stream.write("half a line\n")
        with open(os.path.join(directory, "blacklist.tsv"), "a") as stream:
            stream.write("no-day-column.example\n")

        context, report = load_observation_checked(directory, mode="lenient")
        assert report.counters == {
            "trace:bad_ipv4": 1,
            "trace:bad_columns": 1,
            "blacklist:bad_columns": 1,
        }
        model = Segugio(FAST).fit(context)
        assert len(model.classify(context)) > 0

    def test_error_rate_cap_aborts_instead_of_scoring_garbage(
        self, tmp_path, train_context, scenario
    ):
        from repro.datasets.store import save_observation
        from repro.runtime.ingest import load_observation_checked

        directory = str(tmp_path / "obs")
        save_observation(
            directory,
            train_context,
            private_suffixes=scenario.universe.identified_services,
        )
        with open(os.path.join(directory, "trace.tsv"), "a") as stream:
            for i in range(20_000):  # far beyond the 5% default cap
                stream.write(f"garbage-row-{i}\n")
        with pytest.raises(IngestError, match="cap"):
            load_observation_checked(directory, mode="lenient")


# any combination of transient faults at the day's two in-process sites,
# firing at most twice in all so they stay within the default policy's
# day-retry budget (the invariant under test is byte-identity, not
# exhaustion)
_FAULT_SPECS = st.lists(
    st.builds(
        FaultSpec,
        kind=st.just("io_error"),
        site=st.sampled_from(["pipeline_fit", "pipeline_classify"]),
        count=st.integers(min_value=1, max_value=2),
    ),
    max_size=2,
    unique_by=lambda spec: spec.site,
).filter(lambda specs: sum(spec.count for spec in specs) <= 2)


class TestAnyFaultPlanIsHarmless:
    """Property: whatever the fault plan, the ledger bytes never change."""

    @pytest.fixture(scope="class")
    def clean_state(self, train_context):
        tracker = DomainTracker(config=FAST, fp_target=0.01)
        tracker.process_day(train_context)
        return tracker.state_dict()

    @given(specs=_FAULT_SPECS)
    @settings(max_examples=5, deadline=None)
    def test_blacklists_survive_any_plan_bit_identically(
        self, specs, clean_state, train_context
    ):
        policy = SupervisorPolicy(base_delay=0.0, sleep=lambda _: None)
        tracker = DomainTracker(config=FAST, fp_target=0.01)
        with use_fault_plan(FaultPlan(list(specs))):
            with use_event_log(RuntimeEventLog()):
                supervised_process_day(tracker, train_context, policy=policy)
        assert tracker.state_dict() == clean_state


class TestChaosHarness:
    """The ``segugio chaos`` twin-run harness proves its own invariants."""

    def test_canned_plan_passes_every_invariant(self, tmp_path):
        report = run_chaos(
            out_dir=str(tmp_path / "chaos"), days=2, estimators=5
        )
        assert report.passed, report.summary()
        names = [invariant.name for invariant in report.invariants]
        assert "outputs_bit_identical" in names
        assert "checkpoint_intact" in names
        assert "degradations_recorded" in names
        assert report.fired  # the canned plan really injected something
        assert "PASS" in report.summary()

    def test_midrun_kill_restores_ledger_and_drift_sidecar(self, tmp_path):
        report = run_chaos(
            out_dir=str(tmp_path / "chaos"),
            days=2,
            estimators=5,
            kill_day_offset=0,  # crash + resume after the first day
        )
        assert report.passed, report.summary()
        by_name = {invariant.name: invariant for invariant in report.invariants}
        assert by_name["ledger_bit_identical"].passed
        assert by_name["drift_monitor_continuity"].passed

    def test_profiled_chaos_run_stays_bit_identical(self, tmp_path):
        """Resource profiling under faults changes no bytes, and the chaos
        manifest gains the additive ``resources`` key."""
        import json

        out_dir = str(tmp_path / "chaos")
        report = run_chaos(
            out_dir=out_dir, days=1, estimators=5, profile=True
        )
        assert report.passed, report.summary()
        with open(report.manifest_path) as stream:
            manifest = json.load(stream)
        resources = manifest["resources"]
        assert resources["schema_version"] == 1
        assert resources["process"]["wall_s"] > 0


class TestDriftSidecar:
    """The drift reference rides in a sidecar outside the checksummed blob."""

    @pytest.fixture(scope="class")
    def tracked_ckpt(self, tmp_path_factory, scenario):
        tracker = DomainTracker(config=FAST, fp_target=0.01)
        for i in range(2):
            tracker.process_day(scenario.context("isp1", scenario.eval_day(i)))
        path = str(tmp_path_factory.mktemp("sidecar") / "run.ckpt")
        tracker.save_checkpoint(path)
        return path, tracker

    def test_sidecar_round_trips_the_reference(self, tracked_ckpt):
        path, tracker = tracked_ckpt
        assert os.path.exists(drift_sidecar_path(path))
        stored = load_drift_sidecar(path)
        live = tracker.drift_reference()
        assert stored is not None and live is not None
        assert stored["day"] == live["day"]
        np.testing.assert_array_equal(stored["features"], live["features"])
        np.testing.assert_array_equal(stored["scores"], live["scores"])
        assert stored["blacklist"] == live["blacklist"]

    def test_resume_restores_the_drift_reference(self, tracked_ckpt):
        path, tracker = tracked_ckpt
        resumed = DomainTracker.resume(path)
        restored = resumed.drift_reference()
        assert restored is not None
        assert restored["day"] == tracker.drift_reference()["day"]

    def test_corrupt_sidecar_degrades_to_first_day_semantics(
        self, tracked_ckpt, tmp_path
    ):
        path, _tracker = tracked_ckpt
        ckpt = str(tmp_path / "run.ckpt")
        shutil.copy(path, ckpt)
        with open(drift_sidecar_path(ckpt), "wb") as stream:
            stream.write(b"definitely not an npz archive")
        resumed = DomainTracker.resume(ckpt)  # degrades, never raises
        assert resumed.drift_reference() is None

    def test_stale_sidecar_for_another_day_is_ignored(self, tracked_ckpt):
        path, tracker = tracked_ckpt
        day = int(tracker.drift_reference()["day"])
        assert load_drift_sidecar(path, expected_day=day) is not None
        assert load_drift_sidecar(path, expected_day=day + 1) is None

    def test_missing_sidecar_is_not_an_error(self, tracked_ckpt, tmp_path):
        path, _tracker = tracked_ckpt
        ckpt = str(tmp_path / "bare.ckpt")
        shutil.copy(path, ckpt)  # a checkpoint shipped without its sidecar
        resumed = DomainTracker.resume(ckpt)
        assert resumed.drift_reference() is None
