"""Trace and ledger guarantees of a tracked campaign, end to end.

Every day runs in one process, and each of these holds:

* the span tree is a *function of the work*, not the schedule —
  identical for every ``SegugioConfig.n_jobs`` value (a field that starts
  no process) and for sharded day contexts at any shard count, once
  timing and resource attributes are stripped;
* a profiled chaos run keeps the span of every day attempt, failed ones
  included;
* the streamed ``decisions.jsonl`` is byte-identical to the buffered
  path, including across a transient day retry;
* a fault fired while a sharded day runs is recorded under *that day*,
  and run health reports it there, never outside every day.
"""

import dataclasses
import json
import multiprocessing
import os

from repro.core.pipeline import SegugioConfig
from repro.core.tracker import DomainTracker
from repro.obs.run import RunTelemetry
from repro.runtime.faults import plan_from_dict, use_fault_plan
from repro.runtime.supervisor import SupervisorPolicy, supervised_process_day
from repro.synth.scenario import Scenario


def day_contexts(n_days=1, seed=7):
    scenario = Scenario.small(seed=seed)
    return [
        scenario.context("isp1", scenario.eval_day(offset))
        for offset in range(n_days)
    ]


def shard_contexts(contexts, root, n_shards):
    from repro.datasets.edgestore import ShardedDayTrace

    sharded = []
    for context in contexts:
        directory = os.path.join(root, f"day-{context.day:05d}")
        trace = ShardedDayTrace.from_day_trace(
            context.trace, directory, n_shards=n_shards, batch_size=512
        )
        sharded.append(dataclasses.replace(context, trace=trace))
    return sharded


def io_error_at(site, **where):
    return plan_from_dict(
        {"faults": [{"kind": "io_error", "site": site, "count": 1, **where}]},
        source="<test>",
    )


def run_campaign(contexts, n_jobs, estimators=20, profile=True):
    """One profiled tracked campaign; returns the run manifest."""
    telemetry = RunTelemetry(
        command="test", run_id="span-prop", profile=profile
    )
    tracker = DomainTracker(
        config=SegugioConfig(n_estimators=estimators, n_jobs=n_jobs),
        fp_target=0.01,
        telemetry=telemetry,
    )
    for context in contexts:
        tracker.process_day(context)
    assert multiprocessing.active_children() == []
    return telemetry.build_manifest()


#: attributes that are measurements, not work
MEASURED_ATTRS = frozenset({"resources"})


def normalize(span):
    """A span tree with timing and measured attributes stripped."""
    attributes = {
        key: value
        for key, value in (span.get("attributes") or {}).items()
        if key not in MEASURED_ATTRS
    }
    return {
        "name": span.get("name"),
        "status": span.get("status"),
        "attributes": attributes,
        "children": [normalize(c) for c in span.get("children") or []],
    }


def normalized_tree(manifest):
    return json.dumps(
        [normalize(span) for span in manifest["spans"]], sort_keys=True
    )


def span_names(spans):
    names = set()
    for span in spans:
        names.add(span.get("name"))
        names |= span_names(span.get("children") or [])
    return names


def find_spans(spans, name):
    found = []
    for span in spans:
        if span.get("name") == name:
            found.append(span)
        found.extend(find_spans(span.get("children") or [], name))
    return found


class TestSpanTreeScheduleInvariance:
    """The span tree depends on the work, never on the schedule."""

    def test_identical_across_n_jobs(self):
        contexts = day_contexts()
        trees = {
            n_jobs: normalized_tree(run_campaign(contexts, n_jobs))
            for n_jobs in (1, 2, 4)
        }
        assert trees[1] == trees[2] == trees[4]

    def test_identical_across_n_jobs_when_sharded(self, tmp_path):
        contexts = shard_contexts(day_contexts(), str(tmp_path), n_shards=2)
        trees = {
            n_jobs: normalized_tree(run_campaign(contexts, n_jobs))
            for n_jobs in (1, 2, 4)
        }
        assert trees[1] == trees[2] == trees[4]

    def test_invariance_holds_at_other_shard_counts(self, tmp_path):
        contexts = shard_contexts(day_contexts(), str(tmp_path), n_shards=3)
        serial = normalized_tree(run_campaign(contexts, 1))
        parallel = normalized_tree(run_campaign(contexts, 2))
        assert serial == parallel

    def test_sharded_run_traces_every_pool_phase(self, tmp_path):
        """The phases that once ran as pool tasks — scan, labels, prune
        and the forest's fit and predict — are spans of the day."""
        contexts = shard_contexts(day_contexts(), str(tmp_path), n_shards=2)
        spans = run_campaign(contexts, 2)["spans"]
        (build,) = find_spans(spans, "segugio_sharded_build")
        assert build["attributes"]["n_shards"] == 2
        assert {"build_graph", "label_nodes", "prune_graph"} <= span_names(
            build.get("children") or []
        )
        assert {"segugio_forest_fit", "segugio_forest_predict"} <= span_names(
            spans
        )

    def test_rerun_is_identical_including_timestamps_stripped(self):
        contexts = day_contexts()
        first = normalized_tree(run_campaign(contexts, 2))
        second = normalized_tree(run_campaign(contexts, 2))
        assert first == second


class TestChaosRetryAccounting:
    """No span is lost when a chaos plan makes days fail and retry."""

    def test_profiled_chaos_run_accounts_for_every_span(self, tmp_path):
        from repro.eval.chaos import run_chaos

        out_dir = tmp_path / "chaos"
        report = run_chaos(
            out_dir=str(out_dir), days=1, estimators=18, profile=True
        )
        assert report.passed, report.summary()
        with open(out_dir / "manifest.json") as stream:
            manifest = json.load(stream)
        retries = [
            event
            for event in manifest["runtime_events"]
            if event["kind"] == "day_retry"
        ]
        assert retries  # the default plan must fail a day
        # one day span per attempt: every failed attempt is kept, in error
        days = find_spans(manifest["spans"], "segugio_run_day")
        assert len(days) == 1 + len(retries)
        assert [span["status"] for span in days].count("error") == len(retries)


class TestStreamedDecisionsByteIdentity:
    """Streaming the ledger must not change a single byte."""

    def run_tracked(self, out_dir, stream, contexts, fault_plan=None):
        telemetry = RunTelemetry(command="test", run_id="stream-check")
        tracker = DomainTracker(
            config=SegugioConfig(n_estimators=12),
            fp_target=0.01,
            telemetry=telemetry,
        )
        if stream:
            telemetry.stream_decisions(out_dir)
        policy = SupervisorPolicy(base_delay=0.0)
        with use_fault_plan(fault_plan):
            for context in contexts:
                with telemetry.activate():
                    supervised_process_day(tracker, context, policy=policy)
        telemetry.write(out_dir)
        with open(os.path.join(out_dir, "decisions.jsonl"), "rb") as stream_:
            return stream_.read()

    def test_streamed_bytes_equal_buffered_bytes(self, tmp_path):
        contexts = day_contexts(n_days=2)
        buffered = self.run_tracked(
            str(tmp_path / "buffered"), stream=False, contexts=contexts
        )
        streamed = self.run_tracked(
            str(tmp_path / "streamed"), stream=True, contexts=contexts
        )
        assert buffered  # a campaign with no decisions proves nothing
        assert streamed == buffered

    def test_streamed_bytes_survive_day_retry(self, tmp_path):
        contexts = day_contexts(n_days=2)
        clean = self.run_tracked(
            str(tmp_path / "clean"), stream=True, contexts=contexts
        )
        plan = io_error_at("pipeline_fit")
        retried = self.run_tracked(
            str(tmp_path / "retried"),
            stream=True,
            contexts=contexts,
            fault_plan=plan,
        )
        assert plan.fired  # the fault must actually have fired
        assert retried == clean

    def test_a_failed_attempt_after_classify_is_neither_kept_nor_flushed(
        self, tmp_path, monkeypatch
    ):
        """A transient error after classify emitted the day's block: the
        retry drops that block (``DecisionLog.rollback``), and the failed
        attempt never reached the flush."""
        contexts = day_contexts(n_days=2)
        clean = self.run_tracked(
            str(tmp_path / "clean"), stream=True, contexts=contexts
        )
        check_quality = DomainTracker._check_quality
        failures = []

        def fail_once(tracker, *args, **kwargs):
            if not failures:
                failures.append(True)
                raise OSError("transient, after classify")
            return check_quality(tracker, *args, **kwargs)

        monkeypatch.setattr(DomainTracker, "_check_quality", fail_once)
        retried = self.run_tracked(
            str(tmp_path / "retried"), stream=True, contexts=contexts
        )
        assert failures  # the error must actually have been raised
        assert retried == clean

    def test_finalize_stream_is_idempotent(self, tmp_path):
        from repro.obs.provenance import DecisionLog
        from tests.test_obs_provenance import one_domain_block

        log = DecisionLog(enabled=True)
        path = str(tmp_path / "decisions.jsonl")
        log.stream_to(path)
        log.add_block(one_domain_block(1, score=0.5))
        log.finalize_day(1, threshold=0.4)
        log.flush_pending()
        assert log.finalize_stream() == path
        first = open(path, "rb").read()
        assert log.finalize_stream() == path  # second call must not truncate
        assert open(path, "rb").read() == first


class TestMidShardFaultDayAttribution:
    """A fault inside a sharded day lands under that day, not orphaned."""

    def test_shard_fault_event_stamped_with_its_day(self, tmp_path):
        contexts = shard_contexts(
            day_contexts(n_days=2), str(tmp_path), n_shards=2
        )
        fault_day = contexts[1].day
        plan = io_error_at("pipeline_classify", task=fault_day)
        telemetry = RunTelemetry(command="test", run_id="day-attrib")
        tracker = DomainTracker(
            config=SegugioConfig(n_estimators=12, n_jobs=2),
            fp_target=0.01,
            telemetry=telemetry,
        )
        policy = SupervisorPolicy(base_delay=0.0)
        with use_fault_plan(plan):
            for context in contexts:
                with telemetry.activate():
                    supervised_process_day(tracker, context, policy=policy)
        assert plan.fired
        manifest = telemetry.build_manifest()
        events = manifest["runtime_events"]
        assert [(e["kind"], e["day"]) for e in events] == [
            ("day_retry", fault_day)
        ]
        assert tracker.days_processed == [c.day for c in contexts]
        # run health names the retried day, and no event falls outside one
        reasons = manifest["health"]["reasons"]
        assert [
            r["day"] for r in reasons if r["rule"] == "supervisor_degraded"
        ] == [fault_day]
        assert [r for r in reasons if r["day"] is None] == []
