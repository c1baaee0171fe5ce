"""Integration guarantees for cross-process worker tracing (DESIGN.md §15).

Four contracts, end to end over real campaigns:

* the merged span tree is a *function of the work*, not the schedule —
  identical across worker counts (1/2/4) and for sharded day contexts
  at any shard count, once scheduling-only attributes are stripped;
* a profiled chaos run under ``worker_kill`` either keeps every worker
  span or quarantines the broken round's records, and quarantine is
  surfaced in run health rather than silently dropped;
* the streamed ``decisions.jsonl`` is byte-identical to the buffered
  path, including across a transient day retry;
* a fault fired inside a mid-shard pool task lands in the *right day's*
  ``runtime_events``, not in the orphan bucket.
"""

import dataclasses
import json
import os

import pytest

from repro.core.pipeline import SegugioConfig
from repro.core.tracker import DomainTracker
from repro.obs.run import RunTelemetry
from repro.runtime.faults import plan_from_dict, use_fault_plan
from repro.runtime.supervisor import (
    SupervisorPolicy,
    supervised_process_day,
    use_policy,
)
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
    return telemetry.build_manifest()


#: attributes that encode *scheduling*, not work: which process ran the
#: task, how many workers were asked for, and what the clock said
SCHEDULING_ATTRS = frozenset(
    {"worker", "n_jobs", "jobs", "resources", "skew_normalized"}
)


def normalize(span):
    """A span tree with timing and scheduling identity stripped."""
    attributes = {
        key: value
        for key, value in (span.get("attributes") or {}).items()
        if key not in SCHEDULING_ATTRS
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


def worker_span_labels(spans):
    labels = set()
    for span in spans:
        if span.get("name") == "segugio_worker_task":
            labels.add((span.get("attributes") or {}).get("label"))
        labels |= worker_span_labels(span.get("children") or [])
    return labels


class TestSpanTreeScheduleInvariance:
    """The merged tree depends on the work, never on the schedule."""

    def test_identical_across_worker_counts(self):
        contexts = day_contexts()
        trees = {
            n_jobs: normalized_tree(run_campaign(contexts, n_jobs))
            for n_jobs in (1, 2, 4)
        }
        assert trees[1] == trees[2] == trees[4]

    def test_identical_across_worker_counts_when_sharded(self, tmp_path):
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
        contexts = shard_contexts(day_contexts(), str(tmp_path), n_shards=2)
        manifest = run_campaign(contexts, 2)
        labels = worker_span_labels(manifest["spans"])
        assert {
            "shard_scan",
            "shard_labels",
            "shard_prune",
            "forest_fit",
        } <= labels
        # the merge accounted for every pool task, nothing lost
        workers = manifest["resources"]["workers"]
        pool = manifest["resources"]["pool"]
        for label, stats in pool.items():
            assert workers[label]["n_merged"] == stats["n_tasks"]
            assert workers[label]["n_missing"] == 0

    def test_rerun_is_identical_including_timestamps_stripped(self):
        contexts = day_contexts()
        first = normalized_tree(run_campaign(contexts, 2))
        second = normalized_tree(run_campaign(contexts, 2))
        assert first == second


class TestChaosWorkerKillAccounting:
    """Worker spans survive ``worker_kill`` or are cleanly quarantined."""

    def test_profiled_chaos_run_accounts_for_every_span(self, tmp_path):
        from repro.eval.chaos import run_chaos

        report = run_chaos(
            out_dir=str(tmp_path / "chaos"),
            days=1,
            jobs=2,
            estimators=18,
            profile=True,
        )
        assert report.passed, report.summary()
        by_name = {inv.name: inv for inv in report.invariants}
        assert "worker_spans_accounted" in by_name
        assert by_name["worker_spans_accounted"].passed

    def test_quarantine_surfaces_as_health_warning(self, tmp_path):
        # Build the warning condition directly (whether worker_kill leaves
        # a superseded sidecar behind is a race): a completed-on-round-1
        # task whose round-0 spill survived must warn, never pass silently.
        from repro.obs import workerctx

        telemetry = RunTelemetry(
            command="test", run_id="quarantine", profile=True
        )
        with telemetry.activate():
            box = workerctx.open_box("forest_fit")
            assert box is not None
            for round_index in (0, 1):
                _, record = workerctx.execute(
                    box.task_context(0, round_index), lambda: None, ()
                )
                workerctx.spill(box.sidecar_dir, record)
            box.note_completed(0, 1)
            accounting = box.merge()
            box.cleanup()
        assert accounting["n_quarantined"] == 1
        manifest = telemetry.build_manifest()
        reasons = manifest["health"]["reasons"]
        rules = [reason.get("rule") for reason in reasons]
        assert "worker_spans_quarantined" in rules
        assert manifest["health"]["status"] != "fail"


class TestStreamedDecisionsByteIdentity:
    """Streaming the ledger must not change a single byte."""

    def run_tracked(self, out_dir, stream, contexts, fault_plan=None):
        telemetry = RunTelemetry(command="test", run_id="stream-check")
        tracker = DomainTracker(
            config=SegugioConfig(n_estimators=12, n_jobs=1),
            fp_target=0.01,
            telemetry=telemetry,
        )
        if stream:
            telemetry.stream_decisions(out_dir)
        policy = SupervisorPolicy(base_delay=0.0)
        plan_guard = (
            use_fault_plan(fault_plan) if fault_plan is not None else None
        )
        with plan_guard if plan_guard is not None else _null():
            with use_policy(policy):
                for context in contexts:
                    with telemetry.activate():
                        supervised_process_day(
                            tracker, context, policy=policy
                        )
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
        plan = plan_from_dict(
            {
                "faults": [
                    {"kind": "io_error", "site": "pipeline_fit", "count": 1}
                ]
            },
            source="<test>",
        )
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
    """A pool-task fault lands under the day it happened in, not orphaned."""

    def test_shard_fault_event_stamped_with_its_day(self, tmp_path):
        contexts = shard_contexts(
            day_contexts(n_days=2), str(tmp_path), n_shards=2
        )
        plan = plan_from_dict(
            {
                "faults": [
                    {
                        "kind": "io_error",
                        "site": "shard_scan",
                        "task": 0,
                        "count": 1,
                    }
                ]
            },
            source="<test>",
        )
        telemetry = RunTelemetry(command="test", run_id="day-attrib")
        tracker = DomainTracker(
            config=SegugioConfig(n_estimators=12, n_jobs=2),
            fp_target=0.01,
            telemetry=telemetry,
        )
        policy = SupervisorPolicy(base_delay=0.0)
        with use_fault_plan(plan), use_policy(policy):
            for context in contexts:
                with telemetry.activate():
                    supervised_process_day(tracker, context, policy=policy)
        assert plan.fired
        fault_day = contexts[0].day
        manifest = telemetry.build_manifest()
        day_records = {
            record["day"]: record.get("runtime_events", [])
            for record in manifest["days"]
        }
        retries = [
            event
            for event in day_records[fault_day]
            if event["kind"] in ("task_retry", "io_retry")
        ]
        assert retries, day_records
        assert all(event.get("day") == fault_day for event in retries)
        # the degradation is attributed to its day, never to the orphan
        # bucket (orphan reasons carry day=None and path=runtime_events)
        reasons = manifest["health"]["reasons"]
        assert any(reason.get("day") == fault_day for reason in reasons)
        assert not any(
            reason.get("rule") == "supervisor_degraded"
            and reason.get("day") is None
            for reason in reasons
        )


def _null():
    from contextlib import nullcontext

    return nullcontext()
