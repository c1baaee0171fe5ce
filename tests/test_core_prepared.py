"""PreparedDay: a tracked day is graphed, labeled and pruned once.

``Segugio.prepare_day`` returns a :class:`PreparedDay` that ``fit``,
``classify`` and ``explain`` accept as ``prepared=``.  These tests pin
the three promises of that hand-off: the tracker builds each day once on
either execution path, the outputs are byte-identical to building the
day separately for fit and for classify, and a stale or mismatched
object is refused instead of leaking hidden ground truth.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

import repro.core.sharded as sharded_module
import repro.core.tracker as tracker_module
from repro.core.graph import BehaviorGraph
from repro.core.labeling import MALWARE
from repro.core.pipeline import PreparedDay, Segugio, SegugioConfig
from repro.core.tracker import DomainTracker
from repro.datasets.edgestore import ShardedDayTrace
from repro.obs import RunTelemetry
from repro.obs.provenance import DecisionLog, use_decision_log

FAST = SegugioConfig(n_estimators=5)


def _sharded(context, directory, n_shards):
    trace = ShardedDayTrace.from_day_trace(
        context.trace, str(directory), n_shards=n_shards, batch_size=1024
    )
    return dataclasses.replace(context, trace=trace)


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a counting pass-through; returns the tally."""
    calls = []
    original = vars(owner)[name]
    inner = original.__func__ if isinstance(original, classmethod) else original

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(
        owner,
        name,
        classmethod(counted) if isinstance(original, classmethod) else counted,
    )
    return calls


class TestBuiltOncePerTrackedDay:
    def test_in_memory_day_builds_one_graph(self, monkeypatch, train_context):
        builds = _count_calls(monkeypatch, BehaviorGraph, "from_trace")
        DomainTracker(config=FAST, fp_target=0.01).process_day(train_context)
        assert len(builds) == 1

    def test_sharded_day_runs_one_sharded_build(
        self, monkeypatch, tmp_path, train_context
    ):
        builds = _count_calls(monkeypatch, sharded_module, "build_day_sharded")
        context = _sharded(train_context, tmp_path / "store", 2)
        DomainTracker(config=FAST, fp_target=0.01).process_day(context)
        assert len(builds) == 1

    def test_prepare_span_holds_the_graph_phases(self, train_context):
        telemetry = RunTelemetry(command="test", run_id="prepared")
        DomainTracker(
            config=FAST, fp_target=0.01, telemetry=telemetry
        ).process_day(train_context)
        (day_root,) = telemetry.build_manifest()["spans"]
        children = {c["name"]: c for c in day_root["children"]}
        prepare = children["segugio_tracker_prepare"]
        assert [c["name"] for c in prepare["children"]] == [
            "build_graph",
            "label_nodes",
            "prune_graph",
            "build_abuse_oracle",
        ]
        for name in ("segugio_tracker_fit", "segugio_tracker_classify"):
            inner = {c["name"] for c in children[name].get("children", [])}
            assert not inner & {"build_graph", "label_nodes", "prune_graph"}


class _SeparatelyPrepared(Segugio):
    """The oracle: fit and classify each build their own day, as a caller
    that never heard of ``prepared=`` would."""

    def fit(self, context, exclude_domains=None, prepared=None):
        return super().fit(context, exclude_domains)

    def classify(self, context, hide_domains=None, prepared=None):
        return super().classify(context, hide_domains)


def _tracked_run(contexts, config, out_dir):
    """(state_dict JSON, DayReports, decisions.jsonl bytes) of one run."""
    telemetry = RunTelemetry(command="test", run_id="prepared-identity")
    telemetry.stream_decisions(str(out_dir))
    tracker = DomainTracker(config=config, fp_target=0.01, telemetry=telemetry)
    reports = [tracker.process_day(context) for context in contexts]
    telemetry.write(str(out_dir))
    with open(os.path.join(str(out_dir), "decisions.jsonl"), "rb") as stream:
        decisions = stream.read()
    return json.dumps(tracker.state_dict(), sort_keys=True), reports, decisions


class TestIdenticalToSeparatePreparation:
    @pytest.fixture(scope="class")
    def days(self, scenario):
        return [
            scenario.context("isp1", scenario.eval_day(offset))
            for offset in range(2)
        ]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("n_shards", [None, 1, 2])
    def test_state_reports_and_ledger_bytes(
        self, monkeypatch, tmp_path, days, n_jobs, n_shards
    ):
        config = SegugioConfig(n_estimators=5, n_jobs=n_jobs)
        contexts = (
            days
            if n_shards is None
            else [
                _sharded(context, tmp_path / f"day-{i}", n_shards)
                for i, context in enumerate(days)
            ]
        )
        got = _tracked_run(contexts, config, tmp_path / "shared")
        monkeypatch.setattr(tracker_module, "Segugio", _SeparatelyPrepared)
        builds = _count_calls(monkeypatch, Segugio, "prepare_day")
        want = _tracked_run(contexts, config, tmp_path / "separate")
        assert len(builds) == 3 * len(contexts)  # the oracle really rebuilt
        assert want[2]  # an empty ledger proves nothing
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]

    def test_explain_rows_identical(self, train_context):
        model = Segugio(FAST)
        prepared = model.prepare_day(train_context)
        model.fit(train_context, prepared=prepared)
        report = model.classify(train_context, prepared=prepared)
        name = report.graph.domains.name(int(report.domain_ids[0]))
        assert model.explain(
            train_context, name, prepared=prepared
        ) == model.explain(train_context, name)


def _known_malware(context, n):
    prepared = Segugio(FAST).prepare_day(context)
    present = prepared.graph.domain_ids()
    malware = present[prepared.labels.domain_labels[present] == MALWARE]
    assert malware.size >= n
    return [int(d) for d in malware[:n]]


def _hidden_sources(context, hide):
    """label_source of each hidden domain's decision record."""
    model = Segugio(FAST).fit(context)
    log = DecisionLog()
    with use_decision_log(log):
        model.classify(context, hide_domains=hide)
    names = {context.trace.domains.name(d) for d in _known_malware(context, 20)}
    return [
        record["label_source"]
        for record in log.day_records(context.day)
        if record["domain"] in names
    ]


class TestOneShotHideDomains:
    """A generator of hidden ids used to be drained by ``prepare_day`` and
    found empty by the decision ledger, which then recorded every hidden
    domain as plain ``none``."""

    def test_generator_records_hidden_for_evaluation(self, train_context):
        ids = _known_malware(train_context, 20)
        from_list = _hidden_sources(train_context, ids)
        from_generator = _hidden_sources(train_context, (d for d in ids))
        assert from_list == ["hidden_for_evaluation"] * 20
        assert from_generator == from_list

    def test_hidden_is_sorted_unique_int64(self, train_context):
        ids = _known_malware(train_context, 5)
        prepared = Segugio(FAST).prepare_day(
            train_context, hide_domains=iter(ids[::-1] + ids)
        )
        assert isinstance(prepared, PreparedDay)
        assert prepared.hidden.dtype == np.int64
        assert prepared.hidden.tolist() == sorted(ids)
        assert Segugio(FAST).prepare_day(train_context).hidden.size == 0


class TestHandOffIsGuarded:
    @pytest.fixture(scope="class")
    def model(self, train_context):
        return Segugio(FAST).fit(train_context)

    @pytest.fixture(scope="class")
    def hide(self, train_context):
        return _known_malware(train_context, 3)

    def _call(self, model, method, context, hide, prepared):
        if method == "fit":
            return Segugio(FAST).fit(
                context, exclude_domains=hide, prepared=prepared
            )
        if method == "classify":
            return model.classify(context, hide_domains=hide, prepared=prepared)
        name = context.trace.domains.name(_known_malware(context, 1)[0])
        return model.explain(
            context, name, hide_domains=hide, prepared=prepared
        )

    @pytest.mark.parametrize("method", ["fit", "classify", "explain"])
    def test_other_context_is_refused(
        self, model, train_context, test_context, method
    ):
        stale = model.prepare_day(test_context)
        with pytest.raises(ValueError, match=rf"Segugio\.{method}: .*context"):
            self._call(model, method, train_context, None, stale)

    @pytest.mark.parametrize("method", ["fit", "classify", "explain"])
    def test_equal_copy_of_the_context_is_refused(
        self, model, train_context, method
    ):
        """Identity, not equality: a re-loaded day is a different object."""
        prepared = model.prepare_day(dataclasses.replace(train_context))
        with pytest.raises(ValueError, match=rf"Segugio\.{method}: .*context"):
            self._call(model, method, train_context, None, prepared)

    @pytest.mark.parametrize("method", ["fit", "classify", "explain"])
    def test_changed_day_is_refused(self, model, train_context, method):
        context = dataclasses.replace(train_context)
        prepared = model.prepare_day(context)
        context.day += 1
        with pytest.raises(ValueError, match=rf"Segugio\.{method}: .*day"):
            self._call(model, method, context, None, prepared)

    @pytest.mark.parametrize("method", ["fit", "classify", "explain"])
    def test_unhidden_prepared_day_cannot_serve_a_hiding_call(
        self, model, train_context, hide, method
    ):
        unhidden = model.prepare_day(train_context)
        with pytest.raises(ValueError, match=rf"Segugio\.{method}: .*hides 0"):
            self._call(model, method, train_context, hide, unhidden)

    @pytest.mark.parametrize("method", ["fit", "classify", "explain"])
    def test_different_hidden_set_is_refused(
        self, model, train_context, hide, method
    ):
        prepared = model.prepare_day(train_context, hide_domains=hide)
        with pytest.raises(ValueError, match=rf"Segugio\.{method}: .*hides 3"):
            self._call(model, method, train_context, hide[:2], prepared)
        with pytest.raises(ValueError, match=rf"Segugio\.{method}: .*hides 3"):
            self._call(model, method, train_context, None, prepared)

    @pytest.mark.parametrize("method", ["fit", "classify", "explain"])
    def test_matching_hand_off_is_accepted(
        self, model, train_context, hide, method
    ):
        prepared = model.prepare_day(train_context, hide_domains=hide)
        shuffled = (d for d in reversed(hide))  # order and container are free
        assert (
            self._call(model, method, train_context, shuffled, prepared)
            is not None
        )
