"""Smoke test of the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/segbench -q

Drives every workload both ways at a reduced size — every code path,
no meaningful numbers — and checks that what a run emits is what
``BENCHMARK.json`` declares, and that the output checks are wired: a
corrupted digest, a short trace, a raised item each count as a failure.
"""

import copy
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import Sizes  # noqa: E402

CONTRACT = run.load_contract()
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SMOKE = Sizes(
    world_factor=0.03, disk_days=2, mem_days=2,
    bigday_edges=25_000, bigday_days=2,
    fleet_worlds=1, fleet_days=2,
)


class TestContract:
    def test_keys_and_limits(self):
        assert set(CONTRACT) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert CONTRACT["paths"] == ["benchmarks/segbench"]
        assert 2 <= len(WORKLOADS) <= 8
        assert 1 <= CONTRACT["run_seconds"] <= 60
        for workload in CONTRACT["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        for metric in CONTRACT["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in CONTRACT["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        names = WORKLOADS + [
            m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
        ]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.match(name), name
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_exactly_the_declared_metrics(workload, trace):
    result = run.run_once(workload, seed=7, seconds=0, trace=trace, sizes=SMOKE)
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    payload = json.loads(result.contract_json(declared))  # raises on a name mismatch
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"], result.reasons
    assert payload["attempted"] >= 1 and payload["failed"] == 0
    for metric in declared:
        emitted = payload["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    if trace:
        coverage = payload["metrics"]["trace.coverage"]["value"]
        assert checks.MIN_COVERAGE[workload] <= coverage <= 1.0
        for name in checks.MATTERS[workload]:
            assert payload["metrics"][name]["value"] > 0, name
    else:
        for name, emitted in payload["metrics"].items():
            assert emitted["value"] > 0, name


def test_undeclared_metric_is_refused():
    result = run.RunResult()
    result.values = {"setup_s": 1.0}
    with pytest.raises(RuntimeError, match="differ from BENCHMARK.json"):
        result.contract_json(CONTRACT["end_to_end"])


class TestOutputChecks:
    PLAN = {"items": [{"edges": 10}, {"edges": 12}]}

    def _round(self, ledger=False):
        return {
            "ledger": ledger,
            "decisions_sha": {"isp1": "d"} if ledger else {},
            "items": [
                {"error": None, "edges": 10, "state_sha": "a"},
                {"error": None, "edges": 12, "state_sha": "b"},
            ],
        }

    def test_identical_rounds_pass(self):
        rounds = [self._round(), self._round(), self._round(ledger=True)]
        assert checks.verify(self.PLAN, rounds) == (6, 0, [])

    def test_corrupted_digest_raises_the_failure_count(self):
        bad = self._round()
        bad["items"][1]["state_sha"] = "corrupted"
        attempted, failed, reasons = checks.verify(self.PLAN, [self._round(), bad])
        assert (attempted, failed) == (4, 1)
        assert "round 1 item 1" in reasons[0]

    def test_short_trace_and_raised_item_fail(self):
        short = self._round()
        short["items"][0]["edges"] = 9
        raised = self._round()
        raised["items"][1] = {"error": "ValueError('boom')"}
        _, failed, reasons = checks.verify(self.PLAN, [self._round(), short, raised])
        assert failed == 2
        assert "generator wrote 10" in reasons[0] and "boom" in reasons[1]

    def test_diverging_decision_ledger_fails_the_round(self):
        other = self._round(ledger=True)
        other["decisions_sha"] = {"isp1": "e"}
        _, failed, reasons = checks.verify(
            self.PLAN, [self._round(ledger=True), other]
        )
        assert failed == 1 and "decisions.jsonl" in reasons[0]

    def test_detection_quality_counts(self):
        plan = {"items": [{"network": "n", "day": 1}]}
        truth = {"malware": {"n": ["bad1", "bad2", "old"]}, "targets": {"n/1": ["bad1", "bad2"]}}
        items = [{"error": None, "detected": ["bad1", "fine"], "n_scored": 100}]
        assert checks.detection_quality(plan, truth, items) == (0.5, 0.01)

    def test_a_detection_quality_miss_is_a_failure(self):
        assert checks.quality_misses(0.5, 0.01) == []
        assert "detect_recall is 0" in checks.quality_misses(0.0, 0.01)[0]
        over = checks.MAX_FALSE_FLAG_RATE + 0.01
        assert "false_flag_rate" in checks.quality_misses(0.5, over)[0]


class TestEstimatorAndSpans:
    def test_min_over_rounds_then_per_item(self):
        rounds = [
            {"items": [{"wall": 3.0}, {"wall": 1.0}]},
            {"items": [{"wall": 2.0}, {"wall": 5.0}]},
        ]
        assert checks.per_item_min(rounds, "wall") == [2.0, 1.0]

    def test_self_time_is_span_minus_children(self):
        recorder = Recorder()
        with recorder.span("item", round=0, item=0, ledger=0):
            with recorder.span("core.tracker.process_day"):
                with recorder.span("core.pipeline.fit"):
                    with recorder.span("ml.forest.fit", nodes=7):
                        pass
        rows = copy.deepcopy(recorder.rows)
        for row, (start, end) in zip(rows, [(0, 10), (1, 9), (2, 6), (3, 5)]):
            row[2], row[3] = float(start), float(end)
        items, loose = checks.fold_spans(rows)
        assert loose == {} and len(items) == 1
        item = items[0]
        # only the wrapped layer call explains any of the item: what the
        # harness's and the program's own containers spend does not count
        assert item.wall == 10 and item.covered == 2
        assert item.total["core.pipeline.fit"] == 4
        assert item.self_time["core.tracker.process_day"] == 4
        assert item.self_time["core.pipeline.fit"] == 2
        assert item.counts["ml.forest.fit"] == {"nodes": 7}
        view = checks.LayerView(items)
        assert view.coverage() == 0.2
        assert view.seconds("ml.forest.fit") == 2

    def test_a_layer_that_is_no_longer_wrapped_voids_the_traced_run(self):
        result = run.RunResult()
        result.attempted = 1
        result.values = dict.fromkeys(checks.MATTERS["small-fleet"], 1.0)
        result.values["trace.coverage"] = 0.97
        run._void_unless_faithful(result, "small-fleet")
        assert result.correct
        result.values["trace.coverage"] = 0.52  # the forest's share went missing
        result.values["ml.forest.fit_s"] = 0.0
        run._void_unless_faithful(result, "small-fleet")
        assert not result.correct
        assert "trace.coverage 0.520" in result.reasons[0]
        assert "ml.forest.fit_s reads 0.0" in result.reasons[1]

    def test_wrappers_are_removed_after_a_traced_block(self):
        from repro.core import pipeline
        from repro.ml.forest import RandomForestClassifier

        before = (pipeline.prune_graph, vars(RandomForestClassifier)["fit"])
        with Recorder().patched():
            assert pipeline.prune_graph is not before[0]
        assert (pipeline.prune_graph, vars(RandomForestClassifier)["fit"]) == before
