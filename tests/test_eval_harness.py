"""Tests for the shared evaluation protocol pieces."""

import numpy as np
import pytest

from repro.core.graph import BehaviorGraph
from repro.core.labeling import MALWARE, label_domains
from repro.core.pipeline import SegugioConfig
from repro.eval.harness import (
    MISS_SCORE,
    TestSplit,
    cross_day_experiment,
    score_split,
    select_test_split,
)


class TestSelectTestSplit:
    def test_split_sizes(self, test_context):
        split = select_test_split(test_context, test_fraction=0.5)
        assert split.n_malware > 0
        assert split.n_benign > 0

    def test_candidates_are_known_domains(self, test_context):
        split = select_test_split(test_context, test_fraction=1.0)
        graph = BehaviorGraph.from_trace(test_context.trace)
        labels = label_domains(
            graph, test_context.blacklist, test_context.whitelist,
            test_context.e2ld_index, as_of_day=test_context.day,
        )
        assert (labels[split.malware_ids] == MALWARE).all()

    def test_min_degree_respected(self, test_context):
        split = select_test_split(test_context, test_fraction=1.0, min_degree=3)
        graph = BehaviorGraph.from_trace(test_context.trace)
        degrees = graph.domain_degrees()
        assert (degrees[split.all_ids] >= 3).all()

    def test_deterministic_under_seeded_rng(self, test_context):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        a = select_test_split(test_context, rng=rng1)
        b = select_test_split(test_context, rng=rng2)
        assert (a.malware_ids == b.malware_ids).all()
        assert (a.benign_ids == b.benign_ids).all()

    def test_max_benign_cap(self, test_context):
        split = select_test_split(test_context, test_fraction=1.0, max_benign=7)
        assert split.n_benign == 7

    def test_invalid_fraction(self, test_context):
        with pytest.raises(ValueError):
            select_test_split(test_context, test_fraction=0.0)


class TestScoreSplit:
    def test_missing_domains_get_miss_score(self, fitted_model, test_context):
        split = TestSplit(
            malware_ids=np.array([0], dtype=np.int64),  # a core benign id
            benign_ids=np.array([1], dtype=np.int64),
        )
        report = fitted_model.classify(test_context)
        y, scores, miss_mal, miss_ben = score_split(report, split)
        assert y.tolist() == [1, 0]
        # ids 0/1 are labeled (not unknown), so they are absent from the
        # report and must be treated as misses.
        assert miss_mal == 1 and miss_ben == 1
        assert (scores == MISS_SCORE).all()


class TestCrossDayExperiment:
    def test_end_to_end_quality(self, scenario):
        experiment = cross_day_experiment(
            scenario.context("isp1", scenario.eval_day(0)),
            scenario.context("isp1", scenario.eval_day(10)),
            config=SegugioConfig(n_estimators=20),
            seed=1,
        )
        assert experiment.roc.auc() > 0.8
        assert experiment.split.n_benign > 50

    def test_summary_format(self, scenario):
        experiment = cross_day_experiment(
            scenario.context("isp1", scenario.eval_day(0)),
            scenario.context("isp1", scenario.eval_day(10)),
            config=SegugioConfig(n_estimators=5),
            seed=1,
        )
        text = experiment.summary()
        assert "AUC" in text and "TP@0.1%FP" in text

    def test_keep_model_flag(self, scenario):
        experiment = cross_day_experiment(
            scenario.context("isp1", scenario.eval_day(0)),
            scenario.context("isp1", scenario.eval_day(10)),
            config=SegugioConfig(n_estimators=5),
            seed=1,
            keep_model=True,
        )
        assert experiment.model is not None
        assert experiment.report is not None
