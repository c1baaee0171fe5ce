"""Tests for same-day cross-validation."""

import numpy as np
import pytest

from repro.core.pipeline import SegugioConfig
from repro.eval.crossval import cross_validate_day

FAST = SegugioConfig(n_estimators=10)


class TestCrossValidation:
    def test_pooled_result(self, train_context):
        result = cross_validate_day(train_context, n_folds=3, config=FAST, seed=1)
        assert result.n_folds == 3
        assert len(result.fold_aucs) == 3
        assert result.roc.auc() > 0.8
        assert result.y_true.sum() > 0

    def test_summary(self, train_context):
        result = cross_validate_day(train_context, n_folds=2, config=FAST, seed=1)
        assert "fold" in result.summary()

    def test_deterministic(self, train_context):
        a = cross_validate_day(train_context, n_folds=2, config=FAST, seed=5)
        b = cross_validate_day(train_context, n_folds=2, config=FAST, seed=5)
        assert a.roc.auc() == b.roc.auc()

    def test_every_known_domain_tested_once(self, train_context):
        result = cross_validate_day(train_context, n_folds=3, config=FAST, seed=1)
        # Each fold contributes disjoint samples; pooled size equals the
        # total number of eligible known domains.
        from repro.core.graph import BehaviorGraph
        from repro.core.labeling import BENIGN, MALWARE, label_domains

        graph = BehaviorGraph.from_trace(train_context.trace)
        labels = label_domains(
            graph,
            train_context.blacklist,
            train_context.whitelist,
            train_context.e2ld_index,
            as_of_day=train_context.day,
        )
        present = graph.domain_ids()
        degrees = graph.domain_degrees()
        eligible = present[degrees[present] >= 2]
        n_known = int(
            ((labels[eligible] == MALWARE) | (labels[eligible] == BENIGN)).sum()
        )
        assert result.y_true.size == n_known

    def test_too_many_folds_rejected(self, train_context):
        with pytest.raises(ValueError):
            cross_validate_day(train_context, n_folds=200, config=FAST)
