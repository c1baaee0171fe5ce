"""Bit-identity guarantees for the batched / vectorized hot path.

The execution layer (DESIGN.md §10) promises that how the work is cut
up is a *pure execution knob*: the forest's fit-batch width, row slices
of a predict, ``SegugioConfig.n_jobs`` (a field that starts no process)
and either feature path all produce byte-for-byte the same scores.
These tests are the contract — CI refuses to let any of them skip (the
benchmark-smoke job greps the pytest report), because a skipped
equivalence test is indistinguishable from a broken one.

Forest equivalence holds by construction (per-tree seeds derived before
any batch is grown, fixed predict chunking); feature equivalence is
checked against the per-row reference loops kept in
``tests/test_core_features.py`` for exactly this purpose.
"""

import numpy as np
import pytest

import repro.ml.forest as forest_module
from repro.core.pipeline import Segugio, SegugioConfig
from repro.ml.forest import RandomForestClassifier
from repro.synth.scenario import Scenario
from tests.test_core_features import (
    domain_activity_reference,
    ip_abuse_reference,
)


def make_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = (X[:, 0] + 0.4 * X[:, 3] > 0).astype(np.int64)
    return X, y


def fitted_scores(monkeypatch, X, y, n_estimators, random_state, batch):
    """Scores of a forest grown in lock-step batches of *batch* trees."""
    monkeypatch.setattr(forest_module, "_FIT_TREE_CHUNK", batch)
    model = RandomForestClassifier(
        n_estimators=n_estimators, random_state=random_state
    )
    return model.fit(X, y).predict_proba(X)


class TestForestBatchEquivalence:
    """A tree depends on its seed alone, never on the batch it grew in."""

    def test_lock_step_fit_is_bit_identical(self, monkeypatch):
        X, y = make_data()
        one_at_a_time = fitted_scores(monkeypatch, X, y, 16, 11, batch=1)
        lock_step = fitted_scores(monkeypatch, X, y, 16, 11, batch=4)
        assert np.array_equal(one_at_a_time, lock_step)

    def test_sliced_predict_is_bit_identical(self):
        # rows are scored independently: any row slicing, same bytes
        X, y = make_data()
        model = RandomForestClassifier(n_estimators=16, random_state=11)
        model.fit(X, y)
        whole = model.predict_proba(X)
        sliced = np.concatenate(
            [model.predict_proba(X[start : start + 70]) for start in range(0, 300, 70)]
        )
        assert np.array_equal(whole, sliced)

    def test_uneven_tree_count_survives_chunking(self, monkeypatch):
        # 37 trees: divides evenly by neither the fit batch nor the predict
        # chunk
        X, y = make_data()
        p1 = fitted_scores(monkeypatch, X, y, 37, 5, batch=1)
        p16 = fitted_scores(monkeypatch, X, y, 37, 5, batch=16)
        p5 = fitted_scores(monkeypatch, X, y, 37, 5, batch=5)
        assert np.array_equal(p1, p16)
        assert np.array_equal(p1, p5)

    def test_one_batch_matches_one_tree_at_a_time(self, monkeypatch):
        # every tree in one lock-step batch vs. one tree at a time
        X, y = make_data()
        p1 = fitted_scores(monkeypatch, X, y, 8, 2, batch=1)
        pn = fitted_scores(monkeypatch, X, y, 8, 2, batch=8)
        assert np.array_equal(p1, pn)


class TestPipelineNJobsEquivalence:
    def test_classify_scores_identical_across_n_jobs(self):
        scenario = Scenario.small(seed=3)
        train = scenario.context("isp1", scenario.eval_day(0))
        test = scenario.context("isp1", scenario.eval_day(1))

        reports = []
        for jobs in (1, 2, -1):
            model = Segugio(SegugioConfig(n_jobs=jobs))
            model.fit(train)
            reports.append(model.classify(test))
        serial = reports[0]
        for other in reports[1:]:
            assert np.array_equal(serial.domain_ids, other.domain_ids)
            assert np.array_equal(serial.scores, other.scores)


class TestBulkFeatureEquivalence:
    @pytest.mark.parametrize("hide_labels", [False, True])
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_bulk_matches_reference_loop(self, seed, hide_labels):
        scenario = Scenario.small(seed=seed)
        context = scenario.context("isp1", scenario.eval_day(0))
        model = Segugio(SegugioConfig())
        prepared = model.prepare_day(context)
        graph, extractor = prepared.graph, prepared.extractor
        ids = graph.domain_ids()
        assert ids.size > 0

        bulk_f2 = np.zeros((ids.size, 4), dtype=np.float64)
        ref_f2 = np.zeros((ids.size, 4), dtype=np.float64)
        extractor._domain_activity(ids, bulk_f2)
        domain_activity_reference(extractor, ids, ref_f2)
        assert np.array_equal(bulk_f2, ref_f2)

        bulk_f3 = np.zeros((ids.size, 4), dtype=np.float64)
        ref_f3 = np.zeros((ids.size, 4), dtype=np.float64)
        extractor._ip_abuse(ids, hide_labels, bulk_f3)
        ip_abuse_reference(extractor, ids, hide_labels, ref_f3)
        assert np.array_equal(bulk_f3, ref_f3)

    def test_feature_matrix_unchanged_on_subsets(self):
        # randomized candidate subsets (non-contiguous, shuffled ids)
        scenario = Scenario.small(seed=9)
        context = scenario.context("isp1", scenario.eval_day(0))
        model = Segugio(SegugioConfig())
        prepared = model.prepare_day(context)
        graph, extractor = prepared.graph, prepared.extractor
        all_ids = graph.domain_ids()
        rng = np.random.default_rng(4)
        ids = rng.permutation(all_ids)[: max(5, all_ids.size // 3)]

        bulk = np.zeros((ids.size, 4), dtype=np.float64)
        ref = np.zeros((ids.size, 4), dtype=np.float64)
        extractor._domain_activity(ids, bulk)
        domain_activity_reference(extractor, ids, ref)
        assert np.array_equal(bulk, ref)

        extractor._ip_abuse(ids, True, bulk)
        ip_abuse_reference(extractor, ids, True, ref)
        assert np.array_equal(bulk, ref)
