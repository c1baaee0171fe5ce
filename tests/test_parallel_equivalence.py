"""Bit-identity guarantees for the parallel / vectorized hot path.

The execution layer (DESIGN.md §10) promises that ``n_jobs`` and the
bulk feature kernels are *pure execution knobs*: any worker count and
either feature path produce byte-for-byte the same scores.  These tests
are the contract — CI refuses to let any of them skip (the
benchmark-smoke job greps the pytest report), because a skipped
equivalence test is indistinguishable from a broken one.

Forest equivalence holds by construction (per-tree seeds derived before
scheduling, fixed predict chunking in both paths); feature equivalence
is checked against the per-row reference loops kept in
``tests/test_core_features.py`` for exactly this purpose.
"""

import numpy as np
import pytest

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


class TestForestParallelEquivalence:
    def test_parallel_fit_is_bit_identical(self):
        X, y = make_data()
        serial = RandomForestClassifier(n_estimators=16, random_state=11, n_jobs=1)
        parallel = RandomForestClassifier(n_estimators=16, random_state=11, n_jobs=4)
        p_serial = serial.fit(X, y).predict_proba(X)
        p_parallel = parallel.fit(X, y).predict_proba(X)
        assert np.array_equal(p_serial, p_parallel)

    def test_parallel_predict_is_bit_identical(self):
        X, y = make_data()
        model = RandomForestClassifier(n_estimators=16, random_state=11, n_jobs=1)
        model.fit(X, y)
        p_serial = model.predict_proba(X)
        model.n_jobs = 4
        p_parallel = model.predict_proba(X)
        assert np.array_equal(p_serial, p_parallel)

    def test_uneven_tree_count_survives_chunking(self):
        # 37 trees: does not divide evenly by worker count or predict chunk
        X, y = make_data()
        p1 = (
            RandomForestClassifier(n_estimators=37, random_state=5, n_jobs=1)
            .fit(X, y)
            .predict_proba(X)
        )
        p3 = (
            RandomForestClassifier(n_estimators=37, random_state=5, n_jobs=3)
            .fit(X, y)
            .predict_proba(X)
        )
        assert np.array_equal(p1, p3)

    def test_all_cores_matches_serial(self):
        X, y = make_data()
        p1 = (
            RandomForestClassifier(n_estimators=8, random_state=2, n_jobs=1)
            .fit(X, y)
            .predict_proba(X)
        )
        pn = (
            RandomForestClassifier(n_estimators=8, random_state=2, n_jobs=-1)
            .fit(X, y)
            .predict_proba(X)
        )
        assert np.array_equal(p1, pn)


class TestPipelineParallelEquivalence:
    def test_classify_scores_identical_across_n_jobs(self):
        scenario = Scenario.small(seed=3)
        train = scenario.context("isp1", scenario.eval_day(0))
        test = scenario.context("isp1", scenario.eval_day(1))

        reports = []
        for jobs in (1, 2):
            model = Segugio(SegugioConfig(n_jobs=jobs))
            model.fit(train)
            reports.append(model.classify(test))
        serial, parallel = reports
        assert np.array_equal(serial.domain_ids, parallel.domain_ids)
        assert np.array_equal(serial.scores, parallel.scores)


class TestBulkFeatureEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    @pytest.mark.parametrize("hide_labels", [False, True])
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
