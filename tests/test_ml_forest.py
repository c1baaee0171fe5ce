"""Tests for the Random Forest classifier."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier


def make_data(n=400, seed=0, imbalance=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    margin = X[:, 0] + 0.5 * X[:, 2]
    y = (margin > np.quantile(margin, 1 - imbalance)).astype(np.int64)
    return X, y


class TestFitting:
    def test_learns_and_generalizes(self):
        X, y = make_data(600)
        Xtr, ytr, Xte, yte = X[:400], y[:400], X[400:], y[400:]
        forest = RandomForestClassifier(n_estimators=30, random_state=0)
        forest.fit(Xtr, ytr)
        pred = forest.predict(Xte)
        assert (pred == yte).mean() > 0.9

    def test_probabilities_in_unit_interval(self):
        X, y = make_data()
        forest = RandomForestClassifier(n_estimators=10).fit(X, y)
        proba = forest.predict_proba(X)
        assert ((proba >= 0) & (proba <= 1)).all()

    def test_deterministic_given_seed(self):
        X, y = make_data()
        p1 = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y).predict_proba(X)
        p2 = RandomForestClassifier(n_estimators=8, random_state=3).fit(X, y).predict_proba(X)
        assert (p1 == p2).all()

    def test_seed_changes_model(self):
        X, y = make_data()
        p1 = RandomForestClassifier(n_estimators=8, random_state=1).fit(X, y).predict_proba(X)
        p2 = RandomForestClassifier(n_estimators=8, random_state=2).fit(X, y).predict_proba(X)
        assert not (p1 == p2).all()

    def test_class_imbalance_with_balancing(self):
        X, y = make_data(800, imbalance=0.05)
        forest = RandomForestClassifier(
            n_estimators=20, class_weight="balanced", random_state=0
        )
        forest.fit(X, y)
        scores = forest.predict_proba(X)
        # Positives should rank above negatives (AUC-style check).
        pos = scores[y == 1]
        neg = scores[y == 0]
        assert np.median(pos) > np.median(neg)

    def test_no_bootstrap_mode(self):
        X, y = make_data(100)
        forest = RandomForestClassifier(n_estimators=4, bootstrap=False).fit(X, y)
        assert forest.predict_proba(X).shape == (100,)

    def test_feature_importances(self):
        X, y = make_data(500)
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        importances = forest.feature_importances_
        assert importances.shape == (5,)
        assert importances.sum() == pytest.approx(1.0)
        # Features 0 and 2 carry all the signal.
        assert importances[0] + importances[2] > 0.6


class TestVoteHistogram:
    def test_matches_a_tree_by_tree_row_by_row_count(self):
        X, y = make_data(300)
        forest = RandomForestClassifier(n_estimators=12, random_state=2).fit(X, y)
        histogram, margin = forest.tree_vote_histogram(X, n_bins=7)
        assert histogram.dtype == np.int64 and histogram.shape == (300, 7)
        X_binned = forest.bin_mapper_.transform(X)
        expected = np.zeros((300, 7), dtype=np.int64)
        malware = np.zeros(300)
        for tree in forest.trees_:
            for row, score in enumerate(tree.predict_proba_binned(X_binned)):
                expected[row, min(int(score * 7), 6)] += 1
                malware[row] += score >= 0.5
        np.testing.assert_array_equal(histogram, expected)
        np.testing.assert_array_equal(margin, (2.0 * malware - 12) / 12)
        assert (histogram.sum(axis=1) == 12).all()


class TestValidation:
    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(ValueError, match="both classes"):
            RandomForestClassifier().fit(X, np.zeros(10, dtype=int))

    def test_nonbinary_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError, match="binary"):
            RandomForestClassifier().fit(X, np.array([0, 1, 2]))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((2, 2)))

    def test_feature_count_mismatch(self):
        X, y = make_data(50)
        forest = RandomForestClassifier(n_estimators=2).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            forest.predict_proba(np.zeros((4, 3)))

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            RandomForestClassifier(class_weight="bogus")

    def test_nan_input_rejected(self):
        X, y = make_data(20)
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            RandomForestClassifier(n_estimators=2).fit(X, y)


class TestNJobs:
    def test_default_is_serial(self):
        assert RandomForestClassifier().n_jobs == 1
        assert RandomForestClassifier(n_jobs=None).n_jobs == 1

    def test_minus_one_uses_every_core(self):
        import os

        forest = RandomForestClassifier(n_jobs=-1)
        assert forest.n_jobs == (os.cpu_count() or 1)

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_jobs=0)
        with pytest.raises(ValueError):
            RandomForestClassifier(n_jobs=-2)

    def test_more_jobs_than_trees_is_fine(self):
        X, y = make_data(80)
        forest = RandomForestClassifier(n_estimators=2, random_state=0, n_jobs=8)
        forest.fit(X, y)
        assert len(forest.trees_) == 2
