"""Tests for logistic regression."""

import numpy as np
import pytest

from repro.ml.logistic import LogisticRegression, _sigmoid


class TestSigmoid:
    def test_values(self):
        assert _sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert _sigmoid(np.array([100.0]))[0] == pytest.approx(1.0)
        assert _sigmoid(np.array([-100.0]))[0] == pytest.approx(0.0)

    def test_no_overflow(self):
        out = _sigmoid(np.array([-1e6, 1e6]))
        assert np.isfinite(out).all()


def make_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    logits = 2.0 * X[:, 0] - 1.5 * X[:, 1]
    y = (logits + rng.logistic(size=n) * 0.3 > 0).astype(np.int64)
    return X, y


class TestFitting:
    def test_learns_linear_boundary(self):
        X, y = make_data(800)
        model = LogisticRegression().fit(X[:600], y[:600])
        accuracy = (model.predict(X[600:]) == y[600:]).mean()
        assert accuracy > 0.88

    def test_recovers_coefficient_signs(self):
        X, y = make_data(2000)
        model = LogisticRegression(class_weight=None).fit(X, y)
        assert model.coef_[0] > 0
        assert model.coef_[1] < 0
        assert abs(model.coef_[2]) < abs(model.coef_[0])

    def test_probabilities_in_unit_interval(self):
        X, y = make_data()
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        assert ((proba >= 0) & (proba <= 1)).all()

    def test_regularization_shrinks(self):
        X, y = make_data(300)
        loose = LogisticRegression(C=100.0, class_weight=None).fit(X, y)
        tight = LogisticRegression(C=0.001, class_weight=None).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_balanced_weighting_on_skewed_data(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 2))
        y = (X[:, 0] > 1.6).astype(np.int64)  # ~5% positives
        model = LogisticRegression(class_weight="balanced").fit(X, y)
        scores = model.predict_proba(X)
        assert np.median(scores[y == 1]) > np.median(scores[y == 0])


class TestValidation:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            LogisticRegression().fit(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(np.zeros((2, 2)))

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            LogisticRegression(C=0)
        with pytest.raises(ValueError):
            LogisticRegression(class_weight="x")


def test_scipy_is_loaded_by_a_logistic_fit_not_by_every_process():
    # scipy.optimize costs +0.36 s and +51 MB RSS to import; the default
    # classifier is the forest, so only LogisticRegression.fit may pay it
    import os
    import subprocess
    import sys

    import repro

    code = (
        "import sys\n"
        "import repro.cli, repro.core.tracker, repro.runtime.ingest\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)[:3]\n"
        "import numpy as np\n"
        "from repro.ml.logistic import LogisticRegression\n"
        "LogisticRegression().fit(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]))\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
