"""``SegugioConfig.n_jobs`` starts no process.

Every day runs in one process: the field is validated and otherwise read
by nothing, and the forest takes no ``n_jobs`` of its own.  That the
field changes no score is checked with the other execution knobs in
``tests/test_execution_equivalence.py``.
"""

import multiprocessing

import pytest

from repro.core.pipeline import SegugioConfig
from repro.ml.forest import RandomForestClassifier
from tests.test_ml_forest import make_data


class TestNJobs:
    """``n_jobs`` lives on ``SegugioConfig`` only: the forest takes none
    and grows every batch in the calling process."""

    def test_default_is_serial(self):
        X, y = make_data(80)
        forest = RandomForestClassifier(n_estimators=20, random_state=0)
        forest.fit(X, y).predict_proba(X)
        assert multiprocessing.active_children() == []
        assert not hasattr(forest, "n_jobs")

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(TypeError):
            RandomForestClassifier(n_jobs=2)
        with pytest.raises(ValueError, match="n_jobs must be >= 1 or -1"):
            SegugioConfig(n_jobs=0)
        with pytest.raises(ValueError, match="n_jobs must be >= 1 or -1"):
            SegugioConfig(n_jobs=-2)

    def test_more_jobs_than_trees_is_fine(self):
        X, y = make_data(80)
        config = SegugioConfig(n_estimators=2, n_jobs=8)
        forest = config.make_classifier().fit(X, y)
        assert len(forest.trees_) == 2
