"""Random Forest classifier (Breiman [9]) over histogram CART trees.

Bootstrap-bagged :class:`repro.ml.tree.DecisionTreeClassifier` ensemble with
per-split feature subsampling.  The malware/benign training sets of this
problem are heavily skewed (hundreds of thousands of benign e2LDs vs. a few
thousand C&C domains), so the forest supports ``class_weight="balanced"``,
which reweights each bootstrap sample inversely to its class frequency.

The model's score for a domain is the mean over trees of the leaf
P(malware) — the "malware score" thresholded by the deployment (paper
§II-A3, "Classifier Operation").

**Fixed tree batches.** Every tree is keyed on a seed derived *once* from
``random_state`` before any tree is grown, so a tree's content depends
only on its seed and the training data.  Fit grows the trees in fixed
:data:`_FIT_TREE_CHUNK`-tree batches (one lock-step ``fit_trees`` call
each) and predict sums per-tree scores over fixed
:data:`_PREDICT_TREE_CHUNK`-tree chunks, then adds the chunk partials in
chunk order: the float-addition association, and so every score, is a
function of the forest alone (see DESIGN.md §10).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.ml.preprocessing import BinMapper
from repro.ml.tree import DecisionTreeClassifier, fit_trees
from repro.obs.tracing import current_tracer
from repro.utils.validation import as_1d_int_array, as_2d_float_array, check_same_length

#: trees per partial-sum chunk in predict_proba — fixed, so the reduction
#: tree, and therefore the float rounding, belongs to the forest
_PREDICT_TREE_CHUNK = 16

#: seeds per lock-step fit batch — fixed, so a forest's trees do not
#: depend on how its batches were scheduled
_FIT_TREE_CHUNK = 16


def _fit_tree_batch(
    seeds: Sequence[int],
    params: Dict[str, object],
    X_binned: np.ndarray,
    y: np.ndarray,
    base_weight: np.ndarray,
) -> List[DecisionTreeClassifier]:
    """Grow one tree per seed, all in lock-step (see ``fit_trees``)."""
    n = y.shape[0]
    rngs = [np.random.default_rng(int(seed)) for seed in seeds]
    # a generator: no bootstrap draw outlives its tree's root
    samples = (
        rng.integers(0, n, size=n) if params["bootstrap"] else np.arange(n)
        for rng in rngs
    )
    trees = [
        DecisionTreeClassifier(
            max_depth=int(params["max_depth"]),
            min_samples_leaf=int(params["min_samples_leaf"]),
            max_features=params["max_features"],  # type: ignore[arg-type]
            rng=rng,
        )
        for rng in rngs
    ]
    fit_trees(trees, X_binned, y, base_weight, samples)
    return trees


def _predict_tree_batch(
    trees: Sequence[DecisionTreeClassifier], X_binned: np.ndarray
) -> np.ndarray:
    """Partial score sum over one chunk of trees, accumulated in order."""
    partial = np.zeros(X_binned.shape[0], dtype=np.float64)
    for tree in trees:
        partial += tree.predict_proba_binned(X_binned)
    return partial


def _chunked(items: Sequence, size: int) -> List[Sequence]:
    """Contiguous chunks of at most *size*, preserving order."""
    return [items[i : i + size] for i in range(0, len(items), size)]


class RandomForestClassifier:
    """Bagged histogram-CART ensemble returning P(malware) scores."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 14,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, None] = "sqrt",
        max_bins: int = 255,
        class_weight: Optional[str] = "balanced",
        bootstrap: bool = True,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if class_weight not in (None, "balanced"):
            raise ValueError('class_weight must be None or "balanced"')
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self.class_weight = class_weight
        self.bootstrap = bootstrap
        self.random_state = random_state

        self.trees_: List[DecisionTreeClassifier] = []
        self.bin_mapper_: Optional[BinMapper] = None
        self.n_features_: Optional[int] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = as_2d_float_array(X)
        y = as_1d_int_array(y)
        check_same_length(X, y)
        classes = np.unique(y)
        if not np.isin(classes, (0, 1)).all():
            raise ValueError("labels must be binary (0/1)")
        if classes.size < 2:
            raise ValueError("training data must contain both classes")

        self.n_features_ = X.shape[1]
        self.bin_mapper_ = BinMapper(max_bins=self.max_bins)
        X_binned = self.bin_mapper_.fit_transform(X)

        base_weight = np.ones(y.shape[0], dtype=np.float64)
        if self.class_weight == "balanced":
            n = y.shape[0]
            n_pos = int(np.count_nonzero(y == 1))
            n_neg = n - n_pos
            base_weight[y == 1] = n / (2.0 * n_pos)
            base_weight[y == 0] = n / (2.0 * n_neg)

        root_rng = np.random.default_rng(self.random_state)
        seeds = [int(s) for s in root_rng.integers(0, 2**63 - 1, size=self.n_estimators)]
        params: Dict[str, object] = {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
            "bootstrap": self.bootstrap,
        }
        with current_tracer().span(
            "segugio_forest_fit",
            n_trees=self.n_estimators,
            n_samples=int(y.shape[0]),
        ):
            self.trees_ = []
            for batch in _chunked(seeds, _FIT_TREE_CHUNK):
                self.trees_.extend(
                    _fit_tree_batch(batch, params, X_binned, y, base_weight)
                )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf P(malware) over the ensemble, shape (n_samples,).

        Scores are reduced over fixed-size tree chunks, partial sums
        added in chunk order.
        """
        if not self.trees_ or self.bin_mapper_ is None:
            raise RuntimeError("forest is not fitted")
        X = as_2d_float_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        chunks = _chunked(self.trees_, _PREDICT_TREE_CHUNK)
        with current_tracer().span(
            "segugio_forest_predict",
            n_samples=int(X.shape[0]),
            n_chunks=len(chunks),
        ):
            X_binned = self.bin_mapper_.transform(X)
            partials = [_predict_tree_batch(chunk, X_binned) for chunk in chunks]
            scores = np.zeros(X.shape[0], dtype=np.float64)
            for partial in partials:
                scores += partial
            return scores / len(self.trees_)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels at the given malware-score threshold."""
        return (self.predict_proba(X) >= threshold).astype(np.int64)

    def tree_vote_histogram(
        self, X: np.ndarray, n_bins: int = 10
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-sample histogram of per-tree scores, plus the vote margin.

        For each sample, every tree's leaf P(malware) is bucketed into
        ``n_bins`` equal-width bins over [0, 1] (the top edge folds into
        the last bin).  Returns ``(histogram, margin)`` where *histogram*
        is (n_samples, n_bins) int64 with rows summing to the tree count,
        and *margin* is (n_samples,) float64 in [-1, 1]: the fraction of
        trees voting malware (score >= 0.5) minus the fraction voting
        benign.  This is the decision-provenance view of the ensemble —
        ``predict_proba`` collapses it to the mean.

        Accumulates one tree at a time, so memory is O(n_samples * n_bins)
        rather than O(n_samples * n_trees).
        """
        if not self.trees_ or self.bin_mapper_ is None:
            raise RuntimeError("forest is not fitted")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        X = as_2d_float_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        X_binned = self.bin_mapper_.transform(X)
        n_samples = X.shape[0]
        histogram = np.zeros(n_samples * n_bins, dtype=np.int64)
        votes_malware = np.zeros(n_samples, dtype=np.int64)
        row_starts = np.arange(n_samples) * n_bins
        for tree in self.trees_:
            scores = tree.predict_proba_binned(X_binned)
            buckets = np.minimum(
                (scores * n_bins).astype(np.int64), n_bins - 1
            )
            # one cell per row and tree: bincount is np.add.at without
            # its per-element dispatch
            histogram += np.bincount(
                row_starts + buckets, minlength=histogram.size
            )
            votes_malware += scores >= 0.5
        n_trees = len(self.trees_)
        margin = (2.0 * votes_malware - n_trees) / n_trees
        return histogram.reshape(n_samples, n_bins), margin

    @property
    def feature_importances_(self) -> np.ndarray:
        """Total split gain per feature, normalized to sum to 1."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        gains = np.zeros(self.n_features_, dtype=np.float64)
        for tree in self.trees_:
            gains += tree.feature_gain_
        total = gains.sum()
        return gains / total if total > 0 else gains

    def __repr__(self) -> str:
        return (
            f"RandomForestClassifier(n_estimators={self.n_estimators}, "
            f"max_depth={self.max_depth}, fitted={bool(self.trees_)})"
        )
