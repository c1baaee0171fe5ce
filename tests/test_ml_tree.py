"""Tests for the histogram CART decision tree."""

from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.forest as forest_module
import repro.ml.tree as tree_module
from repro.ml.forest import RandomForestClassifier, _fit_tree_batch
from repro.ml.preprocessing import BinMapper
from repro.ml.tree import _NO_FEATURE, DecisionTreeClassifier, _resolve_max_features
from repro.utils.validation import as_1d_int_array, check_same_length


def binned(X, max_bins=32):
    return BinMapper(max_bins=max_bins).fit_transform(X)


def make_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 1] > 0.3).astype(np.int64)
    return X, y


class TestFitting:
    def test_learns_separable_rule(self):
        X, y = make_separable()
        Xb = binned(X)
        tree = DecisionTreeClassifier(max_depth=4, rng=np.random.default_rng(0))
        tree.fit(Xb, y)
        pred = (tree.predict_proba_binned(Xb) >= 0.5).astype(int)
        assert (pred == y).mean() > 0.97

    def test_pure_node_is_leaf(self):
        X = np.zeros((10, 2))
        y = np.ones(10, dtype=np.int64) * 0
        y[0] = 0
        Xb = binned(X)
        tree = DecisionTreeClassifier(rng=np.random.default_rng(0))
        # All-one-class labels are rejected upstream by the forest; the tree
        # itself handles a pure root by not splitting.
        tree.fit(Xb, np.zeros(10, dtype=np.int64))
        assert tree.n_nodes == 1

    def test_max_depth_respected(self):
        X, y = make_separable(400)
        tree = DecisionTreeClassifier(max_depth=2, rng=np.random.default_rng(0))
        tree.fit(binned(X), y)
        # depth 2 -> at most 1 + 2 + 4 nodes
        assert tree.n_nodes <= 7

    def test_min_samples_leaf(self):
        X, y = make_separable(50)
        tree = DecisionTreeClassifier(
            max_depth=10, min_samples_leaf=20, rng=np.random.default_rng(0)
        )
        tree.fit(binned(X), y)
        # Each split must leave >= 20 on each side: at most 1 split chain.
        assert tree.n_nodes <= 5

    def test_sample_weight_shifts_leaf_values(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        Xb = binned(X)
        tree = DecisionTreeClassifier(max_depth=1, rng=np.random.default_rng(0))
        w = np.array([1.0, 3.0])
        tree.fit(Xb, y, sample_weight=w)
        root_before_split = 3.0 / 4.0
        # The root leaf value is the weighted positive fraction.
        assert tree.node_value_[0] == pytest.approx(root_before_split)

    def test_feature_gain_tracks_used_features(self):
        X, y = make_separable(300)
        tree = DecisionTreeClassifier(max_depth=4, rng=np.random.default_rng(0))
        tree.fit(binned(X), y)
        assert np.argmax(tree.feature_gain_) == 1


class TestTextRendering:
    def test_rules_rendered(self):
        X, y = make_separable(200)
        tree = DecisionTreeClassifier(max_depth=3, rng=np.random.default_rng(0))
        tree.fit(binned(X), y)
        text = tree.to_text(feature_names=["a", "signal", "c", "d"])
        assert "leaf: P(malware)=" in text
        assert "signal" in text  # the informative feature appears in a rule

    def test_depth_cap_collapses_to_leaves(self):
        X, y = make_separable(200)
        tree = DecisionTreeClassifier(max_depth=6, rng=np.random.default_rng(0))
        tree.fit(binned(X), y)
        text = tree.to_text(max_depth=1)
        # At cap depth every line below the root split is a leaf.
        assert all(
            "leaf" in line or line.endswith(":")
            for line in text.splitlines()
        )

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().to_text()


class TestValidation:
    def test_requires_uint8(self):
        with pytest.raises(TypeError, match="uint8"):
            DecisionTreeClassifier().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_rejects_nonbinary_labels(self):
        Xb = np.zeros((3, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="binary"):
            DecisionTreeClassifier().fit(Xb, np.array([0, 1, 2]))

    def test_rejects_negative_weights(self):
        Xb = np.zeros((2, 1), dtype=np.uint8)
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(
                Xb, np.array([0, 1]), sample_weight=np.array([1.0, -1.0])
            )

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict_proba_binned(
                np.zeros((2, 1), dtype=np.uint8)
            )

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=5, max_value=80),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_leaf_probabilities_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n)
    Xb = binned(X)
    tree = DecisionTreeClassifier(max_depth=6, rng=rng)
    tree.fit(Xb, y)
    proba = tree.predict_proba_binned(Xb)
    assert ((proba >= 0) & (proba <= 1)).all()


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_training_accuracy_beats_base_rate(seed):
    """A deep unconstrained tree should fit binned training data at least as
    well as the majority-class predictor."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.2 * rng.normal(size=60) > 0).astype(np.int64)
    if len(np.unique(y)) < 2:
        return
    Xb = binned(X, max_bins=64)
    tree = DecisionTreeClassifier(max_depth=12, rng=rng)
    tree.fit(Xb, y)
    pred = (tree.predict_proba_binned(Xb) >= 0.5).astype(int)
    base = max(y.mean(), 1 - y.mean())
    assert (pred == y).mean() >= base - 1e-9


# ---------------------------------------------------------------------- #
# Differential oracle: the node-by-node grower the lock-step one replaced
# ---------------------------------------------------------------------- #


def _gini(pos: float, total: float) -> float:
    p = pos / total
    return 2.0 * p * (1.0 - p)


def _gini_vec(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, pos / total, 0.0)
    return 2.0 * p * (1.0 - p)


class NodeByNodeTree(DecisionTreeClassifier):
    """One node at a time, one ``np.bincount`` per candidate feature: the
    reference that the lock-step grower must match bit for bit."""

    def fit(
        self,
        X_binned: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "DecisionTreeClassifier":
        """Fit on uint8 bin codes and binary labels."""
        if X_binned.dtype != np.uint8:
            raise TypeError("X_binned must be uint8 bin codes (use BinMapper)")
        y = as_1d_int_array(y)
        check_same_length(X_binned, y, "X_binned, y")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary (0/1)")
        if sample_weight is None:
            sample_weight = np.ones(y.shape[0], dtype=np.float64)
        else:
            sample_weight = np.asarray(sample_weight, dtype=np.float64)
            check_same_length(sample_weight, y, "sample_weight, y")
            if (sample_weight < 0).any():
                raise ValueError("sample_weight must be non-negative")

        self.n_features_ = X_binned.shape[1]
        self.feature_gain_ = np.zeros(self.n_features_, dtype=np.float64)
        n_subset = _resolve_max_features(self.max_features, self.n_features_)

        features: List[int] = []
        thresholds: List[int] = []
        lefts: List[int] = []
        rights: List[int] = []
        values: List[float] = []

        def new_node() -> int:
            features.append(_NO_FEATURE)
            thresholds.append(0)
            lefts.append(-1)
            rights.append(-1)
            values.append(0.0)
            return len(features) - 1

        root = new_node()
        # Depth-first growth with an explicit stack of (node, row indices,
        # depth) — recursion depth is bounded by the data, not Python.
        stack: List[Tuple[int, np.ndarray, int]] = [
            (root, np.arange(y.shape[0]), 0)
        ]
        while stack:
            node, idx, depth = stack.pop()
            w = sample_weight[idx]
            w_total = w.sum()
            w_pos = w[y[idx] == 1].sum()
            prob = (w_pos / w_total) if w_total > 0 else 0.0
            values[node] = float(prob)

            if (
                depth >= self.max_depth
                or idx.size < self.min_samples_split
                or prob == 0.0
                or prob == 1.0
            ):
                continue

            split = self._best_split(X_binned, y, idx, w, n_subset)
            if split is None:
                continue
            feature, threshold, gain = split
            go_left = X_binned[idx, feature] <= threshold
            left_idx = idx[go_left]
            right_idx = idx[~go_left]
            if (
                left_idx.size < self.min_samples_leaf
                or right_idx.size < self.min_samples_leaf
            ):
                continue

            self.feature_gain_[feature] += gain * w_total
            features[node] = feature
            thresholds[node] = int(threshold)
            left = new_node()
            right = new_node()
            lefts[node] = left
            rights[node] = right
            stack.append((left, left_idx, depth + 1))
            stack.append((right, right_idx, depth + 1))

        self.node_feature_ = np.asarray(features, dtype=np.int64)
        self.node_threshold_ = np.asarray(thresholds, dtype=np.int64)
        self.node_left_ = np.asarray(lefts, dtype=np.int64)
        self.node_right_ = np.asarray(rights, dtype=np.int64)
        self.node_value_ = np.asarray(values, dtype=np.float64)
        return self

    def _best_split(
        self,
        X_binned: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        w: np.ndarray,
        n_subset: int,
    ) -> Optional[Tuple[int, int, float]]:
        """Scan a random feature subset; return (feature, bin, gini gain)."""
        y_node = y[idx]
        w_pos = w * (y_node == 1)
        total_w = w.sum()
        total_pos = w_pos.sum()
        if total_w <= 0:
            return None
        parent_gini = _gini(total_pos, total_w)

        candidates = self._rng.permutation(self.n_features_)
        best: Optional[Tuple[int, int, float]] = None
        examined = 0
        for feature in candidates:
            if examined >= n_subset and best is not None:
                break
            examined += 1
            codes = X_binned[idx, feature].astype(np.int64)
            n_bins = int(codes.max()) + 1
            if n_bins < 2:
                continue
            hist_w = np.bincount(codes, weights=w, minlength=n_bins)
            hist_pos = np.bincount(codes, weights=w_pos, minlength=n_bins)
            cum_w = np.cumsum(hist_w)[:-1]  # left side for cut after bin b
            cum_pos = np.cumsum(hist_pos)[:-1]
            right_w = total_w - cum_w
            right_pos = total_pos - cum_pos
            valid = (cum_w > 0) & (right_w > 0)
            if not valid.any():
                continue
            children = (
                cum_w * _gini_vec(cum_pos, cum_w)
                + right_w * _gini_vec(right_pos, right_w)
            ) / total_w
            children[~valid] = np.inf
            cut = int(np.argmin(children))
            gain = parent_gini - children[cut]
            if gain <= 1e-12:
                continue
            if best is None or gain > best[2]:
                best = (int(feature), cut, float(gain))
        return best


def node_by_node_batch(seeds, params, X_binned, y, base_weight):
    """The forest's tree batch as it was: one tree after another, each on
    its own bootstrap copy of the matrix."""
    n = y.shape[0]
    bootstrap = bool(params["bootstrap"])
    trees = []
    for seed in seeds:
        rng = np.random.default_rng(int(seed))
        if bootstrap:
            sample = rng.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        tree = NodeByNodeTree(
            max_depth=int(params["max_depth"]),
            min_samples_leaf=int(params["min_samples_leaf"]),
            max_features=params["max_features"],
            rng=rng,
        )
        tree.fit(X_binned[sample], y[sample], base_weight[sample])
        trees.append(tree)
    return trees


FLAT_ARRAYS = (
    "node_feature_",
    "node_threshold_",
    "node_left_",
    "node_right_",
    "node_value_",
    "feature_gain_",
)


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        for name in FLAT_ARRAYS:
            assert getattr(a, name).dtype == getattr(b, name).dtype, (i, name)
            assert np.array_equal(getattr(a, name), getattr(b, name)), (i, name)
        assert a.n_features_ == b.n_features_
        # the same permutations were drawn, in the same order
        assert a._rng.bit_generator.state == b._rng.bit_generator.state, i


@st.composite
def fit_cases(draw):
    """Binned training sets with the shapes that stress a split search:
    constant columns, duplicate rows, zero and unequal weights, rare or
    common positives, and codes from two bins up to the full 256."""
    n = draw(st.integers(min_value=1, max_value=160))
    n_features = draw(st.integers(min_value=1, max_value=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 2, 7, 40, 255]))
    X = rng.integers(0, top + 1, size=(n, n_features)).astype(np.uint8)
    constant = rng.permutation(n_features)[: draw(st.integers(0, n_features))]
    X[:, constant] = rng.integers(0, top + 1, size=constant.size).astype(np.uint8)
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 4), size=n)]
    y = (rng.random(n) < draw(st.sampled_from([0.03, 0.3, 0.5, 0.9]))).astype(
        np.int64
    )
    weighting = draw(st.sampled_from(["none", "unequal", "zeros", "balanced"]))
    if weighting == "none":
        w = None
    elif weighting == "balanced":
        n_pos = max(1, int(y.sum()))
        w = np.where(y == 1, n / (2.0 * n_pos), n / (2.0 * max(1, n - n_pos)))
    else:
        w = rng.exponential(size=n)
        if weighting == "zeros":
            w[rng.random(n) < 0.4] = 0.0
    params = {
        "max_depth": draw(st.integers(min_value=1, max_value=14)),
        "min_samples_split": draw(st.integers(min_value=2, max_value=12)),
        "min_samples_leaf": draw(st.integers(min_value=1, max_value=8)),
        "max_features": draw(
            st.sampled_from([None, "sqrt", "log2", 1, n_features])
        ),
    }
    return X, y, w, params


@settings(deadline=None, max_examples=150)
@given(case=fit_cases(), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_node_by_node_growth(case, seed):
    X, y, w, params = case
    got = DecisionTreeClassifier(rng=np.random.default_rng(seed), **params)
    want = NodeByNodeTree(rng=np.random.default_rng(seed), **params)
    assert_same_trees([got.fit(X, y, w)], [want.fit(X, y, w)])


def test_no_features_grows_one_leaf():
    X = np.zeros((4, 0), dtype=np.uint8)
    y = np.array([0, 1, 0, 1])
    got = DecisionTreeClassifier(rng=np.random.default_rng(0)).fit(X, y)
    want = NodeByNodeTree(rng=np.random.default_rng(0)).fit(X, y)
    assert_same_trees([got], [want])
    assert got.n_nodes == 1


@settings(deadline=None, max_examples=100)
@given(
    case=fit_cases(),
    n_trees=st.sampled_from([1, 3, 16]),
    bootstrap=st.booleans(),
    pairs_per_step=st.sampled_from([1, 300, tree_module._PAIRS_PER_STEP]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tree_batch_matches_one_tree_at_a_time(
    case, n_trees, bootstrap, pairs_per_step, seed
):
    """Also with a step budget small enough that trees wait their turn."""
    X, y, w, params = case
    params = dict(params, bootstrap=bootstrap)
    del params["min_samples_split"]
    w = np.ones(y.shape[0]) if w is None else w
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_trees)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "_PAIRS_PER_STEP", pairs_per_step)
        got = _fit_tree_batch(seeds, params, X, y, w)
    assert_same_trees(got, node_by_node_batch(seeds, params, X, y, w))


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(min_value=4, max_value=300),
    n_estimators=st.sampled_from([1, 17, 40]),
    max_features=st.sampled_from([None, "sqrt", 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_forest_scores_match_node_by_node_growth(n, n_estimators, max_features, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    X[:, 3] = np.round(X[:, 3])
    y = (X[:, 0] + rng.normal(size=n) > 1.0).astype(np.int64)
    y[:2] = (0, 1)

    def fit():
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_features=max_features, random_state=seed
        )
        return forest.fit(X, y)

    got = fit()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest_module, "_fit_tree_batch", node_by_node_batch)
        want = fit()
    assert type(want.trees_[0]) is NodeByNodeTree
    assert_same_trees(got.trees_, want.trees_)
    assert np.array_equal(got.predict_proba(X), want.predict_proba(X))
