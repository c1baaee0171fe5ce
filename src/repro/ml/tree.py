"""Histogram-based CART decision trees (Gini impurity).

Trees operate on pre-binned uint8 feature codes (see
:class:`repro.ml.preprocessing.BinMapper`).  Each tree grows depth-first,
and the trees of one fit (a forest's batch, or a lone tree) grow in
lock-step: each step takes the next node to split from every tree (up to
a memory budget), builds the weighted class histograms of all their
candidate features with one ``np.bincount``, and scans every cut point with
cumulative sums — O(bins) rather than O(samples log samples) per feature,
and a fixed number of NumPy calls per step rather than per feature.

The fitted tree is stored as flat arrays (feature, threshold bin, children,
leaf value) so prediction is a vectorized level-by-level descent over all
query rows at once.
"""

from __future__ import annotations

import functools
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import as_1d_int_array, check_same_length

_NO_FEATURE = -1

#: ``np.sum`` of a 1-D array, the same pairwise addition, without the wrapper
_sum = np.add.reduce

#: (row, candidate) pairs one step scores, unless its first node has more: a
#: step holds ~20 bytes a pair, and 16 roots at once would hold 16 draws' worth
_PAIRS_PER_STEP = 1 << 17


def _resolve_max_features(option: Union[str, int, None], n_features: int) -> int:
    if option is None:
        return n_features
    if option == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if option == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    if isinstance(option, int):
        if not 1 <= option <= n_features:
            raise ValueError(
                f"max_features={option} out of range [1, {n_features}]"
            )
        return option
    raise ValueError(f"unsupported max_features: {option!r}")


class DecisionTreeClassifier:
    """Binary CART on binned features; leaf values are P(class 1).

    ``fit`` grows the tree with :func:`fit_trees`, as a batch of one.

    Args:
        max_depth: Maximum tree depth (root = depth 0).
        min_samples_split: Do not split nodes with fewer (weighted count
            uses raw sample counts, not weights).
        min_samples_leaf: Reject splits producing a smaller child.
        max_features: Features scored per split: "sqrt", "log2", an int,
            or None for all (a node none of them splits takes the next
            feature in its permutation that does).
        rng: Generator for the per-node feature subsampling (defaults to a
            fresh seed-0 generator so standalone trees are reproducible).
    """

    def __init__(
        self,
        max_depth: int = 14,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Union[str, int, None] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng if rng is not None else np.random.default_rng(0)

        # Flat representation, filled by fit().
        self.node_feature_: Optional[np.ndarray] = None
        self.node_threshold_: Optional[np.ndarray] = None
        self.node_left_: Optional[np.ndarray] = None
        self.node_right_: Optional[np.ndarray] = None
        self.node_value_: Optional[np.ndarray] = None
        self.n_features_: Optional[int] = None
        self.feature_gain_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #

    def fit(
        self,
        X_binned: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
    ) -> "DecisionTreeClassifier":
        """Fit on uint8 bin codes and binary labels."""
        fit_trees([self], X_binned, y, sample_weight, [np.arange(len(y))])
        return self

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #

    def predict_proba_binned(self, X_binned: np.ndarray) -> np.ndarray:
        """P(class 1) for pre-binned rows, via vectorized tree descent."""
        if self.node_feature_ is None:
            raise RuntimeError("tree is not fitted")
        nodes = np.zeros(X_binned.shape[0], dtype=np.int64)
        for _ in range(self.max_depth + 1):
            feature = self.node_feature_[nodes]
            internal = feature != _NO_FEATURE
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            f = feature[rows]
            thr = self.node_threshold_[nodes[rows]]
            go_left = X_binned[rows, f] <= thr
            nodes[rows] = np.where(
                go_left,
                self.node_left_[nodes[rows]],
                self.node_right_[nodes[rows]],
            )
        return self.node_value_[nodes]

    def to_text(
        self,
        feature_names: Optional[List[str]] = None,
        max_depth: Optional[int] = None,
    ) -> str:
        """Indented rule dump of the fitted tree (debugging/audit aid).

        Thresholds are *bin indices* (the tree operates on binned codes);
        map through the owning forest's :class:`BinMapper` edges when raw
        values are needed.
        """
        if self.node_feature_ is None:
            raise RuntimeError("tree is not fitted")

        lines: List[str] = []

        def walk(node: int, depth: int) -> None:
            indent = "  " * depth
            feature = int(self.node_feature_[node])
            if feature == _NO_FEATURE or (
                max_depth is not None and depth >= max_depth
            ):
                lines.append(
                    f"{indent}leaf: P(malware)={self.node_value_[node]:.3f}"
                )
                return
            name = (
                feature_names[feature]
                if feature_names is not None
                else f"f{feature}"
            )
            threshold = int(self.node_threshold_[node])
            lines.append(f"{indent}{name} <= bin {threshold}:")
            walk(int(self.node_left_[node]), depth + 1)
            lines.append(f"{indent}{name} >  bin {threshold}:")
            walk(int(self.node_right_[node]), depth + 1)

        walk(0, 0)
        return "\n".join(lines)

    @property
    def n_nodes(self) -> int:
        return 0 if self.node_feature_ is None else int(self.node_feature_.size)

    def __repr__(self) -> str:
        return f"DecisionTreeClassifier(nodes={self.n_nodes}, max_depth={self.max_depth})"


class _Growth:
    """One tree's depth-first growth: stack, node table, node being split."""

    def __init__(
        self, tree: DecisionTreeClassifier, rows: np.ndarray, n_features: int
    ) -> None:
        tree.n_features_ = n_features
        tree.feature_gain_ = np.zeros(n_features, dtype=np.float64)
        self.tree = tree
        # one [feature, threshold bin, left, right, P(class 1)] per node
        self.nodes: List[list] = [[_NO_FEATURE, 0, -1, -1, 0.0]]
        # (node, row ids, depth); a bootstrap draw repeats row ids
        self.stack: List[Tuple[int, np.ndarray, int]] = [(0, rows, 0)]

    def next_split(self, weight: np.ndarray, positive: np.ndarray) -> bool:
        """Pop nodes, settling each leaf, up to the next one to split;
        False once the tree is grown.

        The sums stay per node: ``np.sum`` adds pairwise, and no reduction
        over the whole step reproduces its bits.
        """
        tree = self.tree
        while self.stack:
            node, rows, depth = self.at = self.stack.pop()
            w = weight[rows]
            pos = positive[rows]
            self.w_total = _sum(w)
            prob = (_sum(w[pos]) / self.w_total) if self.w_total > 0 else 0.0
            self.nodes[node][4] = float(prob)
            if prob == 0.0 or prob == 1.0 or depth >= tree.max_depth:
                continue
            if rows.size < tree.min_samples_split or not tree.n_features_:
                continue
            self.pos_total = _sum(w * pos)
            self.perm = tree._rng.permutation(tree.n_features_)
            return True
        return False

    def split(self, X_binned: np.ndarray, feature: int, cut: int, gain: float) -> None:
        """Split on ``code <= cut``, unless a child is under the leaf minimum."""
        node, rows, depth = self.at
        go_left = X_binned[rows, feature] <= cut
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        if min(left_rows.size, right_rows.size) < self.tree.min_samples_leaf:
            return
        self.tree.feature_gain_[feature] += gain * self.w_total
        left = len(self.nodes)
        self.nodes[node][:4] = feature, cut, left, left + 1
        self.nodes += [[_NO_FEATURE, 0, -1, -1, 0.0], [_NO_FEATURE, 0, -1, -1, 0.0]]
        self.stack.append((left, left_rows, depth + 1))
        self.stack.append((left + 1, right_rows, depth + 1))

    def finish(self) -> None:
        feature, threshold, left, right, value = zip(*self.nodes)
        tree = self.tree
        tree.node_feature_ = np.array(feature, dtype=np.int64)
        tree.node_threshold_ = np.array(threshold, dtype=np.int64)
        tree.node_left_ = np.array(left, dtype=np.int64)
        tree.node_right_ = np.array(right, dtype=np.int64)
        tree.node_value_ = np.array(value, dtype=np.float64)


def fit_trees(
    trees: Sequence[DecisionTreeClassifier],
    X_binned: np.ndarray,
    y: np.ndarray,
    sample_weight: Optional[np.ndarray],
    samples: Iterable[np.ndarray],
) -> None:
    """Grow tree ``i`` on the rows ``samples[i]`` of one binned matrix.

    The trees share their hyperparameters and grow in lock-step, yet each
    comes out bit-identical to one grown alone: it pops its own stack in
    right-first depth-first order and draws its own feature permutation per
    node.  A node keeps the best of the first ``max_features`` features of
    its permutation or, when none of them splits it, the first later one.
    """
    if X_binned.dtype != np.uint8:
        raise TypeError("X_binned must be uint8 bin codes (use BinMapper)")
    y = as_1d_int_array(y)
    check_same_length(X_binned, y, "X_binned, y")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    if sample_weight is None:
        sample_weight = np.ones(y.shape[0], dtype=np.float64)
    sample_weight = np.asarray(sample_weight, dtype=np.float64)
    check_same_length(sample_weight, y, "sample_weight, y")
    if (sample_weight < 0).any():
        raise ValueError("sample_weight must be non-negative")
    positive = y == 1
    n_features = X_binned.shape[1]
    n_subset = _resolve_max_features(trees[0].max_features, n_features)
    growing = [_Growth(tree, rows, n_features) for tree, rows in zip(trees, samples)]
    score = functools.partial(_score_cuts, X_binned, sample_weight, positive)
    pending = growing
    while pending:
        step, waiting, pairs = [], [], 0  # waiting: past the step's budget
        for growth in pending:
            if pairs >= _PAIRS_PER_STEP:
                waiting.append(growth)
            elif growth.next_split(sample_weight, positive):
                step.append(growth)
                pairs += growth.at[1].size * n_subset
        if not step:
            break
        perms = np.array([growth.perm for growth in step])
        cut, gain = score(step, perms[:, :n_subset])
        nodes = np.arange(len(step))
        choice = gain.argmax(axis=1)  # the first best, as a strict ">" scan keeps
        feature = perms[nodes, choice]
        threshold = cut[nodes, choice]
        best = gain[nodes, choice]
        lost = np.flatnonzero(best == -np.inf)
        if lost.size and n_subset < n_features:
            cut, gain = score([step[i] for i in lost], perms[lost, n_subset:])
            first = (gain > -np.inf).argmax(axis=1)
            nodes = np.arange(lost.size)
            feature[lost] = perms[lost, n_subset + first]
            threshold[lost] = cut[nodes, first]
            best[lost] = gain[nodes, first]
        for growth, f, t, g in zip(step, feature.tolist(), threshold.tolist(), best):
            if g > -np.inf:
                growth.split(X_binned, f, t, g)
        pending = waiting + step
    for growth in growing:
        growth.finish()


def _score_cuts(
    X_binned: np.ndarray,
    weight: np.ndarray,
    positive: np.ndarray,
    step: Sequence[_Growth],
    candidates: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best cut of every (node, candidate feature) pair of one step.

    Returns ``(cut, gain)``, shaped like *candidates*: the first bin ``b``
    minimizing the weighted child Gini of ``code <= b`` against the rest,
    and its gain (``-inf`` unless above 1e-12).  A class histogram is one
    ``np.bincount`` over (node, candidate, bin) keys, which adds each key's
    weights in row order, as a bincount over one node and feature does.
    """
    n_nodes, k = candidates.shape
    rows = [growth.at[1] for growth in step]
    sizes = [r.size for r in rows]
    codes = np.concatenate([X_binned[r[:, None], c] for r, c in zip(rows, candidates)])
    # each pair's largest code: no cut at or past it, where the right side
    # is only the rounding gap between a cumsum total and the pairwise one
    top = np.maximum.reduceat(codes, np.cumsum(sizes) - sizes, axis=0)
    n_bins = int(top.max()) + 1
    slots = np.arange(n_nodes * k).reshape(n_nodes, k)  # one per (node, candidate)
    keys = np.repeat(slots * n_bins, sizes, axis=0)
    keys += codes
    every_row = np.concatenate(rows)
    w = weight[every_row]
    pos = positive[every_row]
    size = n_nodes * k * n_bins
    hist_w = np.bincount(keys.ravel(), np.repeat(w, k), size)
    # class 1 over its own rows: the class-0 rows of ``w * pos`` add exact zeros
    hist_pos = np.bincount(keys[pos].ravel(), np.repeat(w[pos], k), size)
    shape = (n_nodes, k, n_bins)
    cum_w = hist_w.reshape(shape).cumsum(axis=2)
    cum_pos = hist_pos.reshape(shape).cumsum(axis=2)
    w_total = np.array([growth.w_total for growth in step])[:, None, None]
    pos_total = np.array([growth.pos_total for growth in step])[:, None, None]
    right_w = w_total - cum_w
    right_pos = pos_total - cum_pos
    valid = (cum_w > 0) & (right_w > 0) & (np.arange(n_bins) < top[:, :, None])
    children = (
        cum_w * _gini(cum_pos, cum_w) + right_w * _gini(right_pos, right_w)
    ) / w_total
    children[~valid] = np.inf
    gain = _gini(pos_total, w_total)[:, :, 0] - children.min(axis=2)
    gain[gain <= 1e-12] = -np.inf
    return children.argmin(axis=2), gain


def _gini(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    p = np.divide(pos, total, out=np.zeros_like(total), where=total > 0)
    return 2.0 * p * (1.0 - p)
