"""Score calibration: map raw malware scores to empirical FP rates.

The forest's mean-leaf score is a *ranking*, not a probability: class
weighting and bagging compress it (§II-A3 only requires a tunable
threshold).  Operations cares about one number per domain: *what FP rate
would detecting this domain imply?*  :class:`FprCalibrator` learns the
mapping from a benign reference population (typically the training-day
benign scores) and converts scores to empirical FP rates — so thresholds
can be stated as rates ("block at <=0.1% FPs") independent of model,
day, and network.

Also provided: :class:`IsotonicCalibrator`, a classic monotone
probability calibration (pool-adjacent-violators) for when calibrated
P(malware) rather than an FP rate is wanted.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.metrics import threshold_for_fpr
from repro.utils.validation import as_1d_int_array, check_same_length


class FprCalibrator:
    """Score -> empirical false-positive rate, from a benign reference."""

    def __init__(self) -> None:
        self._benign_sorted: Optional[np.ndarray] = None

    def fit(self, benign_scores: np.ndarray) -> "FprCalibrator":
        scores = np.asarray(benign_scores, dtype=np.float64)
        if scores.size == 0:
            raise ValueError("need at least one benign reference score")
        self._benign_sorted = np.sort(scores)
        return self

    def fpr_of(self, scores: np.ndarray) -> np.ndarray:
        """Fraction of the benign reference scoring at or above each score."""
        if self._benign_sorted is None:
            raise RuntimeError("calibrator is not fitted")
        scores = np.atleast_1d(np.asarray(scores, dtype=np.float64))
        below = np.searchsorted(self._benign_sorted, scores, side="left")
        return 1.0 - below / self._benign_sorted.size

    def threshold_for(self, max_fpr: float) -> float:
        """Smallest score whose implied FP rate is <= max_fpr."""
        if self._benign_sorted is None:
            raise RuntimeError("calibrator is not fitted")
        return threshold_for_fpr(self._benign_sorted, max_fpr)


class IsotonicCalibrator:
    """Monotone P(malware | score) via pool-adjacent-violators."""

    def __init__(self) -> None:
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def fit(self, scores: np.ndarray, labels: np.ndarray) -> "IsotonicCalibrator":
        scores = np.asarray(scores, dtype=np.float64)
        labels = as_1d_int_array(labels)
        check_same_length(scores, labels, "scores, labels")
        if scores.size == 0:
            raise ValueError("need calibration data")
        order = np.argsort(scores, kind="stable")
        x = scores[order]
        y = labels[order].astype(np.float64)
        weights = np.ones_like(y)

        # Pool adjacent violators.
        values = list(y)
        wts = list(weights)
        xs = list(x)
        i = 0
        while i < len(values) - 1:
            if values[i] > values[i + 1] + 1e-15:
                merged_w = wts[i] + wts[i + 1]
                merged_v = (values[i] * wts[i] + values[i + 1] * wts[i + 1]) / merged_w
                values[i: i + 2] = [merged_v]
                wts[i: i + 2] = [merged_w]
                xs[i: i + 2] = [xs[i + 1]]
                if i > 0:
                    i -= 1
            else:
                i += 1
        self._x = np.asarray(xs)
        self._y = np.asarray(values)
        return self

    def predict(self, scores: np.ndarray) -> np.ndarray:
        if self._x is None or self._y is None:
            raise RuntimeError("calibrator is not fitted")
        scores = np.atleast_1d(np.asarray(scores, dtype=np.float64))
        idx = np.searchsorted(self._x, scores, side="left")
        idx = np.clip(idx, 0, self._y.size - 1)
        return self._y[idx]
