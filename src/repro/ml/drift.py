"""Distribution-drift statistics for deployed models.

The paper's answer to model staleness is daily retraining (§IV-G makes it
cheap).  A deployment that retrains less often needs to know *when* the
model has aged out: this module compares the distributions a model sees
and produces today against a reference day using two complementary
statistics:

* **PSI** (population stability index) — sensitive to mass moving between
  reference-decile bins; the standard scorecard-monitoring statistic.
* **KS** (two-sample Kolmogorov-Smirnov) — the maximum CDF gap; binless,
  so it catches shifts PSI's coarse deciles smear out.

:func:`feature_drift` applies both per feature column, which the tracker
aggregates into the day-over-day quality summary evaluated by
:mod:`repro.obs.monitor` alert rules.

Rule-of-thumb thresholds (industry convention): PSI < 0.1 stable,
0.1-0.25 moderate shift (watch), > 0.25 significant shift (retrain).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

PSI_WATCH = 0.10
PSI_RETRAIN = 0.25


def population_stability_index(
    reference: np.ndarray,
    current: np.ndarray,
    n_bins: int = 10,
) -> float:
    """PSI between a reference and a current sample of scores.

    Bins are deciles of the *reference* distribution (ties collapsed);
    empty bins are floored at a small epsilon so the index stays finite.
    """
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if reference.size == 0 or current.size == 0:
        raise ValueError("both samples must be non-empty")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")

    deciles = np.quantile(reference, np.linspace(0, 1, n_bins + 1)[1:-1])
    return _psi(deciles, np.sort(reference), np.sort(current))


def _psi(deciles: np.ndarray, reference: np.ndarray, current: np.ndarray) -> float:
    """PSI of two *sorted* samples: a bin's count is the step in a sample's
    rank between the bin's edges (the reference deciles, ties collapsed)."""
    edges = np.unique(deciles)
    fractions = [
        np.diff(np.searchsorted(sample, edges, "right"), prepend=0, append=sample.size)
        / sample.size
        for sample in (reference, current)
    ]
    ref_frac, cur_frac = np.maximum(fractions, 1e-6)  # empty bins stay finite
    return float(np.sum((cur_frac - ref_frac) * np.log(cur_frac / ref_frac)))


def ks_statistic(reference: np.ndarray, current: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (max |CDF_ref - CDF_cur|).

    Binless companion to :func:`population_stability_index`: PSI smears
    shifts across reference deciles, KS catches a sharp local CDF gap.
    Returned value is in [0, 1]; 0 means identical empirical CDFs.
    """
    reference = np.sort(np.asarray(reference, dtype=np.float64))
    current = np.sort(np.asarray(current, dtype=np.float64))
    if reference.size == 0 or current.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([reference, current])
    cdf_ref = np.searchsorted(reference, grid, side="right") / reference.size
    cdf_cur = np.searchsorted(current, grid, side="right") / current.size
    return float(np.max(np.abs(cdf_ref - cdf_cur)))


def feature_drift(
    reference: np.ndarray,
    current: np.ndarray,
    feature_names: Sequence[str],
    n_bins: int = 10,
) -> Dict[str, Dict[str, float]]:
    """Per-feature PSI + KS between two feature matrices.

    *reference* and *current* are (n_samples, n_features) matrices over the
    same columns; *feature_names* names those columns.  Returns
    ``{name: {"psi": float, "ks": float}}`` in column order.  Constant
    columns (a single distinct value on the reference day) yield PSI 0 when
    unchanged — searchsorted places all mass in one bin on both sides.
    """
    reference = np.asarray(reference, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if reference.ndim != 2 or current.ndim != 2:
        raise ValueError("feature matrices must be 2-D")
    if reference.shape[1] != current.shape[1]:
        raise ValueError("matrices must share a column space")
    if reference.shape[1] != len(feature_names):
        raise ValueError("feature_names must match the column count")
    if reference.shape[0] == 0 or current.shape[0] == 0:
        raise ValueError("both samples must be non-empty")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    # each column sorted once, as a row; every column's deciles in one call
    reference = np.sort(reference.T, axis=1)
    current = np.sort(current.T, axis=1)
    deciles = np.quantile(reference, np.linspace(0, 1, n_bins + 1)[1:-1], axis=1).T
    return {
        str(name): {
            "psi": _psi(deciles[column], reference[column], current[column]),
            "ks": ks_statistic(reference[column], current[column]),
        }
        for column, name in enumerate(feature_names)
    }


@dataclass
class DriftCheck:
    """Result of one drift check."""

    day: int
    psi: float

    @property
    def status(self) -> str:
        if self.psi >= PSI_RETRAIN:
            return "retrain"
        if self.psi >= PSI_WATCH:
            return "watch"
        return "stable"


class ScoreDriftMonitor:
    """Tracks a deployed model's benign-score drift day over day.

    Feed it the training-day benign scores once, then each deployment
    day's scores (any mix — at ISP scale the overwhelming majority of
    scored unknowns is benign, so the bulk distribution tracks the benign
    population).
    """

    def __init__(
        self, reference_scores: np.ndarray, n_bins: int = 10
    ) -> None:
        reference = np.asarray(reference_scores, dtype=np.float64)
        if reference.size == 0:
            raise ValueError("reference scores must be non-empty")
        self._reference = reference
        self.n_bins = int(n_bins)
        self.history: List[DriftCheck] = []

    def check(self, day: int, scores: np.ndarray) -> DriftCheck:
        """Record and return the drift check for one day's scores."""
        psi = population_stability_index(
            self._reference, scores, n_bins=self.n_bins
        )
        result = DriftCheck(day=int(day), psi=psi)
        self.history.append(result)
        return result

    def needs_retraining(self) -> bool:
        """True when the most recent check crossed the retrain threshold."""
        return bool(self.history) and self.history[-1].psi >= PSI_RETRAIN

    def trend(self) -> Optional[str]:
        """'rising' / 'falling' / 'flat' over the last three checks."""
        if len(self.history) < 3:
            return None
        last = [check.psi for check in self.history[-3:]]
        if last[2] > last[1] > last[0]:
            return "rising"
        if last[2] < last[1] < last[0]:
            return "falling"
        return "flat"

    def __len__(self) -> int:
        return len(self.history)
