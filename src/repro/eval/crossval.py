"""Same-day cross-validation of the behavior-based classifier.

The paper's headline experiments are cross-day, but §VII notes the
evaluation also included cross-validation.  This driver runs stratified
k-fold validation *within* one observation day with the same ground-truth
hygiene as everything else: the test fold's labels are hidden before
machine labeling, pruning, and feature measurement, the model trains on
the remaining known domains, and the fold's domains are scored as
unknowns.  Folds are pooled on benign-calibrated ranks (each fold trains
its own model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pipeline import ObservationContext, Segugio, SegugioConfig
from repro.eval.harness import (
    TestSplit,
    eligible_known_ids,
    labeled_day,
    pool_folds,
    score_split,
)
from repro.ml.folds import stratified_kfold
from repro.ml.metrics import RocCurve, roc_curve


@dataclass
class CrossValidationResult:
    """Pooled k-fold scores for one day."""

    roc: RocCurve
    y_true: np.ndarray
    scores: np.ndarray
    n_folds: int
    fold_aucs: List[float]

    def summary(self) -> str:
        return (
            f"{self.n_folds}-fold CV: AUC={self.roc.auc():.4f} "
            f"TP@0.1%FP={self.roc.tpr_at(0.001):.3f} "
            f"(per-fold AUC {min(self.fold_aucs):.3f}-{max(self.fold_aucs):.3f})"
        )


def cross_validate_day(
    context: ObservationContext,
    n_folds: int = 3,
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
    min_degree: int = 2,
) -> CrossValidationResult:
    """Stratified k-fold over the day's known domains."""
    rng = np.random.default_rng(seed)
    malware, benign = eligible_known_ids(*labeled_day(context), min_degree)
    known = np.sort(np.concatenate([malware, benign]))
    if known.size < n_folds * 2:
        raise ValueError("not enough known domains for cross-validation")
    y = np.isin(known, malware).astype(np.int64)
    if y.sum() < n_folds:
        raise ValueError("too few malware domains for the requested folds")

    folds: List[Tuple[np.ndarray, np.ndarray]] = []
    fold_aucs: List[float] = []
    for train_idx, test_idx in stratified_kfold(y, n_folds, rng):
        del train_idx  # training uses everything *not hidden*, below
        fold_ids = known[test_idx]
        split = TestSplit(
            malware_ids=fold_ids[y[test_idx] == 1],
            benign_ids=fold_ids[y[test_idx] == 0],
        )
        model = Segugio(config)
        # one context, one hidden set: the fold's day is built once
        prepared = model.prepare_day(context, hide_domains=split.all_ids)
        model.fit(context, exclude_domains=split.all_ids, prepared=prepared)
        report = model.classify(
            context, hide_domains=split.all_ids, prepared=prepared
        )
        y_fold, s_fold, _, _ = score_split(report, split)
        fold_aucs.append(roc_curve(y_fold, s_fold).auc())
        folds.append((y_fold, s_fold))

    y_all, s_all = pool_folds(folds)
    return CrossValidationResult(
        roc=roc_curve(y_all, s_all),
        y_true=y_all,
        scores=s_all,
        n_folds=n_folds,
        fold_aucs=fold_aucs,
    )
