"""Reusable evaluation protocol pieces (paper §IV-A).

The central loop, shared by the cross-day, cross-network, feature-ablation,
public-blacklist, and cross-family experiments:

1. pick a **test split** from the test day's traffic — known malware and
   known benign domains (whole-FQD blacklist match / whitelisted e2LD) that
   are queried by at least ``min_degree`` machines;
2. **train** Segugio on the training day with every test domain's ground
   truth *excluded* (hidden before machine labeling, pruning, features);
3. **classify** the test day with the same domains hidden;
4. build the ROC over the test split.  A hidden malware domain that was
   pruned away on the test day (it no longer enjoys R3's known-malware
   exception) is scored ``-1`` — an automatic miss — so the TP denominator
   matches the full test set, as in the paper.

Domain ids are global (one interner per scenario world), so train/test day
and even train/test *network* share ids and exclusion lists transfer
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.core.labeling import BENIGN, MALWARE, label_domains
from repro.core.pipeline import DetectionReport, ObservationContext, Segugio, SegugioConfig
from repro.ml.metrics import RocCurve, roc_curve
from repro.obs.tracing import current_tracer

MISS_SCORE = -1.0


@dataclass
class TestSplit:
    """Held-out known domains of a test day (global domain ids)."""

    __test__ = False  # not a pytest class, despite the name

    malware_ids: np.ndarray
    benign_ids: np.ndarray

    @property
    def all_ids(self) -> np.ndarray:
        return np.concatenate([self.malware_ids, self.benign_ids])

    @property
    def n_malware(self) -> int:
        return int(self.malware_ids.size)

    @property
    def n_benign(self) -> int:
        return int(self.benign_ids.size)

    def __repr__(self) -> str:
        return f"TestSplit(malware={self.n_malware}, benign={self.n_benign})"


@dataclass
class RocExperiment:
    """Result of one train/hide/classify/score run."""

    name: str
    roc: RocCurve
    split: TestSplit
    y_true: np.ndarray
    scores: np.ndarray
    n_malware_missing: int
    n_benign_missing: int
    model: Optional[Segugio] = None
    report: Optional[DetectionReport] = None
    extras: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.name}: AUC={self.roc.auc():.4f} "
            f"TP@0.1%FP={self.roc.tpr_at(0.001):.3f} "
            f"TP@0.5%FP={self.roc.tpr_at(0.005):.3f} "
            f"TP@1%FP={self.roc.tpr_at(0.01):.3f} "
            f"(test: {self.split.n_malware} malware, "
            f"{self.split.n_benign} benign)"
        )


def select_test_split(
    context: ObservationContext,
    test_fraction: float = 0.5,
    min_degree: int = 2,
    rng: Optional[np.random.Generator] = None,
    max_benign: Optional[int] = None,
) -> TestSplit:
    """Sample held-out known domains from a test day's traffic.

    Candidates are known malware/benign domains queried by at least
    *min_degree* machines (a domain with a single querier cannot survive
    pruning once its label is hidden, so including it would only measure
    R3, not the classifier).
    """
    if not 0 < test_fraction <= 1:
        raise ValueError("test_fraction must be in (0, 1]")
    rng = rng if rng is not None else np.random.default_rng(0)
    graph = BehaviorGraph.from_trace(context.trace)
    domain_labels = label_domains(
        graph,
        context.blacklist,
        context.whitelist,
        context.e2ld_index,
        as_of_day=context.day,
    )
    present = graph.domain_ids()
    degrees = graph.domain_degrees()
    eligible = present[degrees[present] >= min_degree]
    malware = eligible[domain_labels[eligible] == MALWARE]
    benign = eligible[domain_labels[eligible] == BENIGN]

    def sample(ids: np.ndarray, cap: Optional[int] = None) -> np.ndarray:
        k = max(1, int(round(test_fraction * ids.size))) if ids.size else 0
        if cap is not None:
            k = min(k, cap)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(rng.choice(ids, size=k, replace=False))

    return TestSplit(
        malware_ids=sample(malware),
        benign_ids=sample(benign, cap=max_benign),
    )


def score_split(
    report: DetectionReport, split: TestSplit
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Assemble (y_true, scores) over the split from a detection report.

    Test domains absent from the report (pruned away once hidden) receive
    :data:`MISS_SCORE`: a malware miss counts against TPR; a benign domain
    that cannot be scored cannot false-positive either, but is kept so FP
    rates are over the full benign test set, as in the paper.
    """
    score_map = report.score_map()
    y: List[int] = []
    scores: List[float] = []
    missing_malware = 0
    missing_benign = 0
    for domain_id in split.malware_ids:
        y.append(1)
        value = score_map.get(int(domain_id))
        if value is None:
            missing_malware += 1
            value = MISS_SCORE
        scores.append(value)
    for domain_id in split.benign_ids:
        y.append(0)
        value = score_map.get(int(domain_id))
        if value is None:
            missing_benign += 1
            value = MISS_SCORE
        scores.append(value)
    return (
        np.asarray(y, dtype=np.int64),
        np.asarray(scores, dtype=np.float64),
        missing_malware,
        missing_benign,
    )


def cross_day_experiment(
    train_context: ObservationContext,
    test_context: ObservationContext,
    name: str = "cross-day",
    config: Optional[SegugioConfig] = None,
    test_fraction: float = 0.5,
    min_degree: int = 2,
    seed: int = 0,
    max_benign: Optional[int] = None,
    keep_model: bool = False,
) -> RocExperiment:
    """The full §IV-A protocol for one (train day, test day) pair.

    Works unchanged for cross-network runs: pass contexts from different
    ISPs (domain ids are global to the scenario world).
    """
    tracer = current_tracer()
    rng = np.random.default_rng(seed)
    with tracer.span("segugio_experiment_select_split", experiment=name):
        split = select_test_split(
            test_context,
            test_fraction=test_fraction,
            min_degree=min_degree,
            rng=rng,
            max_benign=max_benign,
        )
    if split.n_malware == 0:
        raise ValueError(f"{name}: empty malware test set")
    if split.n_benign == 0:
        raise ValueError(f"{name}: empty benign test set")

    model = Segugio(config)
    with tracer.span("segugio_experiment_fit", experiment=name):
        model.fit(train_context, exclude_domains=split.all_ids)
    with tracer.span("segugio_experiment_classify", experiment=name):
        report = model.classify(test_context, hide_domains=split.all_ids)
    y_true, scores, miss_mal, miss_ben = score_split(report, split)
    return RocExperiment(
        name=name,
        roc=roc_curve(y_true, scores),
        split=split,
        y_true=y_true,
        scores=scores,
        n_malware_missing=miss_mal,
        n_benign_missing=miss_ben,
        model=model if keep_model else None,
        report=report if keep_model else None,
    )
