"""Evaluation harness: the paper's experimental protocols and artifacts.

* :mod:`repro.eval.harness` — reusable protocol pieces: leak-free test-set
  selection, the train/hide/classify/score loop, and the
  :class:`repro.eval.harness.RocExperiment` result container.
* :mod:`repro.eval.experiments` — one driver per paper table/figure
  (Table I-IV, Fig. 3, 6, 7, 8, 10, 11, 12, the pruning stats, the
  cross-blacklist test, and the LBP/co-occurrence pilot comparisons).
* :mod:`repro.eval.crossval` — same-day stratified cross-validation.
* :mod:`repro.eval.sweeps` — sensitivity sweeps over the fixed design
  parameters (train/test gap, activity lookback n, pDNS window W).
* :mod:`repro.eval.reporting` — ASCII rendering of tables, ROC series, and
  histograms; :mod:`repro.eval.figures` — the ASCII ROC plot.
"""

from repro.eval.crossval import CrossValidationResult, cross_validate_day
from repro.eval.harness import RocExperiment, TestSplit, cross_day_experiment, select_test_split

__all__ = [
    "CrossValidationResult",
    "RocExperiment",
    "TestSplit",
    "cross_day_experiment",
    "cross_validate_day",
    "select_test_split",
]
