"""Sensitivity sweeps over Segugio's fixed design parameters.

The paper fixes the activity lookback at n = 14 days, the pDNS window at
W = 5 months, and evaluates train/test gaps of 13-24 days without sweeping
them.  These drivers vary one knob at a time over the same world and
report the accuracy trend — the ablation evidence DESIGN.md §5 calls for.

Each sweep returns ``[(value, RocExperiment), ...]`` ordered by value.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.core.pipeline import SegugioConfig
from repro.eval.harness import RocExperiment, cross_day_experiment
from repro.synth.scenario import Scenario

SweepResult = List[Tuple[float, RocExperiment]]


def sweep_train_test_gap(
    scenario: Scenario,
    isp: str = "isp1",
    gaps: Sequence[int] = (3, 8, 13, 20),
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
) -> SweepResult:
    """Accuracy as the train/test separation grows (model staleness).

    The paper's experiments use gaps up to 24 days and report sustained
    accuracy; the sweep shows where (if anywhere) the model ages out.
    """
    base = config if config is not None else SegugioConfig()
    results: SweepResult = []
    train_ctx = scenario.context(isp, scenario.eval_day(0))
    for gap in gaps:
        experiment = cross_day_experiment(
            train_ctx,
            scenario.context(isp, scenario.eval_day(int(gap))),
            name=f"gap={gap}d",
            config=base,
            seed=seed,
        )
        results.append((float(gap), experiment))
    return results


def sweep_activity_window(
    scenario: Scenario,
    isp: str = "isp1",
    gap: int = 13,
    windows: Sequence[int] = (3, 7, 14),
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
) -> SweepResult:
    """Accuracy vs. the F2 lookback n (paper: n = 14)."""
    base = config if config is not None else SegugioConfig()
    train_ctx = scenario.context(isp, scenario.eval_day(0))
    test_ctx = scenario.context(isp, scenario.eval_day(gap))
    results: SweepResult = []
    for window in windows:
        experiment = cross_day_experiment(
            train_ctx,
            test_ctx,
            name=f"n={window}d",
            config=replace(base, activity_window=int(window)),
            seed=seed,
        )
        results.append((float(window), experiment))
    return results


def sweep_pdns_window(
    scenario: Scenario,
    isp: str = "isp1",
    gap: int = 13,
    windows: Sequence[int] = (14, 60, 150),
    config: Optional[SegugioConfig] = None,
    seed: int = 0,
) -> SweepResult:
    """Accuracy vs. the F3 pDNS history length W (paper: ~5 months)."""
    base = config if config is not None else SegugioConfig()
    train_ctx = scenario.context(isp, scenario.eval_day(0))
    test_ctx = scenario.context(isp, scenario.eval_day(gap))
    results: SweepResult = []
    for window in windows:
        experiment = cross_day_experiment(
            train_ctx,
            test_ctx,
            name=f"W={window}d",
            config=replace(base, pdns_window_days=int(window)),
            seed=seed,
        )
        results.append((float(window), experiment))
    return results


def sweep_summary(results: SweepResult, label: str) -> str:
    """One-line-per-point report of a sweep."""
    lines = [f"sweep: {label}"]
    for value, experiment in results:
        lines.append(
            f"  {label}={value:g}: AUC={experiment.roc.auc():.4f} "
            f"TP@0.1%FP={experiment.roc.tpr_at(0.001):.3f} "
            f"TP@1%FP={experiment.roc.tpr_at(0.01):.3f}"
        )
    return "\n".join(lines)
