#!/usr/bin/env python3
"""Head-to-head: Segugio vs. loopy belief propagation, co-occurrence, a
Notos-style reputation system, and an Exposure-style detector — all scored
on the identical hidden test split (paper §I pilot study and §V).

    python examples/compare_baselines.py
"""

import numpy as np

from repro import Scenario
from repro.baselines.belief import LoopyBeliefPropagation
from repro.baselines.cooccurrence import CoOccurrenceScorer
from repro.baselines.exposure import ExposureDetector
from repro.baselines.notos import NotosReputation
from repro.core.graph import BehaviorGraph
from repro.core.labeling import UNKNOWN, derive_machine_labels, label_domains
from repro.core.pipeline import SegugioConfig
from repro.eval.harness import MISS_SCORE, cross_day_experiment
from repro.eval.reporting import roc_series_table
from repro.ml.metrics import roc_curve


def main() -> None:
    scenario = Scenario.small(seed=7)
    gap = 13
    train_ctx = scenario.context("isp1", scenario.eval_day(0))
    test_ctx = scenario.context("isp1", scenario.eval_day(gap))

    # --- Segugio (also fixes the shared test split) ---
    segugio = cross_day_experiment(
        train_ctx,
        test_ctx,
        name="Segugio",
        config=SegugioConfig(n_estimators=40),
        seed=1,
        keep_model=True,
    )
    split = segugio.split
    y_true = segugio.y_true
    curves = {"Segugio": segugio.roc}

    # --- graph-only baselines on the same hidden graph ---
    graph = BehaviorGraph.from_trace(test_ctx.trace)
    domain_labels = label_domains(
        graph,
        test_ctx.blacklist,
        test_ctx.whitelist,
        test_ctx.e2ld_index,
        as_of_day=test_ctx.day,
    )
    domain_labels[split.all_ids] = UNKNOWN
    labels = derive_machine_labels(graph, domain_labels)

    lbp_scores = LoopyBeliefPropagation().score_domains(graph, labels)
    curves["Loopy BP"] = roc_curve(y_true, lbp_scores[split.all_ids])

    cooc_scores = CoOccurrenceScorer().score_domains(graph, labels)
    curves["Co-occurrence"] = roc_curve(y_true, cooc_scores[split.all_ids])

    # --- Notos-style reputation (pDNS history only) ---
    notos = NotosReputation(
        pdns=scenario.pdns,
        domains=scenario.domains,
        e2ld_index=scenario.e2ld_index,
        sandbox=scenario.sandbox,
    )
    notos.fit(
        train_ctx.day,
        blacklist=scenario.commercial_blacklist.snapshot(train_ctx.day),
        whitelist=scenario.whitelist,
        max_benign=2000,
    )
    raw = notos.score([int(d) for d in split.all_ids], end_day=test_ctx.day)
    rejected = int(np.count_nonzero(np.isnan(raw)))
    notos_scores = np.where(np.isnan(raw), MISS_SCORE, raw)
    curves["Notos-style"] = roc_curve(y_true, notos_scores)

    # --- Exposure-style detector (pDNS time-series, machine-blind) ---
    exposure = ExposureDetector(
        pdns=scenario.pdns,
        activity=scenario.fqd_activity,
        domains=scenario.domains,
    )
    exposure.fit(
        train_ctx.day,
        blacklist=scenario.commercial_blacklist.snapshot(train_ctx.day),
        whitelist=scenario.whitelist,
        max_benign=2000,
    )
    exposure_scores = exposure.score(
        [int(d) for d in split.all_ids], end_day=test_ctx.day
    )
    curves["Exposure-style"] = roc_curve(y_true, exposure_scores)

    print(
        roc_series_table(
            curves,
            title=(
                f"{split.n_malware} hidden C&C domains, "
                f"{split.n_benign} hidden benign domains "
                f"(Notos rejected {rejected} candidates)"
            ),
        )
    )


if __name__ == "__main__":
    main()
