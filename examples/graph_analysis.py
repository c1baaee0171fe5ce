#!/usr/bin/env python3
"""Explore one day's behavior graph: structure, intuitions, explanations.

Walks the analysis surface around the classifier:

1. graph structure before/after pruning (degree histograms, components);
2. the paper's intuition (2) measured directly — querier overlap within a
   malware family vs. between random benign domains;
3. a detection explained feature-by-feature (why was this domain flagged?).

    python examples/graph_analysis.py
"""

from repro import Scenario, Segugio
from repro.core.features import FEATURE_NAMES
from repro.core.graph import BehaviorGraph
from repro.core.graphstats import (
    degree_histogram,
    intra_family_overlap,
    summarize,
)
from repro.ml.importance import local_attribution


def main() -> None:
    scenario = Scenario.small(seed=7)
    day = scenario.eval_day(2)
    context = scenario.context("isp1", day)

    # ---------------- structure, raw vs pruned ----------------
    model = Segugio()
    prepared = model.prepare_day(context)  # built once, shared below
    model.fit(context, prepared=prepared)
    raw = BehaviorGraph.from_trace(context.trace)
    pruned, labels, extractor = (
        prepared.graph, prepared.labels, prepared.extractor
    )
    print("=== raw graph ===")
    print(summarize(raw))
    print("\n=== after pruning R1-R4 ===")
    print(summarize(pruned, labels))
    print(
        "\nmachine degree histogram (pruned, <=20):",
        degree_histogram(pruned, "machine", max_bucket=20),
    )

    # ---------------- intuition (2): family overlap ----------------
    mw = scenario.malware
    pop = scenario.populations["isp1"]
    groups = {}
    for fam in list(pop.family_members)[:5]:
        active = mw.active_indices_of_family(fam, day)
        if active.size >= 2:
            groups[mw.family_names[fam]] = [int(g) for g in mw.fqd_ids[active]]
    groups["random benign"] = [int(d) for d in scenario.universe.fqd_ids[400:430]]
    print("\n=== querier overlap (Jaccard) within groups ===")
    for group, overlap in intra_family_overlap(raw, groups).items():
        print(f"  {group:<16s} {overlap:.3f}")

    # ---------------- explain a detection ----------------
    report = model.classify(context, prepared=prepared)
    name, score = report.detections(threshold=0.0)[0]
    domain_id = context.domain_id(name)
    x = extractor.feature_matrix([domain_id])[0]
    training = model.training_set_
    rows = local_attribution(
        model.classifier_, training.X, x, feature_names=FEATURE_NAMES
    )
    truth = "MALWARE" if scenario.is_true_malware(name) else "unknown"
    print(f"\n=== why was {name} flagged? (score {score:.2f}, truth {truth}) ===")
    for row in rows[:5]:
        print(
            f"  {row['feature']:<24s} value={row['value']:8.2f} "
            f"(typical {row['background_median']:6.2f})  "
            f"contribution {row['contribution']:+.3f}"
        )


if __name__ == "__main__":
    main()
