#!/usr/bin/env python3
"""Deployment loop: track malware-control domains day by day.

Mirrors the paper's early-detection experiment (§IV-F): every day Segugio
retrains on that day's traffic, picks a detection threshold targeting a
0.1% false-positive rate from its *own training-day benign scores* (no test
ground truth), reports newly detected domains plus the infected machines
that query them, and finally checks how much earlier than the blacklist
each detection was.

    python examples/track_infections.py [n_days]
"""

import sys

from repro import Scenario, Segugio
from repro.ml.metrics import threshold_for_fpr


def main() -> None:
    n_days = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    scenario = Scenario.small(seed=21)
    isp = "isp1"

    all_detected = {}
    for offset in range(n_days):
        day = scenario.eval_day(offset)
        context = scenario.context(isp, day)

        model = Segugio()
        # Learn from and classify the same day: build its graph once.
        prepared = model.prepare_day(context)
        model.fit(context, prepared=prepared)

        # Deployment-grade thresholding: score the training-day benign
        # domains (hidden-label features) and cap the FP rate at 0.1%.
        training = model.training_set_
        benign_scores = model.classifier_.predict_proba(
            training.X[training.y == 0]
        )
        threshold = threshold_for_fpr(benign_scores, max_fpr=0.001)

        report = model.classify(context, prepared=prepared)
        detections = report.detections(threshold)
        machines = report.infected_machines(threshold)
        print(
            f"day {day}: {len(report)} unknown domains scored, "
            f"{len(detections)} detected (threshold {threshold:.3f}), "
            f"{len(machines)} machines implicated"
        )
        for name, score in detections[:5]:
            truth = "MALWARE" if scenario.is_true_malware(name) else "benign?"
            print(f"    {score:6.3f}  {name:<42s} {truth}")
        for name, _score in detections:
            all_detected.setdefault(name, day)

    # How early were we, compared to the commercial blacklist feed?
    print("\nearly-detection check (vs. commercial blacklist):")
    gaps = []
    for name, detected_day in sorted(all_detected.items()):
        added = scenario.commercial_blacklist.added_day(name)
        if added is not None and added > detected_day:
            gaps.append(added - detected_day)
            print(
                f"  {name:<42s} detected day {detected_day}, "
                f"blacklisted day {added} (+{added - detected_day}d)"
            )
    if gaps:
        print(
            f"\n{len(gaps)} detections preceded the blacklist by "
            f"{sum(gaps) / len(gaps):.1f} days on average"
        )


if __name__ == "__main__":
    main()
