#!/usr/bin/env python3
"""Deployment loop: track malware-control domains day by day.

Mirrors the paper's early-detection experiment (§IV-F): every day
:class:`~repro.DomainTracker` retrains Segugio on that day's traffic, picks
a detection threshold targeting a 0.1% false-positive rate from its *own
training-day benign scores* (no test ground truth), reports newly detected
domains plus the infected machines that query them, and finally checks how
much earlier than the blacklist each detection was.

    python examples/track_infections.py [n_days]
"""

import sys

from repro import DomainTracker, Scenario


def main() -> None:
    n_days = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    scenario = Scenario.small(seed=21)
    tracker = DomainTracker(fp_target=0.001)

    for offset in range(n_days):
        context = scenario.context("isp1", scenario.eval_day(offset))
        report = tracker.process_day(context)
        print(f"{report.summary()} (threshold {report.threshold:.3f})")
        for entry in report.new_detections[:5]:
            truth = "MALWARE" if scenario.is_true_malware(entry.name) else "benign?"
            print(f"    {entry.best_score:6.3f}  {entry.name:<42s} {truth}")

    # How early were we, compared to the commercial blacklist feed?
    print("\nearly-detection check (vs. commercial blacklist):")
    confirmed = tracker.confirmations(scenario.commercial_blacklist)
    for c in confirmed:
        print(
            f"  {c.name:<42s} detected day {c.detected_day}, "
            f"blacklisted day {c.blacklisted_day} (+{c.lead_days}d)"
        )
    if confirmed:
        mean_lead = sum(c.lead_days for c in confirmed) / len(confirmed)
        print(
            f"\n{len(confirmed)} detections preceded the blacklist by "
            f"{mean_lead:.1f} days on average"
        )


if __name__ == "__main__":
    main()
