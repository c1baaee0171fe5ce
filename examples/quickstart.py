#!/usr/bin/env python3
"""Quickstart: train Segugio on one day of ISP DNS traffic, then discover
new malware-control domains on a later day.

Runs on the small synthetic world (a few seconds end to end):

    python examples/quickstart.py [seed]
"""

import sys

from repro import Scenario, Segugio
from repro.core.tracker import calibrate_threshold
from repro.obs.manifest import TRAIN_PHASES
from repro.obs.tracing import Tracer, use_tracer


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    print(f"building synthetic ISP world (seed={seed})...")
    scenario = Scenario.small(seed=seed)

    # Day 0 of the evaluation window: training traffic.
    train_day = scenario.eval_day(0)
    train_ctx = scenario.context("isp1", train_day)

    print(f"training on {train_ctx.trace}")
    model = Segugio()
    tracer = Tracer()  # the fit's phases are spans; this one times them
    with use_tracer(tracer):
        model.fit(train_ctx)
    training = model.training_set_
    print(
        f"  training set: {training.n_malware} known C&C domains, "
        f"{training.n_benign} whitelisted domains"
    )
    for name, seconds in tracer.phase_totals().items():
        if name in TRAIN_PHASES:
            print(f"  {name:<28s} {seconds:9.3f}s")

    # One week later: classify every still-unknown domain.
    test_day = scenario.eval_day(7)
    test_ctx = scenario.context("isp1", test_day)
    report = model.classify(test_ctx)
    print(f"\nday {test_day}: scored {len(report)} unknown domains")

    print("\ntop detections (score, domain, ground truth):")
    for name, score in report.detections(threshold=0.0)[:15]:
        truth = "MALWARE" if scenario.is_true_malware(name) else "benign"
        print(f"  {score:6.3f}  {name:<42s} {truth}")

    # Deployment thresholding: cap the FP rate at 0.5% using the
    # training-day benign scores (no test ground truth involved).
    threshold = calibrate_threshold(model, fp_target=0.005)
    machines = report.infected_machines(threshold)
    print(
        f"\nat threshold {threshold:.3f} (0.5% training FPs): "
        f"{len(report.detections(threshold))} domains detected, "
        f"implicating {len(machines)} machines"
    )
    for machine in machines[:10]:
        print(f"  {machine}")


if __name__ == "__main__":
    main()
