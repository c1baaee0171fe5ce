#!/usr/bin/env python3
"""Operational hand-off: export an observation day and a trained model.

Two teams, one model: the *training* site exports its observation day and
the fitted classifier as plain files; the *deployment* site loads both and
classifies its own traffic — the cross-network deployment of paper §IV-A,
as a file-based workflow.

    python examples/export_and_share.py
"""

import tempfile

from repro import Scenario, Segugio
from repro.core.tracker import calibrate_threshold
from repro.datasets.store import save_observation
from repro.ml.serialization import load_forest, save_forest
from repro.runtime.ingest import load_observation_checked


def main() -> None:
    scenario = Scenario.small(seed=7)

    with tempfile.TemporaryDirectory() as workdir:
        # ---------------- training site (ISP1) ----------------
        train_ctx = scenario.context("isp1", scenario.eval_day(0))
        model = Segugio().fit(train_ctx)
        model_path = f"{workdir}/segugio-model.json"
        save_forest(model.classifier_, model_path)
        print(f"training site: fitted on {train_ctx.trace}")
        print(f"training site: model saved to {model_path}")

        # The threshold policy travels as a number, derived from the
        # training-day benign scores (0.5% FP budget).
        threshold = calibrate_threshold(model, fp_target=0.005)
        print(f"training site: shipping threshold {threshold:.3f}")

        # ---------------- deployment site (ISP2) ----------------
        # ISP2 exports its own day of observations to disk (as a real
        # deployment would from its collectors)...
        deploy_ctx = scenario.context("isp2", scenario.eval_day(3))
        obs_dir = f"{workdir}/isp2-day"
        save_observation(
            obs_dir,
            deploy_ctx,
            private_suffixes=scenario.universe.identified_services,
        )
        # ...and loads everything back from files only.
        loaded_ctx, _ingest = load_observation_checked(obs_dir)
        clone = Segugio()
        clone.classifier_ = load_forest(model_path)
        report = clone.classify(loaded_ctx)

        detections = report.detections(threshold)
        print(
            f"\ndeployment site: scored {len(report)} unknown domains on "
            f"day {loaded_ctx.day}, {len(detections)} detections"
        )
        for name, score in detections[:10]:
            truth = "MALWARE" if scenario.is_true_malware(name) else "unknown"
            print(f"  {score:6.3f}  {name:<42s} [{truth}]")


if __name__ == "__main__":
    main()
