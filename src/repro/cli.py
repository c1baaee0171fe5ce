"""Command-line interface: run experiments, demos, and deployments.

Examples::

    segugio demo --seed 7
    segugio experiment fig6 --scale small
    segugio experiment table1 --scale benchmark
    segugio track --days 3 --checkpoint /tmp/run.ckpt
    segugio track --days 5 --resume /tmp/run.ckpt --checkpoint /tmp/run.ckpt
    segugio track --days 3 --telemetry-dir /tmp/telemetry
    segugio track --days 3 --telemetry-dir /tmp/telemetry --profile \\
        --budgets examples/budgets.json
    segugio track --days 3 --alert-rules rules.json --task-timeout 120
    segugio inspect /tmp/telemetry --html report.html
    segugio inspect /tmp/telemetry --view profile
    segugio inspect /tmp/run1 /tmp/run2 --view health --reference rolling:7
    segugio bench --e2e --out BENCH_e2e.json
    segugio explain --telemetry-dir /tmp/telemetry --domain evil.example
    segugio chaos --plan examples/fault-plan.json --out /tmp/chaos
    segugio export-day /tmp/obs --day-offset 2
    segugio health /tmp/obs
    segugio classify-dir /tmp/obs --lenient
    segugio list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.eval import experiments as E
from repro.eval.figures import ascii_roc
from repro.eval.reporting import ascii_table, histogram, roc_series_table
from repro.eval.views import VIEW_NAMES, inspect_runs
from repro.synth.scenario import Scenario


def _scenario(scale: str, seed: int) -> Scenario:
    if scale == "small":
        return Scenario.small(seed=seed)
    if scale == "benchmark":
        return Scenario.benchmark(seed=seed)
    raise SystemExit(f"unknown scale {scale!r} (use small|benchmark)")


def _run_demo(args: argparse.Namespace) -> None:
    from repro import Segugio
    from repro.core.pipeline import SegugioConfig

    scenario = _scenario(args.scale, args.seed)
    train_ctx = scenario.context("isp1", scenario.eval_day(0))
    test_ctx = scenario.context("isp1", scenario.eval_day(5))
    model = Segugio(SegugioConfig(n_jobs=_jobs(args))).fit(train_ctx)
    report = model.classify(test_ctx)
    print(f"trained on day {train_ctx.day}: {model.training_set_}")
    print(f"scored {len(report)} unknown domains on day {test_ctx.day}")
    print("top detections:")
    for name, score in report.detections(threshold=0.0)[:15]:
        truth = "MALWARE" if scenario.is_true_malware(name) else "benign?"
        print(f"  {score:6.3f}  {name:<40s} [{truth}]")


def _run_experiment(args: argparse.Namespace) -> None:
    scenario = _scenario(args.scale, args.seed)
    name = args.name
    if name == "table1":
        rows = E.table1_dataset_summary(scenario)
        print(
            ascii_table(
                list(rows[0].keys()),
                [list(r.values()) for r in rows],
                title="Table I: experiment data (before graph pruning)",
            )
        )
    elif name == "fig3":
        result = E.fig3_infection_behavior(scenario, "isp1", scenario.eval_day(0))
        print("Fig. 3: malware domains queried per infected machine")
        for count, n in result["counts"].items():
            print(f"  {count:3d} domains: {n}")
        print(f"  query >1 domain: {result['frac_query_more_than_one']:.1%}")
    elif name == "pruning":
        print(E.pruning_statistics(scenario))
    elif name == "fig6":
        results = E.fig6_cross_day_and_network(scenario)
        curves = {e.name: e.roc for e in results.values()}
        print(roc_series_table(curves, title="Fig. 6: cross-day / cross-network"))
        print()
        print(ascii_roc(curves, max_fpr=0.01))
    elif name == "fig7":
        results = E.fig7_feature_ablation(scenario)
        print(
            roc_series_table(
                {label: e.roc for label, e in results.items()},
                title="Fig. 7: feature ablation",
            )
        )
    elif name == "fig8":
        result = E.fig8_cross_family(scenario)
        print(result.summary())
    elif name == "fig10":
        print(E.fig10_public_blacklist(scenario).summary())
    elif name == "crossbl":
        result = E.cross_blacklist_test(scenario)
        print({k: v for k, v in result.items() if k != "roc"})
    elif name == "fig11":
        result = E.fig11_early_detection(scenario, n_days=2)
        print(
            histogram(
                result["gaps"],
                bins=list(range(0, 36, 5)),
                title="Fig. 11: days from detection to blacklisting",
            )
        )
    elif name == "fig12":
        result = E.fig12_notos_comparison(scenario)
        print(result.summary())
        print("Table IV: Notos FP breakdown:", result.notos_fp_breakdown)
        curves = {"Segugio": result.segugio_roc, "Notos": result.notos_roc}
        if result.exposure_roc is not None:
            curves["Exposure"] = result.exposure_roc
        print()
        print(ascii_roc(curves, max_fpr=0.05))
    elif name == "lbp":
        result = E.graph_inference_comparison(scenario)
        print(
            roc_series_table(
                result["curves"], title="Graph-inference comparison"
            )
        )
    elif name == "perf":
        timing = E.performance_timing(scenario)
        for phase, seconds in timing.items():
            print(f"  {phase:<28s} {seconds:8.3f}s")
    else:
        raise SystemExit(f"unknown experiment {name!r}; try `segugio list`")


EXPERIMENT_NAMES: List[str] = [
    "table1",
    "fig3",
    "pruning",
    "fig6",
    "fig7",
    "fig8",
    "fig10",
    "crossbl",
    "fig11",
    "fig12",
    "lbp",
    "perf",
]


def _run_list(_args: argparse.Namespace) -> None:
    print("available experiments:")
    for name in EXPERIMENT_NAMES:
        print(f"  {name}")


def _load_alert_rules(args: argparse.Namespace):
    """The --alert-rules file as a rule tuple (None when the flag is absent)."""
    if not getattr(args, "alert_rules", None):
        return None
    from repro.obs import AlertRuleError, load_alert_rules

    try:
        return load_alert_rules(args.alert_rules)
    except AlertRuleError as error:
        raise SystemExit(str(error))


def _load_budgets(args: argparse.Namespace):
    """The --budgets file as a ResourceBudget tuple (None when absent)."""
    if not getattr(args, "budgets", None):
        return None
    from repro.obs import ResourceBudgetError, load_resource_budgets

    try:
        return load_resource_budgets(args.budgets)
    except ResourceBudgetError as error:
        raise SystemExit(str(error))


def _load_fault_plan(args: argparse.Namespace):
    """The fault-plan file named by the flag (None when absent)."""
    path = getattr(args, "inject_faults", None) or getattr(args, "plan", None)
    if not path:
        return None
    from repro.runtime.faults import FaultPlanError, load_fault_plan

    try:
        return load_fault_plan(path)
    except FaultPlanError as error:
        raise SystemExit(str(error))


def _start_telemetry(tracker, args: argparse.Namespace, command: str) -> None:
    """Give *tracker* a RunTelemetry when --telemetry-dir asks for one."""
    if args.profile and not args.telemetry_dir:
        raise SystemExit(
            "--profile needs --telemetry-dir (the resource summary lands "
            "in the run manifest)"
        )
    if args.budgets and not args.profile:
        raise SystemExit(
            "--budgets needs --profile (budgets are evaluated over the "
            "profiled resource summary)"
        )
    if not args.telemetry_dir:
        return
    from repro.obs import RunTelemetry
    from repro.runtime.checkpoint import config_to_dict

    tracker.telemetry = RunTelemetry(
        command=command,
        config=config_to_dict(tracker.config),
        profile=args.profile,
        budgets=_load_budgets(args),
    )
    # Stream decision records into the output directory as each day
    # finalizes instead of buffering the whole campaign's ledger in memory
    # (~1 GB at paper scale; byte-identical output, see
    # DecisionLog.stream_to).
    tracker.telemetry.stream_decisions(args.telemetry_dir)


def _finish_telemetry(tracker, args: argparse.Namespace) -> None:
    if tracker.telemetry is None:
        return
    manifest_path, trace_path = tracker.telemetry.write(args.telemetry_dir)
    print(f"run manifest written to {manifest_path}")
    print(f"span trace written to {trace_path}")
    print(f"inspect with: segugio inspect {args.telemetry_dir}")


def _run_track(args: argparse.Namespace) -> None:
    from contextlib import nullcontext
    from dataclasses import replace

    from repro.core.pipeline import SegugioConfig
    from repro.core.tracker import DomainTracker
    from repro.runtime.faults import use_fault_plan
    from repro.runtime.supervisor import (
        policy_from_overrides,
        supervised_process_day,
        use_policy,
    )

    alert_rules = _load_alert_rules(args)
    plan = _load_fault_plan(args)
    overrides = dict(plan.policy) if plan is not None else {}
    if args.task_timeout is not None:
        overrides["task_timeout"] = args.task_timeout
    policy = policy_from_overrides(overrides)

    scenario = _scenario(args.scale, args.seed)
    if args.resume:
        tracker = DomainTracker.resume(args.resume)
        if args.jobs is not None:
            # execution knob only: any worker count yields bit-identical
            # scores, so overriding it cannot fork a resumed ledger
            tracker.config = replace(tracker.config, n_jobs=args.jobs)
        if alert_rules is not None:
            tracker.alert_rules = alert_rules
        print(
            f"resumed from {args.resume}: "
            f"{len(tracker.days_processed)} days already scored, "
            f"{len(tracker)} domains tracked"
        )
    else:
        tracker = DomainTracker(
            config=SegugioConfig(n_jobs=_jobs(args)),
            fp_target=args.fp_target,
            alert_rules=alert_rules,
        )
    _start_telemetry(tracker, args, "track")
    shard_stack = None
    if args.shards is not None:
        import tempfile

        if args.shards < 1:
            raise SystemExit(f"--shards must be >= 1, got {args.shards}")
        shard_stack = tempfile.TemporaryDirectory(prefix="segugio-shards-")
    last_done = tracker.days_processed[-1] if tracker.days_processed else None
    with use_fault_plan(plan) if plan is not None else nullcontext():
        with use_policy(policy):
            for offset in range(args.days):
                day = scenario.eval_day(offset)
                if last_done is not None and day <= last_done:
                    continue  # completed before the interruption; do not re-score
                context = scenario.context(args.isp, day)
                if shard_stack is not None:
                    context = _shard_day_context(
                        context, shard_stack.name, args.shards, _batch_size(args)
                    )
                # activate telemetry around the *whole* day so day retries
                # and checkpoint-write retries land in the run's event log
                with (
                    tracker.telemetry.activate()
                    if tracker.telemetry is not None
                    else nullcontext()
                ):
                    report = supervised_process_day(tracker, context, policy=policy)
                    print(report.summary())
                    for entry in report.new_detections[:5]:
                        truth = (
                            "MALWARE"
                            if scenario.is_true_malware(entry.name)
                            else "unknown"
                        )
                        print(f"    new: {entry.name:<42s} [{truth}]")
                    if args.checkpoint:
                        tracker.save_checkpoint(args.checkpoint)
                if shard_stack is not None:
                    # one day's store is never needed again: keep disk
                    # usage bounded by a single day
                    import os
                    import shutil

                    shutil.rmtree(
                        os.path.join(shard_stack.name, f"day-{day:05d}"),
                        ignore_errors=True,
                    )
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    _finish_telemetry(tracker, args)
    confirmed = tracker.confirmations(scenario.commercial_blacklist, horizon=35)
    print(
        f"\ntracked {len(tracker)} domains; {len(confirmed)} later entered "
        f"the blacklist"
    )
    if confirmed:
        mean_lead = sum(c.lead_days for c in confirmed) / len(confirmed)
        print(f"mean lead over the feed: {mean_lead:.1f} days")


def _run_report(args: argparse.Namespace) -> None:
    from repro.eval.fullreport import SECTIONS, write_report

    scenario = _scenario(args.scale, args.seed)
    sections = args.sections.split(",") if args.sections else None
    if sections is not None:
        unknown = [s for s in sections if s not in SECTIONS]
        if unknown:
            raise SystemExit(
                f"unknown sections {unknown}; options: {', '.join(SECTIONS)}"
            )
    write_report(scenario, args.out, sections)
    print(f"wrote report to {args.out}")


def _run_diagnose(args: argparse.Namespace) -> None:
    from repro.synth.diagnostics import diagnose

    scenario = _scenario(args.scale, args.seed)
    result = diagnose(scenario, args.isp, scenario.eval_day(args.day_offset))
    print(result.report())
    if not result.healthy():
        raise SystemExit("world diagnostics failed")


def _run_graph_stats(args: argparse.Namespace) -> None:
    from repro import Segugio
    from repro.core.graph import BehaviorGraph
    from repro.core.graphstats import degree_histogram, summarize

    scenario = _scenario(args.scale, args.seed)
    context = scenario.context(args.isp, scenario.eval_day(args.day_offset))
    raw = BehaviorGraph.from_trace(context.trace)
    prepared = Segugio().prepare_day(context)
    pruned = prepared.graph
    print("=== raw graph ===")
    print(summarize(raw))
    print("\n=== after pruning R1-R4 ===")
    print(summarize(pruned, prepared.labels))
    print(
        "\ndomain degree histogram (pruned, <=15):",
        degree_histogram(pruned, "domain", max_bucket=15),
    )


def _run_explain(args: argparse.Namespace) -> None:
    from repro import Segugio
    from repro.ml.metrics import threshold_for_fpr

    if args.telemetry_dir is not None:
        _explain_from_artifacts(args)
        return

    scenario = _scenario(args.scale, args.seed)
    context = scenario.context(args.isp, scenario.eval_day(args.day_offset))
    model = Segugio()
    prepared = model.prepare_day(context)
    model.fit(context, prepared=prepared)
    report = model.classify(context, prepared=prepared)

    if args.domain is not None:
        target = args.domain
        score = report.score_of(target)
        if score is None:
            raise SystemExit(f"{target!r} was not scored (labeled or pruned)")
    else:
        training = model.training_set_
        benign_scores = model.classifier_.predict_proba(
            training.X[training.y == 0]
        )
        threshold = threshold_for_fpr(benign_scores, 0.005)
        detections = report.detections(threshold)
        if not detections:
            raise SystemExit("no detections at the default threshold")
        target, score = detections[0]

    try:
        rows = model.explain(context, target, prepared=prepared)
    except KeyError as error:
        raise SystemExit(str(error))
    print(f"{target}: malware score {score:.3f}")
    for row in rows[: args.top]:
        print(
            f"  {row['feature']:<24s} value={row['value']:8.2f} "
            f"(typical {row['background_median']:6.2f})  "
            f"contribution {row['contribution']:+.3f}"
        )


def _explain_from_artifacts(args: argparse.Namespace) -> None:
    """Replay a verdict from a telemetry dir's decision records — no rerun."""
    import os

    from repro.obs import (
        TelemetryError,
        TelemetryRun,
        decisions_for_domain,
        render_decision,
    )

    try:
        # a decisions.jsonl copied out without its manifest still replays
        run = TelemetryRun.open(args.telemetry_dir, need_manifest=False)
        path = run.decisions_path
        if path is None:
            raise SystemExit(
                f"run {run.run_id} recorded no decision provenance "
                "(manifest decisions_file is null) — rerun with "
                "--telemetry-dir to capture decisions"
            )
        if not os.path.exists(path):
            raise SystemExit(
                f"no {run.decisions_file} in {run.path} (was the run "
                "started with --telemetry-dir?)"
            )
        records = run.decisions
    except TelemetryError as error:
        raise SystemExit(str(error))
    if args.domain is not None:
        matches = decisions_for_domain(records, args.domain)
        if not matches:
            raise SystemExit(
                f"{args.domain!r} has no decision record in {path}"
            )
    else:
        detected = [r for r in records if r.get("detected")]
        if not detected:
            raise SystemExit(f"no detected domains recorded in {path}")
        top = max(detected, key=lambda r: (r.get("score") or 0.0))
        matches = decisions_for_domain(records, str(top["domain"]))
    for record in matches:
        print(render_decision(record))


def _run_inspect(args: argparse.Namespace) -> None:
    from repro.eval.document import render_html, render_text
    from repro.eval.monitor import parse_reference
    from repro.obs import TelemetryRun

    try:
        parse_reference(args.reference)  # reject a bad spec before loading
        documents = inspect_runs(
            TelemetryRun.open_all(args.paths),
            [args.view] if args.view else VIEW_NAMES,
            args.reference,
        )
    except ValueError as error:  # TelemetryError, or a --reference no day matches
        raise SystemExit(str(error))
    print(render_text(*documents))
    if args.html:
        with open(args.html, "w") as stream:
            stream.write(render_html(*documents))
        print(f"\nhtml report written to {args.html}")


def _run_export_day(args: argparse.Namespace) -> None:
    from repro.datasets.store import save_observation

    scenario = _scenario(args.scale, args.seed)
    context = scenario.context(args.isp, scenario.eval_day(args.day_offset))
    save_observation(
        args.directory,
        context,
        private_suffixes=scenario.universe.identified_services,
    )
    print(
        f"wrote day {context.day} of {args.isp} "
        f"({context.trace.n_edges} edges) to {args.directory}"
    )


def _run_health(args: argparse.Namespace) -> None:
    from repro.runtime.health import check_context
    from repro.runtime.ingest import load_observation_checked

    context, ingest = load_observation_checked(
        args.directory, mode=args.mode, max_error_rate=args.max_error_rate
    )
    if ingest.n_quarantined:
        print(ingest.summary())
    report = check_context(context)
    print(report.summary())
    if not report.ok:
        raise SystemExit(2)


def _run_classify_dir(args: argparse.Namespace) -> None:
    from contextlib import nullcontext

    from repro import Segugio
    from repro.ml.metrics import threshold_for_fpr
    from repro.runtime.ingest import load_observation_checked

    telemetry = None
    if args.telemetry_dir:
        from repro.obs import RunTelemetry

        telemetry = RunTelemetry(command="classify-dir")
    with telemetry.activate() if telemetry else nullcontext():
        context, ingest = load_observation_checked(
            args.directory,
            mode=args.mode,
            max_error_rate=args.max_error_rate,
            shards=args.shards,
            batch_size=args.batch_size,
        )
        if ingest.n_quarantined:
            print(ingest.summary())
        from repro.core.pipeline import SegugioConfig

        model = Segugio(SegugioConfig(n_jobs=_jobs(args)))
        with (
            telemetry.day_scope(context.day)
            if telemetry
            else nullcontext({})
        ) as record:
            prepared = model.prepare_day(context)
            model.fit(context, prepared=prepared)
            training = model.training_set_
            benign_scores = model.classifier_.predict_proba(
                training.X[training.y == 0]
            )
            threshold = threshold_for_fpr(benign_scores, args.fp_target)
            report = model.classify(context, prepared=prepared)
            detections = report.detections(threshold)
            record.update(
                threshold=threshold,
                n_scored=len(report),
                n_new_detections=len(detections),
                provenance=list(report.provenance),
            )
    if telemetry is not None:
        from repro.runtime.checkpoint import config_to_dict

        telemetry.config = config_to_dict(model.config)
        telemetry.add_ingest_report(ingest)
        manifest_path, trace_path = telemetry.write(args.telemetry_dir)
        print(f"run manifest written to {manifest_path}")
        print(f"span trace written to {trace_path}")
    print(
        f"day {context.day}: {len(report)} unknown domains scored, "
        f"{len(detections)} detected at <= {args.fp_target:.2%} training FPs"
    )
    if report.provenance:
        print("degraded inputs: " + ", ".join(report.provenance))
    for name, score in detections[: args.top]:
        print(f"  {score:6.3f}  {name}")


def _run_bigday(args: argparse.Namespace) -> None:
    """Track a paper-scale synthetic day stream through the sharded path."""
    import os
    import shutil
    import tempfile
    import time
    from contextlib import nullcontext

    from repro.core.pipeline import SegugioConfig
    from repro.core.tracker import DomainTracker
    from repro.runtime.supervisor import (
        policy_from_overrides,
        supervised_process_day,
        use_policy,
    )
    from repro.synth.bigday import BigDay, BigDayConfig

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    alert_rules = _load_alert_rules(args)
    policy = policy_from_overrides({})
    started = time.perf_counter()
    config = BigDayConfig.for_edges(
        args.edges, seed=args.seed, n_days=max(args.days, 1)
    )
    world = BigDay(config)
    print(
        f"world ready in {time.perf_counter() - started:.1f}s: "
        f"{config.n_machines} machines, {len(world.domains)} domains, "
        f"{world.n_rows_per_day} raw rows/day"
    )
    tracker = DomainTracker(
        config=SegugioConfig(n_jobs=_jobs(args), n_estimators=args.estimators),
        fp_target=args.fp_target,
        alert_rules=alert_rules,
    )
    _start_telemetry(tracker, args, "bigday")
    store_stack = None
    store_root = args.store_dir
    if store_root is None:
        store_stack = tempfile.TemporaryDirectory(prefix="segugio-bigday-")
        store_root = store_stack.name
    batch_size = _batch_size(args)
    with use_policy(policy):
        for offset in range(args.days):
            day = world.eval_day(offset)
            context = world.context(
                day,
                store_dir=store_root,
                shards=args.shards,
                batch_size=batch_size,
            )
            with (
                tracker.telemetry.activate()
                if tracker.telemetry is not None
                else nullcontext()
            ):
                report = supervised_process_day(tracker, context, policy=policy)
                print(report.summary())
                for entry in report.new_detections[:5]:
                    truth = (
                        "MALWARE"
                        if world.is_malware(entry.name)
                        else "unknown"
                    )
                    print(f"    new: {entry.name:<42s} [{truth}]")
            if store_stack is not None:
                # stores under a caller-named --store-dir are kept for
                # inspection; our own temporaries are dropped per day
                shutil.rmtree(
                    os.path.join(store_root, f"day-{day:05d}"),
                    ignore_errors=True,
                )
    if args.verify:
        _verify_bigday(world, args, batch_size, store_root)
    _finish_telemetry(tracker, args)
    confirmed = tracker.confirmations(
        world.blacklist, horizon=config.fresh_blacklist_lag + 30
    )
    print(
        f"\ntracked {len(tracker)} domains; {len(confirmed)} later entered "
        f"the blacklist"
    )
    if confirmed:
        mean_lead = sum(c.lead_days for c in confirmed) / len(confirmed)
        print(f"mean lead over the feed: {mean_lead:.1f} days")


def _verify_bigday(world, args: argparse.Namespace, batch_size: int, store_root: str) -> None:
    """Score the first day through both paths and demand identical bytes."""
    import os
    import shutil

    import numpy as np

    from repro import Segugio
    from repro.core.pipeline import SegugioConfig

    day = world.eval_day(0)
    cfg = SegugioConfig(n_jobs=_jobs(args), n_estimators=args.estimators)

    def score(context):
        model = Segugio(cfg)
        prepared = model.prepare_day(context)
        model.fit(context, prepared=prepared)
        return model.classify(context, prepared=prepared)

    report_mem = score(world.context(day, batch_size=batch_size))
    directory = os.path.join(store_root, "verify")
    report_shard = score(
        world.context(
            day, store_dir=directory, shards=args.shards, batch_size=batch_size
        )
    )
    shutil.rmtree(directory, ignore_errors=True)
    identical = np.array_equal(
        report_mem.domain_ids, report_shard.domain_ids
    ) and np.array_equal(report_mem.scores, report_shard.scores)
    if not identical:
        raise SystemExit(
            "verify FAILED: sharded day scores diverge from the in-memory "
            "path — the determinism contract is broken"
        )
    print(
        f"verify: day {day} sharded output bit-identical to in-memory "
        f"({len(report_mem)} domains scored)"
    )


def _run_bench(args: argparse.Namespace) -> None:
    import json

    from repro.eval.bench import render_e2e_bench, run_e2e_bench

    repeats = 1 if args.quick else args.repeats
    payload = run_e2e_bench(
        scale="small" if args.quick else args.scale,
        seed=args.seed,
        n_jobs=_jobs(args),
        repeats=repeats,
        n_days=args.days,
        n_shards=args.shards if args.shards is not None else 2,
        batch_size=args.batch_size,
        # --quick exists for smoke coverage, not overhead verdicts:
        # don't let the median-of-rounds overhead search grind
        # through extra rounds on a noisy box
        max_rounds=repeats if args.quick else None,
    )
    out = args.out or "BENCH_e2e.json"
    with open(out, "w") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(render_e2e_bench(payload))
    print(f"benchmark payload written to {out}")
    gate = payload["gate"]
    if not gate["passed"]:
        profiling = payload["profiling"]
        if not profiling["outputs_bit_identical"]:
            reason = "profiling perturbed decision outputs"
        elif not payload["sharded"]["outputs_bit_identical"]:
            reason = "sharded execution perturbed decision outputs"
        elif not payload["worker_tracing"]["complete"]:
            reason = "worker span coverage incomplete"
        elif not payload["sharded"]["worker_tracing"]["complete"]:
            reason = "sharded worker span coverage incomplete"
        else:
            reason = (
                f"profiling overhead {profiling['overhead_pct']:.2f}% "
                f">= {gate['max_overhead_pct']:.0f}%"
            )
        raise SystemExit("e2e gate failed: " + reason)


def _run_chaos(args: argparse.Namespace) -> None:
    import tempfile

    from repro.eval.chaos import run_chaos

    plan = _load_fault_plan(args)
    alert_rules = _load_alert_rules(args)
    out_dir = args.out or tempfile.mkdtemp(prefix="segugio-chaos-")
    report = run_chaos(
        plan,
        out_dir=out_dir,
        scale=args.scale,
        seed=args.seed,
        isp=args.isp,
        days=args.days,
        jobs=2 if args.jobs is None else args.jobs,
        estimators=args.estimators,
        fp_target=args.fp_target,
        kill_day_offset=args.kill_day,
        alert_rules=alert_rules,
        profile=args.profile,
    )
    print(report.summary())
    if not report.passed:
        raise SystemExit(1)


def _run_lint(lint_args: List[str]) -> int:
    """Dev helper: run segugio-lint from a repository checkout.

    The linter lives in ``tools/lint`` (repo tooling, not part of the
    installed package), so this walks up from the working directory to
    find the checkout and re-invokes ``python -m tools.lint`` there.
    """
    import os
    import subprocess

    def _checkout_above(start: str) -> Optional[str]:
        candidate = start
        while True:
            if os.path.isfile(os.path.join(candidate, "tools", "lint", "__init__.py")):
                return candidate
            parent = os.path.dirname(candidate)
            if parent == candidate:
                return None
            candidate = parent

    # prefer the working directory; fall back to the checkout this very
    # module was imported from (PYTHONPATH=src development), so the
    # command works from any directory
    root = _checkout_above(os.getcwd()) or _checkout_above(
        os.path.dirname(os.path.abspath(__file__))
    )
    if root is None:
        raise SystemExit(
            "segugio lint: not inside a repository checkout "
            "(tools/lint not found above the working directory or the "
            "imported repro package)"
        )
    command = [sys.executable, "-m", "tools.lint"] + list(lint_args)
    return subprocess.call(command, cwd=root)


def _run_lint_namespace(args: argparse.Namespace) -> None:
    returncode = _run_lint(args.lint_args)
    if returncode:
        raise SystemExit(returncode)


def _add_ingest_flags(parser: argparse.ArgumentParser) -> None:
    """--strict/--lenient ingest mode plus the lenient error-rate cap."""
    from repro.runtime.ingest import DEFAULT_MAX_ERROR_RATE

    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict",
        dest="mode",
        action="store_const",
        const="strict",
        help="fail on the first malformed record (default)",
    )
    mode.add_argument(
        "--lenient",
        dest="mode",
        action="store_const",
        const="lenient",
        help="quarantine malformed records up to --max-error-rate",
    )
    parser.set_defaults(mode="strict")
    parser.add_argument(
        "--max-error-rate",
        type=float,
        default=DEFAULT_MAX_ERROR_RATE,
        help="lenient mode: malformed-record fraction above which the "
        "load fails loudly",
    )


def _jobs(args: argparse.Namespace) -> int:
    """The --jobs value with the absent flag meaning serial."""
    return 1 if args.jobs is None else args.jobs


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """--shards/--batch-size: the out-of-core streaming graph build."""
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition each day's edges by machine id into this many "
        "shards and run the out-of-core graph build through the "
        "supervised pool (outputs are bit-identical to the in-memory "
        "path at any shard count)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="trace rows per streamed batch (default 65536); purely an "
        "execution knob — any value yields bit-identical outputs",
    )


def _batch_size(args: argparse.Namespace) -> int:
    from repro.dns.trace import DEFAULT_BATCH_SIZE

    value = getattr(args, "batch_size", None)
    if value is None:
        return DEFAULT_BATCH_SIZE
    if value < 1:
        raise SystemExit(f"--batch-size must be >= 1, got {value}")
    return value


def _shard_day_context(context, root: str, shards: int, batch_size: int):
    """Reshard one in-memory day context through an edge store under *root*."""
    import os
    from dataclasses import replace

    from repro.datasets.edgestore import ShardedDayTrace

    directory = os.path.join(root, f"day-{context.day:05d}")
    trace = ShardedDayTrace.from_day_trace(
        context.trace, directory, n_shards=shards, batch_size=batch_size
    )
    return replace(context, trace=trace)


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    # default None = "not given": lets `track --resume` distinguish an
    # explicit --jobs 1 (override the checkpointed value back to serial)
    # from the flag simply being absent (keep the checkpointed value)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for classifier fit/scoring (-1 = all "
        "cores, default 1); scores are bit-identical for any value",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segugio",
        description="Segugio (DSN 2015) reproduction: experiments and demos",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="train + classify on a synthetic ISP")
    demo.add_argument("--scale", default="small", choices=["small", "benchmark"])
    demo.add_argument("--seed", type=int, default=7)
    _add_jobs_flag(demo)
    demo.set_defaults(func=_run_demo)

    exp = sub.add_parser("experiment", help="run a named paper experiment")
    exp.add_argument("name", help="experiment id (see `segugio list`)")
    exp.add_argument("--scale", default="small", choices=["small", "benchmark"])
    exp.add_argument("--seed", type=int, default=7)
    exp.set_defaults(func=_run_experiment)

    lst = sub.add_parser("list", help="list experiment names")
    lst.set_defaults(func=_run_list)

    track = sub.add_parser("track", help="day-by-day deployment tracking")
    track.add_argument("--scale", default="small", choices=["small", "benchmark"])
    track.add_argument("--seed", type=int, default=7)
    track.add_argument("--isp", default="isp1")
    track.add_argument("--days", type=int, default=3)
    track.add_argument("--fp-target", type=float, default=0.001)
    track.add_argument(
        "--checkpoint",
        default=None,
        help="write a checksummed checkpoint here after every day",
    )
    track.add_argument(
        "--resume",
        default=None,
        help="resume a killed run from this checkpoint (already-scored "
        "days are skipped; the ledger continues bit-identically)",
    )
    track.add_argument(
        "--telemetry-dir",
        default=None,
        help="write a run manifest (manifest.json) and span trace "
        "(trace.jsonl) into this directory",
    )
    track.add_argument(
        "--alert-rules",
        default=None,
        help="JSON file of SLO alert rules replacing the built-in set "
        "(see repro.obs.monitor.load_alert_rules)",
    )
    track.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase CPU/peak-RSS/IO, throughput, and pool "
        "stats into the manifest's resources key (needs --telemetry-dir; "
        "observation only — decision outputs stay bit-identical)",
    )
    track.add_argument(
        "--budgets",
        default=None,
        help="JSON file of declarative resource budgets (max_peak_rss_mb, "
        "min rows/s, ...) checked against the profiled summary and folded "
        "into run health (needs --profile; see "
        "repro.obs.resources.load_resource_budgets)",
    )
    track.add_argument(
        "--inject-faults",
        default=None,
        help="fault-plan JSON to inject deterministic failures "
        "(testing/drills; see repro.runtime.faults)",
    )
    track.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="seconds without any parallel-task progress before the "
        "supervisor declares a hang and degrades (default: no watchdog)",
    )
    _add_jobs_flag(track)
    _add_shard_flags(track)
    track.set_defaults(func=_run_track)

    bigday = sub.add_parser(
        "bigday",
        help="track a paper-scale synthetic day stream through the "
        "sharded out-of-core graph build",
    )
    bigday.add_argument(
        "--edges",
        type=int,
        default=5_200_000,
        help="target deduplicated edges per day (default 5.2M — the "
        "acceptance scale; the paper's ISPs see ~320M)",
    )
    bigday.add_argument("--days", type=int, default=2)
    bigday.add_argument("--seed", type=int, default=0)
    bigday.add_argument("--fp-target", type=float, default=0.001)
    bigday.add_argument(
        "--estimators",
        type=int,
        default=24,
        help="forest size (smaller than the deployment default keeps the "
        "scale run focused on the graph path)",
    )
    bigday.add_argument(
        "--store-dir",
        default=None,
        help="directory for the per-day edge stores (kept for inspection; "
        "default: a temporary directory dropped day by day)",
    )
    bigday.add_argument(
        "--telemetry-dir",
        default=None,
        help="write a run manifest and span trace into this directory",
    )
    bigday.add_argument(
        "--alert-rules",
        default=None,
        help="JSON file of SLO alert rules replacing the built-in set",
    )
    bigday.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase CPU/peak-RSS/IO and throughput into the "
        "manifest's resources key (needs --telemetry-dir)",
    )
    bigday.add_argument(
        "--budgets",
        default=None,
        help="JSON file of resource budgets (e.g. a process.peak_rss_mb "
        "cap) checked against the profiled summary (needs --profile)",
    )
    bigday.add_argument(
        "--verify",
        action="store_true",
        help="additionally score the first day through the in-memory "
        "path and fail unless the sharded output is bit-identical "
        "(materializes the full day — budget memory accordingly)",
    )
    _add_jobs_flag(bigday)
    _add_shard_flags(bigday)
    bigday.set_defaults(func=_run_bigday, shards=8)

    report = sub.add_parser(
        "report", help="run experiments and write a Markdown report"
    )
    report.add_argument("--out", default="segugio-report.md")
    report.add_argument("--scale", default="small", choices=["small", "benchmark"])
    report.add_argument("--seed", type=int, default=7)
    report.add_argument(
        "--sections",
        default=None,
        help="comma-separated subset (default: all); see repro.eval.fullreport",
    )
    report.set_defaults(func=_run_report)

    diag = sub.add_parser(
        "diagnose", help="check the paper's preconditions on a world"
    )
    diag.add_argument("--scale", default="small", choices=["small", "benchmark"])
    diag.add_argument("--seed", type=int, default=7)
    diag.add_argument("--isp", default="isp1")
    diag.add_argument("--day-offset", type=int, default=0)
    diag.set_defaults(func=_run_diagnose)

    stats = sub.add_parser("graph-stats", help="behavior-graph structure report")
    stats.add_argument("--scale", default="small", choices=["small", "benchmark"])
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument("--isp", default="isp1")
    stats.add_argument("--day-offset", type=int, default=0)
    stats.set_defaults(func=_run_graph_stats)

    explain = sub.add_parser(
        "explain", help="feature attribution for a scored domain"
    )
    explain.add_argument("--domain", default=None, help="FQD to explain (default: top detection)")
    explain.add_argument("--scale", default="small", choices=["small", "benchmark"])
    explain.add_argument("--seed", type=int, default=7)
    explain.add_argument("--isp", default="isp1")
    explain.add_argument("--day-offset", type=int, default=0)
    explain.add_argument("--top", type=int, default=6)
    explain.add_argument(
        "--telemetry-dir",
        default=None,
        help="replay the decision record(s) from this telemetry dir's "
        "decisions.jsonl instead of re-running the pipeline",
    )
    explain.set_defaults(func=_run_explain)

    inspect = sub.add_parser(
        "inspect",
        help="read a run's telemetry: cost (the paper's §IV-G table), "
        "health dashboard, resource profile, worker timeline",
    )
    inspect.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="one or more --telemetry-dir outputs (the directory, its "
        "manifest.json, or its trace.jsonl); the health view trends all "
        "of them together, the other views render each in turn",
    )
    inspect.add_argument(
        "--view",
        choices=VIEW_NAMES,
        default=None,
        help="render one view only (default: all four, in this order)",
    )
    inspect.add_argument(
        "--html",
        default=None,
        metavar="OUT",
        help="additionally write the same views as one self-contained "
        "HTML page (the timeline becomes a per-lane flamegraph)",
    )
    inspect.add_argument(
        "--reference",
        default="previous",
        metavar="SPEC",
        help="baseline for the health view's reference-drift section: "
        "previous (default), pinned:<day>, or rolling:<k>",
    )
    inspect.set_defaults(func=_run_inspect)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection drill: run a tracking campaign under a "
        "fault plan and verify outputs stay bit-identical",
    )
    chaos.add_argument(
        "--plan",
        default=None,
        help="fault-plan JSON (default: a built-in plan exercising worker "
        "kill, day retry, and a torn checkpoint write)",
    )
    chaos.add_argument("--scale", default="small", choices=["small", "benchmark"])
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--isp", default="isp1")
    chaos.add_argument("--days", type=int, default=3)
    chaos.add_argument(
        "--estimators",
        type=int,
        default=24,
        help="forest size for the drill (>= 17 keeps the parallel predict "
        "path multi-chunk so forest_predict faults can fire)",
    )
    chaos.add_argument("--fp-target", type=float, default=0.01)
    chaos.add_argument(
        "--kill-day",
        type=int,
        default=None,
        help="simulate a coordinator crash after this day offset and "
        "resume from the checkpoint (exercises the drift sidecar)",
    )
    chaos.add_argument(
        "--out",
        default=None,
        help="directory for the checkpoint and run manifest "
        "(default: a fresh temporary directory)",
    )
    chaos.add_argument(
        "--alert-rules",
        default=None,
        help="JSON file of SLO alert rules for the drill's health verdicts",
    )
    chaos.add_argument(
        "--profile",
        action="store_true",
        help="record resource accounting during the chaos run; the "
        "bit-identity invariants then also prove profiling is inert",
    )
    _add_jobs_flag(chaos)
    chaos.set_defaults(func=_run_chaos)

    export = sub.add_parser(
        "export-day", help="write one observation day to a directory"
    )
    export.add_argument("directory")
    export.add_argument("--scale", default="small", choices=["small", "benchmark"])
    export.add_argument("--seed", type=int, default=7)
    export.add_argument("--isp", default="isp1")
    export.add_argument("--day-offset", type=int, default=0)
    export.set_defaults(func=_run_export_day)

    classify = sub.add_parser(
        "classify-dir", help="train + classify an exported observation day"
    )
    classify.add_argument("directory")
    classify.add_argument("--fp-target", type=float, default=0.005)
    classify.add_argument("--top", type=int, default=15)
    classify.add_argument(
        "--telemetry-dir",
        default=None,
        help="write a run manifest (manifest.json) and span trace "
        "(trace.jsonl) into this directory",
    )
    _add_ingest_flags(classify)
    _add_jobs_flag(classify)
    _add_shard_flags(classify)
    classify.set_defaults(func=_run_classify_dir)

    health = sub.add_parser(
        "health",
        help="pre-flight health checks on an exported observation day",
    )
    health.add_argument("directory")
    _add_ingest_flags(health)
    health.set_defaults(func=_run_health)

    bench = sub.add_parser(
        "bench",
        help="end-to-end profiling gate: a pinned tracking campaign "
        "profiled off vs. on vs. sharded -> BENCH_e2e.json (rows/s, "
        "edges/s, peak RSS), gated on bit-identical outputs, complete "
        "worker spans and <3%% overhead",
    )
    bench.add_argument("--scale", default="small", choices=["small", "benchmark"])
    bench.add_argument("--seed", type=int, default=7)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small scale, single repeat",
    )
    bench.add_argument(
        "--e2e",
        action="store_true",
        help="accepted for compatibility: the end-to-end gate is the only "
        "mode (per-layer cost: python3 benchmarks/segbench/run.py)",
    )
    bench.add_argument(
        "--days",
        type=int,
        default=2,
        help="tracked days of the campaign (default 2)",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="payload path (default BENCH_e2e.json)",
    )
    _add_jobs_flag(bench)
    _add_shard_flags(bench)
    bench.set_defaults(func=_run_bench)

    # Handled in main() before parsing so every flag forwards verbatim
    # to ``python -m tools.lint`` (argparse's REMAINDER mishandles a
    # leading option token like `segugio lint --format json`).
    lint = sub.add_parser(
        "lint",
        help="run segugio-lint: per-file rules (SEG001-SEG012) plus "
        "whole-program analyses (SEG101-SEG105) over the checkout",
        description="Static analysis enforcing the repo's determinism, "
        "layering, and telemetry contracts (DESIGN.md §9). All flags "
        "forward verbatim to `python -m tools.lint`: --format "
        "{human,json,github}, --select RULES, --graph {dot,json}, "
        "--explain SEGxxx, --stats, --baseline PATH, --write-baseline, "
        "--list-rules.",
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER)
    lint.set_defaults(func=_run_lint_namespace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "lint":
        # forwarded verbatim: argparse's REMAINDER mishandles a leading
        # option token (e.g. `segugio lint --format json`)
        return _run_lint(raw[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_json", False):
        from repro.obs import logs

        logs.configure(sys.stderr)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
