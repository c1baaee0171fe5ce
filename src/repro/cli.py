"""Command-line interface: deployments and the paper's experiments.

Examples::

    segugio track --days 1 --seed 7
    segugio report --sections fig6 --scale small
    segugio report --sections table1 --scale benchmark
    segugio report --out report.md
    segugio explain --seed 7
    segugio track --days 3 --checkpoint /tmp/run.ckpt
    segugio track --days 5 --resume /tmp/run.ckpt --checkpoint /tmp/run.ckpt
    segugio track --days 3 --telemetry-dir /tmp/telemetry
    segugio track --days 3 --telemetry-dir /tmp/telemetry --profile \\
        --budgets examples/budgets.json
    segugio track --days 3 --alert-rules rules.json
    segugio track /tmp/day0 /tmp/day1 --lenient --checkpoint /tmp/run.ckpt
    segugio inspect /tmp/telemetry --html report.html
    segugio inspect /tmp/telemetry --view profile
    segugio inspect /tmp/run1 /tmp/run2 --view health --reference rolling:7
    segugio bench --out BENCH_e2e.json
    segugio explain --telemetry-dir /tmp/telemetry --domain evil.example
    segugio chaos --plan examples/fault-plan.json --out /tmp/chaos
    segugio export-day /tmp/obs --day-offset 2
    segugio health /tmp/obs

Every tracking command — ``track`` over a synthetic world or over exported
observation directories, ``bigday``, ``chaos`` — drives the one campaign
runner, :func:`repro.runtime.supervisor.track_days`, over a lazy day source.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.eval.views import VIEW_NAMES, inspect_runs
from repro.obs import load_alert_rules, load_resource_budgets
from repro.runtime.faults import load_fault_plan
from repro.synth.scenario import Scenario
from repro.utils.errors import (
    CheckpointError,
    FeedFormatError,
    FormatVersionError,
    IngestError,
)


def _flag_file(path: Optional[str], load):
    """The file a flag names, read by *load* (None when the flag is absent).

    Each loader reports an unreadable or malformed file as a ValueError
    that starts with the path; that message is the exit message.
    """
    if not path:
        return None
    try:
        return load(path)
    except ValueError as error:
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
        budgets=_flag_file(args.budgets, load_resource_budgets),
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


#: ``track``'s synthetic-world flags with the value each takes when absent;
#: given together with observation directories they are rejected, not ignored
_SYNTHETIC_WORLD = {"scale": "small", "seed": 7, "isp": "isp1", "days": 3}


def _run_track(args: argparse.Namespace) -> None:
    from contextlib import nullcontext

    from repro.core.pipeline import SegugioConfig
    from repro.core.tracker import DomainTracker
    from repro.datasets.edgestore import resharded, staged_day_stores
    from repro.intel.blacklist import CncBlacklist
    from repro.runtime.faults import use_fault_plan
    from repro.runtime.ingest import observation_days
    from repro.runtime.supervisor import policy_from_overrides, world_days

    given = [f"--{name}" for name in _SYNTHETIC_WORLD if name in args]
    if args.directories and given:
        raise SystemExit(
            f"{', '.join(given)} select a synthetic world and cannot be "
            "combined with observation directories"
        )
    alert_rules = _flag_file(args.alert_rules, load_alert_rules)
    plan = _flag_file(args.inject_faults, load_fault_plan)
    policy = policy_from_overrides(dict(plan.policy) if plan is not None else {})

    if not args.directories:
        args = argparse.Namespace(**{**_SYNTHETIC_WORLD, **vars(args)})
        scenario = Scenario.at_scale(args.scale, args.seed)
    if args.resume:
        tracker = DomainTracker.resume(args.resume)
        if alert_rules is not None:
            tracker.alert_rules = alert_rules
        print(
            f"resumed from {args.resume}: "
            f"{len(tracker.days_processed)} days already scored, "
            f"{len(tracker)} domains tracked"
        )
    else:
        tracker = DomainTracker(
            config=SegugioConfig(),
            fp_target=args.fp_target,
            alert_rules=alert_rules,
        )
    _start_telemetry(tracker, args, "track")
    # days the resumed ledger already covers are neither generated nor parsed
    after = tracker.days_processed[-1] if tracker.days_processed else None

    if args.directories:
        feed = CncBlacklist()  # the newest feed loaded, for the closing tally

        def days_under(store_root: Optional[str]):
            nonlocal feed
            for context, ingest in observation_days(
                args.directories,
                after=after,
                store_root=store_root,
                mode=args.mode,
                max_error_rate=args.max_error_rate,
                shards=args.shards,
                batch_size=args.batch_size,
            ):
                if ingest.n_quarantined:
                    print(ingest.summary())
                if tracker.telemetry is not None:
                    tracker.telemetry.add_ingest_report(ingest)
                feed = context.blacklist
                yield context

    else:

        def days_under(store_root: Optional[str]):
            days = world_days(scenario, args.days, after=after, isp=args.isp)
            if store_root is None:
                return days
            return resharded(
                days, store_root, n_shards=args.shards, batch_size=args.batch_size
            )

    contexts = (
        days_under(None) if args.shards is None else staged_day_stores(days_under)
    )
    # an exported day carries no ground truth to tag its detections with
    truth = None if args.directories else scenario.is_true_malware
    with use_fault_plan(plan) if plan is not None else nullcontext():
        _track(tracker, contexts, truth, policy, args.checkpoint)
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    _finish_telemetry(tracker, args)
    _print_confirmations(
        tracker,
        feed if args.directories else scenario.commercial_blacklist,
        horizon=35,
    )


def _track(tracker, contexts, truth, policy=None, checkpoint=None) -> None:
    """Drive the campaign runner over *contexts*, printing each day.

    *truth* is the world's ground-truth predicate over domain names; with
    None a new detection is shown with its score instead.
    """
    from repro.runtime.supervisor import track_days

    for report in track_days(
        tracker, contexts, policy=policy, checkpoint=checkpoint
    ):
        print(report.summary())
        for entry in report.new_detections[:5]:
            if truth is None:
                tag = f"score {entry.best_score:.3f}"
            else:
                tag = "MALWARE" if truth(entry.name) else "unknown"
            print(f"    new: {entry.name:<42s} [{tag}]")


def _print_confirmations(tracker, blacklist, horizon: int) -> None:
    """The campaign's closing tally: the Fig. 11 lead over *blacklist*."""
    confirmed = tracker.confirmations(blacklist, horizon=horizon)
    print(
        f"\ntracked {len(tracker)} domains; {len(confirmed)} later entered "
        f"the blacklist"
    )
    if confirmed:
        mean_lead = sum(c.lead_days for c in confirmed) / len(confirmed)
        print(f"mean lead over the feed: {mean_lead:.1f} days")


def _run_report(args: argparse.Namespace) -> None:
    from repro.eval import fullreport

    names = fullreport.SECTIONS
    sections = args.sections.split(",") if args.sections else names
    unknown = [s for s in sections if s not in names]
    if unknown:
        raise SystemExit(
            f"unknown sections {unknown}; options: {', '.join(names)}"
        )
    # the world is built only once the names are known to be good
    scenario = Scenario.at_scale(args.scale, args.seed)
    if args.out is None:
        print(fullreport.generate_report(scenario, sections))
    else:
        fullreport.write_report(scenario, args.out, sections)
        print(f"wrote report to {args.out}")
    if "diagnostics" in sections:
        # measured again rather than threaded out of the renderer: one
        # ISP-day, small beside any report that carries it
        if not fullreport.world_diagnostics(scenario).healthy():
            raise SystemExit("world diagnostics failed")


def _run_explain(args: argparse.Namespace) -> None:
    from repro import Segugio
    from repro.core.tracker import calibrate_threshold

    if args.telemetry_dir is not None:
        _explain_from_artifacts(args)
        return

    scenario = Scenario.at_scale(args.scale, args.seed)
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
        detections = report.detections(calibrate_threshold(model, 0.005))
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

    scenario = Scenario.at_scale(args.scale, args.seed)
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


def _run_bigday(args: argparse.Namespace) -> None:
    """Track a paper-scale synthetic day stream through the sharded path."""
    import time

    from repro.core.pipeline import SegugioConfig
    from repro.core.tracker import DomainTracker
    from repro.datasets.edgestore import staged_day_stores
    from repro.runtime.supervisor import world_days
    from repro.synth.bigday import BigDay, BigDayConfig

    alert_rules = _flag_file(args.alert_rules, load_alert_rules)
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
        config=SegugioConfig(n_estimators=args.estimators),
        fp_target=args.fp_target,
        alert_rules=alert_rules,
    )
    _start_telemetry(tracker, args, "bigday")

    def days_under(store_root: str):
        return world_days(
            world,
            args.days,
            store_dir=store_root,
            shards=args.shards,
            batch_size=args.batch_size,
        )

    # stores under a caller-named --store-dir are kept for inspection
    contexts = (
        days_under(args.store_dir)
        if args.store_dir is not None
        else staged_day_stores(days_under)
    )
    _track(tracker, contexts, world.is_malware)
    if args.verify:
        _verify_bigday(world, args)
    _finish_telemetry(tracker, args)
    _print_confirmations(
        tracker, world.blacklist, horizon=config.fresh_blacklist_lag + 30
    )


def _verify_bigday(world, args: argparse.Namespace) -> None:
    """Score the first day through both paths and demand identical bytes."""
    import tempfile

    import numpy as np

    from repro import Segugio
    from repro.core.pipeline import SegugioConfig

    day = world.eval_day(0)
    cfg = SegugioConfig(n_estimators=args.estimators)

    def score(context):
        model = Segugio(cfg)
        prepared = model.prepare_day(context)
        model.fit(context, prepared=prepared)
        return model.classify(context, prepared=prepared)

    report_mem = score(world.context(day, batch_size=args.batch_size))
    with tempfile.TemporaryDirectory(prefix="segugio-verify-") as directory:
        report_shard = score(
            world.context(
                day,
                store_dir=directory,
                shards=args.shards,
                batch_size=args.batch_size,
            )
        )
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
        else:
            reason = (
                f"profiling overhead {profiling['overhead_pct']:.2f}% "
                f">= {gate['max_overhead_pct']:.0f}%"
            )
        raise SystemExit("e2e gate failed: " + reason)


def _run_chaos(args: argparse.Namespace) -> None:
    import tempfile

    from repro.eval.chaos import run_chaos

    plan = _flag_file(args.plan, load_fault_plan)
    alert_rules = _flag_file(args.alert_rules, load_alert_rules)
    out_dir = args.out or tempfile.mkdtemp(prefix="segugio-chaos-")
    report = run_chaos(
        plan,
        out_dir=out_dir,
        scale=args.scale,
        seed=args.seed,
        isp=args.isp,
        days=args.days,
        estimators=args.estimators,
        fp_target=args.fp_target,
        kill_day_offset=args.kill_day,
        alert_rules=alert_rules,
        profile=args.profile,
    )
    print(report.summary())
    if not report.passed:
        raise SystemExit(1)


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


def _add_world_flags(
    parser: argparse.ArgumentParser, isp: bool = False, day_offset: bool = False
) -> None:
    """--scale/--seed of the synthetic world, and where in it a command looks."""
    parser.add_argument("--scale", default="small", choices=["small", "benchmark"])
    parser.add_argument("--seed", type=int, default=7)
    if isp:
        parser.add_argument("--isp", default="isp1")
    if day_offset:
        parser.add_argument("--day-offset", type=int, default=0)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """--shards/--batch-size: the out-of-core streaming graph build."""
    from repro.dns.trace import DEFAULT_BATCH_SIZE

    parser.add_argument(
        "--shards",
        type=_at_least_one,
        default=None,
        help="partition each day's edges by machine id into this many "
        "shards and build the graph out of core, one shard at a time "
        "(outputs are bit-identical to the in-memory path at any shard "
        "count)",
    )
    parser.add_argument(
        "--batch-size",
        type=_at_least_one,
        default=DEFAULT_BATCH_SIZE,
        help="trace rows per streamed batch (default 65536); purely an "
        "execution knob — any value yields bit-identical outputs",
    )


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """What every tracking campaign takes, whichever world feeds it."""
    parser.add_argument("--fp-target", type=float, default=0.001)
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="write a run manifest (manifest.json) and span trace "
        "(trace.jsonl) into this directory",
    )
    parser.add_argument(
        "--alert-rules",
        default=None,
        help="JSON file of SLO alert rules replacing the built-in set "
        "(see repro.obs.monitor.load_alert_rules)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase CPU/peak-RSS/IO and throughput into the "
        "manifest's resources key (needs --telemetry-dir; "
        "observation only — decision outputs stay bit-identical)",
    )
    parser.add_argument(
        "--budgets",
        default=None,
        help="JSON file of declarative resource budgets (max_peak_rss_mb, "
        "min rows/s, ...) checked against the profiled summary and folded "
        "into run health (needs --profile; see "
        "repro.obs.resources.load_resource_budgets)",
    )
    _add_shard_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segugio",
        description="Segugio (DSN 2015) reproduction: deployment tracking "
        "and the paper's experiments",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser(
        "track",
        help="day-by-day deployment tracking over a synthetic world or "
        "exported observation directories",
    )
    track.add_argument(
        "directories",
        nargs="*",
        metavar="DIR",
        help="observation directories (see export-day) to track in the "
        "order given, which must be increasing day order; default: the "
        "synthetic world selected by --scale/--seed/--isp/--days",
    )
    # absent unless given, so that one next to DIR can be rejected; the
    # values they default to are _SYNTHETIC_WORLD
    unset = argparse.SUPPRESS
    track.add_argument("--scale", default=unset, choices=["small", "benchmark"])
    track.add_argument("--seed", type=int, default=unset, help="default 7")
    track.add_argument("--isp", default=unset, help="default isp1")
    track.add_argument("--days", type=int, default=unset, help="default 3")
    _add_ingest_flags(track)
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
        "--inject-faults",
        default=None,
        help="fault-plan JSON to inject deterministic failures "
        "(testing/drills; see repro.runtime.faults)",
    )
    _add_campaign_flags(track)
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
        "--verify",
        action="store_true",
        help="additionally score the first day through the in-memory "
        "path and fail unless the sharded output is bit-identical "
        "(materializes the full day — budget memory accordingly)",
    )
    _add_campaign_flags(bigday)
    bigday.set_defaults(func=_run_bigday, shards=8)

    report = sub.add_parser(
        "report",
        help="run the paper's experiments and render them as Markdown",
    )
    report.add_argument(
        "--out",
        default=None,
        help="write the report to this file (default: print it)",
    )
    _add_world_flags(report)
    report.add_argument(
        "--sections",
        default=None,
        help="comma-separated subset of the paper's tables and figures "
        "(default: all); an unknown name lists them all",
    )
    report.set_defaults(func=_run_report)

    explain = sub.add_parser(
        "explain", help="feature attribution for a scored domain"
    )
    explain.add_argument("--domain", default=None, help="FQD to explain (default: top detection)")
    _add_world_flags(explain, isp=True, day_offset=True)
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
        "health dashboard, resource profile, span timeline",
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
        "HTML page (the timeline becomes a flamegraph)",
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
        help="fault-plan JSON (default: a built-in plan exercising day "
        "retries and a torn checkpoint write)",
    )
    _add_world_flags(chaos, isp=True)
    chaos.add_argument("--days", type=int, default=3)
    chaos.add_argument(
        "--estimators",
        type=int,
        default=24,
        help="forest size for the drill",
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
    chaos.set_defaults(func=_run_chaos)

    export = sub.add_parser(
        "export-day", help="write one observation day to a directory"
    )
    export.add_argument("directory")
    _add_world_flags(export, isp=True, day_offset=True)
    export.set_defaults(func=_run_export_day)

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
        "edges/s, peak RSS), gated on bit-identical outputs and <3%% "
        "overhead",
    )
    _add_world_flags(bench)
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small scale, single repeat",
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
    _add_shard_flags(bench)
    bench.set_defaults(func=_run_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_json", False):
        from repro.obs import logs

        logs.configure(sys.stderr)
    try:
        args.func(args)
    except (
        CheckpointError,
        FeedFormatError,
        FormatVersionError,
        IngestError,
    ) as error:
        # each already names the file or record at fault: one line, not a
        # traceback
        raise SystemExit(str(error))
    except BrokenPipeError:
        # stdout went away mid-output (e.g. piped into `head`): no
        # traceback, but status 1, because whatever the command had left
        # to do (a checkpoint, a manifest, --html) was not done.  Pointing
        # stdout at devnull keeps the exit-time flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
