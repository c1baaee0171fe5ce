"""The four ``segugio inspect`` views over a run's telemetry.

Each view is one function from :class:`repro.obs.manifest.TelemetryRun`
object(s) to a :class:`repro.eval.document.Document`; what the document
looks like as text or HTML is :mod:`repro.eval.document`'s business, and
what a telemetry directory looks like on disk is the reader's.  So a view
neither opens files nor checks shapes nor formats markup — it says what
is worth showing:

* :func:`cost_view` — the per-phase learning vs. classification cost
  table in the shape of the paper's §IV-G, per-day outcomes, ingest
  accounting, degradations;
* :func:`health_view` — the multi-day quality dashboard over one or more
  runs: trends, sparklines, tripped alert rules, decision verdicts per
  day, per-feature drift, optional reference drift;
* :func:`profile_view` — where a profiled run spent CPU and memory:
  phase tree, hotspots, budget verdicts;
* :func:`timeline_view` — every span on one clock, with the degradation
  events.

All four are pure functions of the artifacts — deterministic and offline.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.eval.document import Document, Table, Timeline, badge, fmt
from repro.eval.monitor import (
    parse_reference,
    reference_deltas,
    reference_title,
    sparkline,
)
from repro.eval.profile import (
    aggregate_spans,
    budget_verdicts,
    phase_hotspots,
    tree_rows,
)
from repro.eval.trace import build_timeline
from repro.obs.manifest import LEDGER_PHASES, TEST_PHASES, TRAIN_PHASES, TelemetryRun
from repro.obs.monitor import worst_status

#: the views, in the order ``segugio inspect`` prints them
VIEW_NAMES = ("cost", "health", "profile", "timeline")

#: timeline rows the text backend prints before pointing at the HTML page
ROW_LIMIT = 400


def _paper_order(names: Sequence[str]) -> List[str]:
    """Known train/test phases first (paper order), then everything else."""
    ordered = [p for p in TRAIN_PHASES + TEST_PHASES if p in names]
    return ordered + [p for p in names if p not in ordered]


def _headline(run: TelemetryRun) -> str:
    return f"run {run.run_id} ({run.command})"


def _day(day: Mapping[str, Any]) -> str:
    return fmt(day.get("day"), "d", "?")


def _reason(reason: Mapping[str, Any]) -> str:
    """A health reason as ``[x] alert what tripped``."""
    text = reason.get("message", reason.get("rule", "?"))
    return f"{badge(reason.get('status'))} {text}"


def _io(process: Mapping[str, Optional[float]]) -> List[str]:
    read, write = process.get("io_read_bytes"), process.get("io_write_bytes")
    if read is None and write is None:
        return []
    return [f"io: read {fmt(read, '.0f')} B, write {fmt(write, '.0f')} B"]


def _throughput(throughput: Mapping[str, Optional[float]]) -> List[str]:
    if not throughput:
        return []
    return [
        "throughput: "
        + ", ".join(
            f"{name[: -len('_per_s')]} {fmt(value, '.1f')}/s"
            if name.endswith("_per_s")
            else f"{name} {fmt(value, '.1f')}"
            for name, value in sorted(throughput.items())
        )
    ]


# ---------------------------------------------------------------------- #
# cost — the §IV-G table
# ---------------------------------------------------------------------- #


def cost_view(run: TelemetryRun) -> Document:
    """Per-phase cost breakdown of one run (cf. paper §IV-G)."""
    days = run.days
    title = (
        f"segugio inspect: cost — {_headline(run)}, {len(days)} day(s), "
        f"config sha256 {str(run.config_sha256 or '-')[:12]}"
    )
    if run.created is not None:
        title += f", created {run.created}"
    document = Document(title)
    if run.health.get("status"):
        document.lines.append(f"health: {run.health['status']}")
        document.lines += [
            f"  day {reason.get('day', '?')}: {_reason(reason)}"
            for reason in run.health["reasons"]
        ]

    labels = [f"day {_day(day)}" for day in days] + ["total"]
    width = max([9] + [len(label) for label in labels]) + 2

    def per_day(first: str, rows: List[List[str]]) -> Table:
        widths = [28] + [width] * len(labels)
        return Table([first] + labels, widths, rows, left=1, indent="  ", sep="")

    def across(values: List[float], spec: str) -> List[str]:
        return [format(value, spec) for value in values + [sum(values)]]

    seen = list(dict.fromkeys(name for day in days for name in day["phases"]))
    seconds = {
        name: [day["phases"].get(name) or 0.0 for day in days]
        for name in _paper_order(seen)
    }

    def group_total(group: Sequence[str]) -> List[float]:
        known = [seconds[name] for name in group if name in seconds]
        return [sum(values[i] for values in known) for i in range(len(days))]

    train, test = group_total(TRAIN_PHASES), group_total(TEST_PHASES)
    rows = [[name] + across(values, ".3f") for name, values in seconds.items()]
    rows.append(["learning total"] + across(train, ".3f"))
    rows.append(["classification total"] + across(test, ".3f"))
    if any(name in seconds for name in LEDGER_PHASES):
        ledger = group_total(LEDGER_PHASES)
        rows.append(["decision ledger"] + across(ledger, ".3f"))
    if sum(test) > 0:
        ratios = zip(train + [sum(train)], test + [sum(test)])
        rows.append(
            ["learning/classification"]
            + [f"{t / c:.1f}x" if c > 0 else "-" for t, c in ratios]
        )
    document.add(
        "per-phase wall-clock cost (seconds), cf. paper §IV-G:",
        per_day("phase", rows),
    )

    # The §IV-G table again, in CPU seconds and peak RSS rather than
    # wall-clock alone — recorded by --profile runs only.
    resources = run.resources
    if resources is None:
        document.add(
            "resource cost: n/a (run was not profiled; "
            "rerun with --profile to record per-phase CPU/RSS/IO)"
        )
    else:
        process = resources["process"]
        util = process.get("cpu_util")
        section = document.add(
            "resource cost (profiled run), cf. paper §IV-G:",
            f"  process: wall {fmt(process.get('wall_s'))}s, "
            f"cpu {fmt(process.get('cpu_s'))}s"
            + (f" (util {util:.2f})" if util is not None else "")
            + f", peak rss {fmt(process.get('peak_rss_mb'), '.1f')} MB",
        )
        section.body += ["  " + line for line in _io(process)]
        phases = resources["phases"]
        if phases:
            columns = [
                ("phase", 28, lambda name: name),
                ("wall s", 14, lambda name: fmt(phases[name].get("wall_s"))),
                ("cpu s", 14, lambda name: fmt(phases[name].get("cpu_s"))),
                (
                    "peak rss MB",
                    14,
                    lambda name: fmt(phases[name].get("peak_rss_mb"), ".1f"),
                ),
            ]
            names = _paper_order(list(phases))
            section.body.append(
                Table.of(columns, names, left=1, indent="  ", sep="")
            )
        section.body += [
            "  " + line for line in _throughput(resources["throughput"])
        ]

    counters = [
        ("unknown domains scored", "n_scored"),
        ("new detections", "n_new_detections"),
        ("repeat detections", "n_repeat_detections"),
        ("machines implicated", "n_implicated_machines"),
    ]
    if any(day.get(key) is not None for day in days for _, key in counters):
        rows = [
            [label] + across([day.get(key) or 0 for day in days], "d")
            for label, key in counters
        ]
        if any(day.get("threshold") is not None for day in days):
            thresholds = [fmt(day.get("threshold")) for day in days]
            rows.append(["detection threshold"] + thresholds + ["-"])
        document.add("per-day outcomes:", per_day("counter", rows))

    if run.ingest:
        section = document.add("ingest accounting:")
        for report in run.ingest:
            section.body.append(
                f"  {report.get('source', '?')} ({report.get('mode', '?')}): "
                f"{report.get('n_ok') or 0} kept, "
                f"{report.get('n_quarantined') or 0} quarantined"
            )
            section.body += [
                f"    {category}: {count}"
                for category, count in sorted(report["counters"].items())
            ]
    if run.degradations:
        document.add(
            "degradations observed:", *(f"  {tag}" for tag in run.degradations)
        )
    if run.runtime_events:
        kinds = [str(event.get("kind", "?")) for event in run.runtime_events]
        document.add(
            f"execution-layer degradations ({len(kinds)} event(s); "
            "results are unaffected — the run only got slower):",
            *(f"  {kind}: {kinds.count(kind)}" for kind in sorted(set(kinds))),
        )
    if run.warnings:
        document.add("warnings:", *(f"  {text}" for text in run.warnings))

    # Companion artifacts the manifest points at, so a reader of the
    # summary knows what else the telemetry dir holds.
    artifacts = [f"trace {run.trace_file}"]
    if run.decisions_file:
        artifacts.append(f"decisions {run.decisions_file}")
    document.add("artifacts: " + ", ".join(artifacts))
    return document


# ---------------------------------------------------------------------- #
# health — the multi-day dashboard
# ---------------------------------------------------------------------- #

_VERDICTS = ("scored", "pruned", "labeled", "detected")


def _verdicts_per_day(run: TelemetryRun) -> List[Tuple[int, Dict[str, int]]]:
    """Per-day verdict counts from one run's decision records."""
    by_day: Dict[int, Dict[str, int]] = {}
    for record in run.decisions:
        counts = by_day.get(record["day"])
        if counts is None:
            counts = by_day[record["day"]] = dict.fromkeys(_VERDICTS, 0)
        if record["verdict"] in counts:
            counts[record["verdict"]] += 1
        if record.get("detected"):
            counts["detected"] += 1
    return sorted(by_day.items())


def health_view(
    runs: Sequence[TelemetryRun], reference: str = "previous"
) -> Document:
    """The quality dashboard over all *runs*, days in day order.

    *reference* selects the baseline for the reference-drift section (see
    :func:`repro.eval.monitor.parse_reference`); the default ``previous``
    adds nothing beyond the manifests' own day-over-day drift summaries.
    """
    mode, parameter = parse_reference(reference)
    by_day = sorted(
        ((run, day) for run in runs for day in run.days),
        key=lambda pair: (pair[1].get("day") or 0, pair[0].path),
    )
    days = [day for _, day in by_day]
    overall = worst_status(str(run.health.get("status")) for run in runs)
    document = Document(
        f"segugio inspect: health — {len(runs)} run(s), {len(days)} tracked "
        f"day(s), overall health {badge(overall)}"
    )
    for run in runs:
        line = (
            f"  {run.path}: {_headline(run)}, {len(run.days)} day(s), "
            f"{len(run.decisions)} decision record(s), "
            f"health {badge(run.health.get('status'))}"
        )
        if run.resources is not None:
            peak = run.resources["process"].get("peak_rss_mb")
            line += (
                ", profiled"
                if peak is None
                else f", peak rss {peak:.1f} MB (profiled)"
            )
        document.lines.append(line)
    if not days:
        document.add("no day records in any manifest — nothing to trend.")
        return document

    trend = [
        ("day", 5, _day),
        ("scored", 7, lambda d: str(d.get("n_scored") or 0)),
        ("new", 5, lambda d: str(d.get("n_new_detections") or 0)),
        ("repeat", 7, lambda d: str(d.get("n_repeat_detections") or 0)),
        ("thresh", 7, lambda d: fmt(d.get("threshold"))),
        ("score_psi", 10, lambda d: fmt(d["drift"]["score"].get("psi"))),
        ("feat_psi", 9, lambda d: fmt(d["drift"]["features_max"].get("psi"))),
        (
            "churn%",
            7,
            lambda d: fmt(d["drift"]["labels"].get("churn_pct"), ".1f"),
        ),
        ("health", 10, lambda d: badge(d["health"].get("status"))),
    ]
    document.add("per-day trend:", Table.of(trend, days))

    psi = [d["drift"]["score"].get("psi") for d in days]
    series = {
        "scored": [float(d.get("n_scored") or 0) for d in days],
        "new detections": [float(d.get("n_new_detections") or 0) for d in days],
        "threshold": [d.get("threshold") or 0.0 for d in days],
        "score psi": [value for value in psi if value is not None],
    }
    document.add(
        "trend sparklines (min-max scaled per series):",
        *(
            f"  {name:<16s} {sparkline(values)}"
            for name, values in series.items()
            if values
        ),
    )

    if mode != "previous":
        deltas = reference_deltas(days, mode, parameter)
        columns = [
            ("day", 5, lambda row: str(row["day"])),
            ("metric", 16, lambda row: row["metric"]),
            ("value", 10, lambda row: f"{row['value']:.3f}"),
            ("reference", 10, lambda row: f"{row['reference']:.3f}"),
            (
                "delta",
                8,
                lambda row: "-"
                if row["delta_pct"] is None
                else f"{row['delta_pct']:+.1f}%",
            ),
        ]
        document.add(
            reference_title(mode, parameter),
            Table.of(columns, deltas) if deltas else "  no comparable days yet",
        )

    tripped = [
        f"  day {_day(day)}: {_reason(reason)}"
        for day in days
        for reason in day["health"]["reasons"]
    ]
    document.add(
        "tripped alert rules:" if tripped else "tripped alert rules: none",
        *tripped,
    )

    if any(run.decisions for run in runs):
        columns = [("day", 5, lambda pair: str(pair[0]))] + [
            (verdict, len(verdict) + 1, lambda pair, v=verdict: str(pair[1][v]))
            for verdict in _VERDICTS
        ]
        per_day = [pair for run in runs for pair in _verdicts_per_day(run)]
        document.add(
            "decision verdicts per day (from decisions.jsonl):",
            Table.of(columns, per_day),
        )

    last = next((day for day in reversed(days) if day["drift"]["features"]), None)
    if last is not None:
        columns = [
            ("feature", 24, lambda item: item[0]),
            ("psi", 8, lambda item: fmt(item[1].get("psi"))),
            ("ks", 8, lambda item: fmt(item[1].get("ks"))),
        ]
        features = last["drift"]["features"].items()
        document.add(
            f"per-feature drift, day {_day(last)} vs previous:",
            Table.of(columns, features, left=1, indent="  "),
        )
    return document


# ---------------------------------------------------------------------- #
# profile — where the resources went
# ---------------------------------------------------------------------- #


def profile_view(run: TelemetryRun) -> Document:
    """Phase tree, hotspots and budget verdicts of one run."""
    document = Document(
        f"segugio inspect: profile — {_headline(run)}, {len(run.days)} "
        f"day(s), health {badge(run.health.get('status'))}"
    )
    resources = run.resources
    if resources is None:
        document.lines.append(
            "resources: n/a (manifest has no resources key — rerun with "
            "--profile to record CPU/RSS/IO; wall-clock tree below)"
        )
    else:
        process = resources["process"]
        util = process.get("cpu_util")
        document.lines.append(
            f"process: wall {fmt(process.get('wall_s'))}s, "
            f"cpu {fmt(process.get('cpu_s'))}s"
            + (f" (util {util:.2f})" if util is not None else "")
        )
        document.lines.append(
            f"memory: peak rss {fmt(process.get('peak_rss_mb'), '.1f')} MB "
            f"({resources['platform'].get('n_rss_samples') or 0} watermark samples)"
        )
        document.lines += _io(process) + _throughput(resources["throughput"])

    tree = aggregate_spans(run.spans)
    total_wall = sum(node["wall_s"] for node in tree)
    # a tree row is (depth, aggregate node, share of the run's wall-clock)
    columns = [
        ("span", 44, lambda row: "  " * row[0] + row[1]["name"]),
        ("n", 5, lambda row: str(row[1]["n"])),
        ("wall s", 10, lambda row: f"{row[1]['wall_s']:.3f}"),
        ("%", 7, lambda row: fmt(row[2], ".1f")),
        ("cpu s", 10, lambda row: fmt(row[1]["cpu_s"])),
        ("rss MB", 9, lambda row: fmt(row[1]["peak_rss_mb"], ".1f")),
    ]
    layout = {"left": 1, "indent": "  ", "sep": ""}
    document.add(
        "phase tree (same-named siblings merged):",
        Table.of(columns, tree_rows(tree, total_wall), **layout),
    )
    hotspots = phase_hotspots(run.manifest)
    if hotspots:
        columns = [
            ("phase", 30, lambda row: row["name"]),
            ("n", 5, lambda row: str(row["n"])),
            ("wall s", 10, lambda row: f"{row['wall_s']:.3f}"),
            ("cpu s", 10, lambda row: fmt(row["cpu_s"])),
            ("rss MB", 9, lambda row: fmt(row["peak_rss_mb"], ".1f")),
        ]
        ranked_by = "wall" if resources is None else "cpu"
        document.add(
            f"hotspots (top phases by {ranked_by} seconds):",
            Table.of(columns, hotspots, **layout),
        )
    if resources is None:
        return document

    verdicts = [f"  {_reason(r)}" for r in budget_verdicts(run.manifest)]
    document.add(
        "resource budget verdicts:"
        if verdicts
        else "resource budget verdicts: all within budget",
        *verdicts,
    )
    return document


# ---------------------------------------------------------------------- #
# timeline — every span on one clock
# ---------------------------------------------------------------------- #


def timeline_view(run: TelemetryRun, limit: int = ROW_LIMIT) -> Document:
    """The timeline of one run's trace."""
    rows, n_skipped = run.trace
    timeline = build_timeline(run.manifest, rows)
    block = Timeline(timeline, limit)
    document = Document(
        f"segugio inspect: timeline — {_headline(run)}, "
        f"{len(rows)} span(s) over {timeline['clock_s']:.3f}s, "
        f"health {badge(run.health.get('status'))}"
    )
    if n_skipped:
        document.lines.append(
            f"skipped {n_skipped} malformed line(s) in {run.trace_path}"
        )
    document.lines.append(f"spans: {block.caption()}")
    document.add("timeline (one clock; indent = span depth):", block)
    events = []
    for event in timeline["events"]:
        context = ", ".join(
            f"{key}={event[key]}" for key in sorted(event) if key != "kind"
        )
        events.append(
            f"  {event.get('kind', '?')}" + (f" ({context})" if context else "")
        )
    document.add(
        f"degradation events ({len(events)}):"
        if events
        else "degradation events: none",
        *events,
    )
    return document


def inspect_runs(
    runs: Sequence[TelemetryRun],
    views: Sequence[str] = VIEW_NAMES,
    reference: str = "previous",
) -> List[Document]:
    """The documents ``segugio inspect`` shows for *runs*: the health view
    spans all of them, every other view is per run."""
    per_run = {
        "cost": cost_view,
        "profile": profile_view,
        "timeline": timeline_view,
    }
    documents: List[Document] = []
    for view in views:
        if view == "health":
            documents.append(health_view(runs, reference))
        else:
            documents.extend(per_run[view](run) for run in runs)
    return documents
