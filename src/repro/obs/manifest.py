"""Run manifests: the one artifact that tells a whole run's story.

Every telemetry-enabled ``segugio track`` / ``segugio classify-dir`` run
writes two files next to its outputs:

* ``manifest.json`` — the run manifest (this module's schema);
* ``trace.jsonl`` — the flat span trace
  (:meth:`repro.obs.tracing.Tracer.write_jsonl`).

Manifest layout (``manifest_version`` 2)::

    {
      "manifest_version": 2,
      "run_id": "…", "command": "track", "created_unix": 1754450000.0,
      "config": {…} | null,          # SegugioConfig as a dict
      "config_sha256": "…" | null,   # hash of the canonical config JSON
      "health": {"status": "ok|warn|alert", "reasons": […]},  # run SLO verdict
      "days": [                      # one record per processed day
        {"day": 21, "threshold": 0.97, "n_scored": 412,
         "n_new_detections": 3, "n_repeat_detections": 1,
         "n_implicated_machines": 9, "provenance": ["blacklist_stale:warning"],
         "drift": {…} | null,        # day-over-day quality summary
         "health": {"status": "…", "reasons": […]},
         "runtime_events": [{…}],    # execution-layer degradations, this day
                                     # (absent when the day ran clean)
         "phases": {"build_graph": 0.41, …},       # span seconds, this day
         "metrics": {…}}                            # registry delta, this day
      ],
      "metrics": {…},                # final whole-run registry snapshot
      "spans": […],                  # nested span tree
      "ingest": [{…}],               # IngestReport.to_dict() per loaded source
      "degradations": ["…"],         # union of day provenance tags
      "runtime_events": [{…}],       # whole-run supervisor event log: every
                                     # worker_lost/task_hang/task_retry/
                                     # pool_shrunk/serial_fallback/day_retry/
                                     # io_retry event, in order (see
                                     # repro.runtime.supervisor)
      "warnings": ["…"],
      "trace_file": "trace.jsonl",
      "decisions_file": "decisions.jsonl" | null,  # decision provenance
      "resources": {…}               # additive: per-phase CPU/peak-RSS/IO,
                                     # throughput gauges, pool stats, and
                                     # "workers" — per-pool-label sidecar
                                     # merge accounting (n_merged/
                                     # n_quarantined/n_missing/...) from
                                     # cross-process worker tracing
                                     # (repro.obs.workerctx, DESIGN.md §15)
                                     # — present only on ``--profile`` runs
                                     # (repro.obs.resources; readers render
                                     # "n/a" when absent)
    }

**Version history.** v1 (PR 2) predates the SEG006 telemetry-naming
contract: its span trees and day ``phases`` use the old dotted names
(``fit``, ``forest.predict``, ``checkpoint.save``, …) and it has no
``health``/``drift``/``decisions_file`` fields.  :func:`load_manifest`
still accepts v1 and upgrades it in place — span/phase names are mapped
through :data:`SPAN_RENAMES_V1` and the new fields default to unknown
health — so telemetry dirs written by older builds keep rendering.
The ``runtime_events`` keys (run-level and per-day) were added later as
a purely *additive* v2 extension: readers must treat a missing key as an
empty list, so older v2 manifests stay valid without a version bump.
The ``resources`` key (run-level and per-day) follows the same additive
contract: only ``--profile`` runs write it, and readers must render
"n/a" — never fail — when it is absent.  ``resources.workers`` (and the
merged ``segugio_worker_task`` spans it accounts for) arrived with
cross-process worker tracing under the same rule: absent on serial or
pre-workerctx manifests, and never required by any reader.

``segugio telemetry manifest.json`` renders the per-phase cost breakdown in
the shape of the paper's §IV-G efficiency table (learning vs. classification
wall-clock per day), plus the day-by-day counter summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence

MANIFEST_VERSION = 2
MANIFEST_FILENAME = "manifest.json"
TRACE_FILENAME = "trace.jsonl"

#: v1 span names (pre-SEG006 dotted style) -> v2 ``segugio_*`` names.
#: Applied to the span tree and day phase keys when loading a v1 manifest.
SPAN_RENAMES_V1 = {
    "process_day": "segugio_run_day",
    "health_check": "segugio_tracker_health_check",
    "fit": "segugio_tracker_fit",
    "calibrate_threshold": "segugio_tracker_calibrate",
    "classify": "segugio_tracker_classify",
    "update_ledger": "segugio_tracker_ledger_update",
    "forest.fit": "segugio_forest_fit",
    "forest.predict": "segugio_forest_predict",
    "features.f1_machine": "segugio_features_f1_machine",
    "features.f2_activity": "segugio_features_f2_activity",
    "features.f3_ip": "segugio_features_f3_ip",
    "experiment.select_split": "segugio_experiment_select_split",
    "experiment.fit": "segugio_experiment_fit",
    "experiment.classify": "segugio_experiment_classify",
    "checkpoint.save": "segugio_checkpoint_save",
    "checkpoint.resume": "segugio_checkpoint_resume",
    "ingest.load_observation": "segugio_ingest_load_observation",
}

# Phase grouping of the paper's §IV-G table: the learning phase covers graph
# preparation + training; the classification phase covers measuring and
# scoring the unknown domains (same split as eval.experiments).  On a tracked
# day the first five learning phases run once, under the
# ``segugio_tracker_prepare`` span, and fit and classify share their result —
# so the groups below sum to the day without counting the graph twice.  The
# prepare span is a *parent* of those phases; listing it here as well would
# double the learning total.
TRAIN_PHASES = (
    "build_graph",
    "label_nodes",
    "filter_probes",
    "prune_graph",
    "build_abuse_oracle",
    "measure_training_features",
    "train_classifier",
)
TEST_PHASES = ("measure_test_features", "score_domains")


class ManifestError(ValueError):
    """Unreadable, foreign, or structurally broken run manifest."""


def config_hash(config: Optional[Mapping[str, object]]) -> Optional[str]:
    """SHA-256 of the canonical (sorted-keys) JSON form of a config dict."""
    if config is None:
        return None
    body = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_manifest(manifest: Mapping[str, object], path: str) -> None:
    """Atomically (stage + rename) write *manifest* as indented JSON."""
    staging = f"{path}.tmp.{os.getpid()}"
    with open(staging, "w") as stream:
        json.dump(manifest, stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(staging, path)


def load_manifest(path: str) -> Dict[str, object]:
    """Read and validate a run manifest; raises :class:`ManifestError`."""
    if not os.path.exists(path):
        raise ManifestError(f"{path}: manifest file does not exist")
    try:
        with open(path) as stream:
            payload = json.load(stream)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ManifestError(
            f"{path}: manifest is not valid JSON ({error})"
        ) from None
    if not isinstance(payload, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    version = payload.get("manifest_version")
    if version == 1:
        payload = upgrade_manifest_v1(payload)
    elif version != MANIFEST_VERSION:
        raise ManifestError(
            f"{path}: manifest version {version!r} is not supported "
            f"(this library speaks versions 1-{MANIFEST_VERSION})"
        )
    for key in ("run_id", "command", "days", "metrics", "spans"):
        if key not in payload:
            raise ManifestError(f"{path}: manifest is missing {key!r}")
    return payload


def _rename_spans(spans: List[Dict[str, object]]) -> None:
    for span in spans:
        if isinstance(span, dict):
            name = span.get("name")
            if name in SPAN_RENAMES_V1:
                span["name"] = SPAN_RENAMES_V1[name]  # type: ignore[index]
            children = span.get("children")
            if isinstance(children, list):
                _rename_spans(children)


def upgrade_manifest_v1(payload: Dict[str, object]) -> Dict[str, object]:
    """In-place upgrade of a v1 manifest to the v2 schema.

    Span-tree and day ``phases`` names move through
    :data:`SPAN_RENAMES_V1`; the v2-only quality fields are defaulted —
    ``health`` becomes ``unknown`` (a v1 run recorded no drift, which is
    different from a v2 run that measured ``ok``) and ``decisions_file``
    becomes None.  The original version is preserved in
    ``upgraded_from_version``.
    """
    payload = dict(payload)
    days = payload.get("days")
    if isinstance(days, list):
        for day in days:
            if not isinstance(day, dict):
                continue
            phases = day.get("phases")
            if isinstance(phases, dict):
                day["phases"] = {
                    SPAN_RENAMES_V1.get(name, name): seconds
                    for name, seconds in phases.items()
                }
            day.setdefault("drift", None)
            day.setdefault("health", {"status": "unknown", "reasons": []})
    spans = payload.get("spans")
    if isinstance(spans, list):
        _rename_spans(spans)  # type: ignore[arg-type]
    payload.setdefault("health", {"status": "unknown", "reasons": []})
    payload.setdefault("decisions_file", None)
    payload["upgraded_from_version"] = 1
    payload["manifest_version"] = MANIFEST_VERSION
    return payload


# ---------------------------------------------------------------------- #
# §IV-G-style rendering
# ---------------------------------------------------------------------- #


def _phase_order(days: Sequence[Mapping[str, object]]) -> List[str]:
    """Known train/test phases first (paper order), then everything else."""
    seen: List[str] = []
    for day in days:
        for name in day.get("phases", {}):  # type: ignore[union-attr]
            if name not in seen:
                seen.append(name)
    ordered = [p for p in TRAIN_PHASES if p in seen]
    ordered += [p for p in TEST_PHASES if p in seen]
    ordered += [p for p in seen if p not in ordered]
    return ordered


def render_telemetry(manifest: Mapping[str, object]) -> str:
    """Human-readable per-phase cost breakdown (cf. paper §IV-G)."""
    days: List[Mapping[str, object]] = manifest.get("days", [])  # type: ignore[assignment]
    run_id = manifest.get("run_id", "?")
    command = manifest.get("command", "?")
    config_sha = manifest.get("config_sha256") or "-"
    lines = [
        f"run {run_id} — segugio {command}, {len(days)} day(s), "
        f"config sha256 {str(config_sha)[:12]}"
    ]
    created = manifest.get("created_unix")
    if created is not None:
        try:
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%SZ", time.gmtime(float(created))  # type: ignore[arg-type]
            )
        except (TypeError, ValueError, OverflowError, OSError):
            stamp = "?"
        lines[0] += f", created {stamp}"
    upgraded = manifest.get("upgraded_from_version")
    if upgraded is not None:
        lines[0] += f" (upgraded from manifest v{upgraded})"

    health = manifest.get("health")
    if isinstance(health, Mapping) and health.get("status"):
        lines.append(f"health: {health['status']}")
        for reason in health.get("reasons", []):  # type: ignore[union-attr]
            if isinstance(reason, Mapping):
                day = reason.get("day", "?")
                message = reason.get("message", reason.get("rule", "?"))
                lines.append(f"  day {day}: [{reason.get('status', '?')}] {message}")

    day_labels = [f"day {d.get('day', '?')}" for d in days]
    width = max([9] + [len(label) for label in day_labels]) + 2

    def row(name: str, values: Sequence[str]) -> str:
        cells = "".join(f"{v:>{width}s}" for v in values)
        return f"  {name:<28s}{cells}"

    lines.append("")
    lines.append("per-phase wall-clock cost (seconds), cf. paper §IV-G:")
    lines.append(row("phase", day_labels + ["total"]))
    order = _phase_order(days)
    phase_by_day: Dict[str, List[float]] = {
        name: [float(d.get("phases", {}).get(name, 0.0)) for d in days]  # type: ignore[union-attr]
        for name in order
    }
    for name in order:
        values = phase_by_day[name]
        lines.append(
            row(name, [f"{v:.3f}" for v in values] + [f"{sum(values):.3f}"])
        )

    def group_total(names: Sequence[str]) -> List[float]:
        return [
            sum(phase_by_day[n][i] for n in names if n in phase_by_day)
            for i in range(len(days))
        ]

    train = group_total(TRAIN_PHASES)
    test = group_total(TEST_PHASES)
    lines.append(
        row("learning total", [f"{v:.3f}" for v in train] + [f"{sum(train):.3f}"])
    )
    lines.append(
        row(
            "classification total",
            [f"{v:.3f}" for v in test] + [f"{sum(test):.3f}"],
        )
    )
    if any(test) and sum(test) > 0:
        lines.append(
            row(
                "learning/classification",
                [
                    f"{(t / c):.1f}x" if c > 0 else "-"
                    for t, c in zip(train, test)
                ]
                + [f"{(sum(train) / sum(test)):.1f}x"],
            )
        )

    # Resource cost (additive v2 ``resources`` key, written by --profile
    # runs): the §IV-G table again, but in CPU seconds and peak RSS rather
    # than wall-clock alone.  Manifests without the key render "n/a".
    lines.append("")
    resources = manifest.get("resources")
    if not isinstance(resources, Mapping):
        lines.append(
            "resource cost: n/a (run was not profiled; "
            "rerun with --profile to record per-phase CPU/RSS/IO)"
        )
    else:
        process: Mapping[str, object] = resources.get("process", {})  # type: ignore[assignment]
        if not isinstance(process, Mapping):
            process = {}

        def cell(value: object, spec: str = ".3f") -> str:
            if value is None:
                return "n/a"
            try:
                return format(float(value), spec)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return "n/a"

        lines.append("resource cost (profiled run), cf. paper §IV-G:")
        util = process.get("cpu_util")
        summary = (
            f"  process: wall {cell(process.get('wall_s'))}s, "
            f"cpu {cell(process.get('cpu_s'))}s"
        )
        if util is not None:
            summary += f" (util {cell(util, '.2f')})"
        summary += f", peak rss {cell(process.get('peak_rss_mb'), '.1f')} MB"
        lines.append(summary)
        io_read = process.get("io_read_bytes")
        io_write = process.get("io_write_bytes")
        if io_read is not None or io_write is not None:
            lines.append(
                f"  io: read {cell(io_read, '.0f')} B, "
                f"write {cell(io_write, '.0f')} B"
            )
        phase_stats: Mapping[str, object] = resources.get("phases", {})  # type: ignore[assignment]
        if isinstance(phase_stats, Mapping) and phase_stats:
            ordered = [p for p in TRAIN_PHASES if p in phase_stats]
            ordered += [p for p in TEST_PHASES if p in phase_stats]
            ordered += [p for p in phase_stats if p not in ordered]
            rwidth = 14

            def resource_row(name: str, values: Sequence[str]) -> str:
                cells = "".join(f"{v:>{rwidth}s}" for v in values)
                return f"  {name:<28s}{cells}"

            lines.append(
                resource_row("phase", ["wall s", "cpu s", "peak rss MB"])
            )
            for name in ordered:
                stats = phase_stats.get(name)
                if not isinstance(stats, Mapping):
                    continue
                lines.append(
                    resource_row(
                        name,
                        [
                            cell(stats.get("wall_s")),
                            cell(stats.get("cpu_s")),
                            cell(stats.get("peak_rss_mb"), ".1f"),
                        ],
                    )
                )
        throughput: Mapping[str, object] = resources.get("throughput", {})  # type: ignore[assignment]
        if isinstance(throughput, Mapping) and throughput:
            lines.append(
                "  throughput: "
                + ", ".join(
                    f"{name[: -len('_per_s')] if name.endswith('_per_s') else name}"
                    f" {cell(value, '.1f')}/s"
                    for name, value in sorted(throughput.items())
                )
            )

    counter_rows = [
        ("unknown domains scored", "n_scored"),
        ("new detections", "n_new_detections"),
        ("repeat detections", "n_repeat_detections"),
        ("machines implicated", "n_implicated_machines"),
    ]
    if days and any(key in d for d in days for _, key in counter_rows):
        lines.append("")
        lines.append("per-day outcomes:")
        lines.append(row("counter", day_labels + ["total"]))
        for label, key in counter_rows:
            values = [int(d.get(key, 0) or 0) for d in days]
            lines.append(
                row(label, [str(v) for v in values] + [str(sum(values))])
            )
        thresholds = [d.get("threshold") for d in days]
        if any(t is not None for t in thresholds):
            lines.append(
                row(
                    "detection threshold",
                    [
                        f"{float(t):.3f}" if t is not None else "-"
                        for t in thresholds
                    ]
                    + ["-"],
                )
            )

    ingest: List[Mapping[str, object]] = manifest.get("ingest", [])  # type: ignore[assignment]
    if ingest:
        lines.append("")
        lines.append("ingest accounting:")
        for report in ingest:
            lines.append(
                f"  {report.get('source', '?')} ({report.get('mode', '?')}): "
                f"{report.get('n_ok', 0)} kept, "
                f"{report.get('n_quarantined', 0)} quarantined"
            )
            counters: Mapping[str, int] = report.get("counters", {})  # type: ignore[assignment]
            for category in sorted(counters):
                lines.append(f"    {category}: {counters[category]}")

    degradations: List[str] = manifest.get("degradations", [])  # type: ignore[assignment]
    if degradations:
        lines.append("")
        lines.append("degradations observed:")
        for tag in degradations:
            lines.append(f"  {tag}")

    runtime_events: List[Mapping[str, object]] = manifest.get(  # type: ignore[assignment]
        "runtime_events", []
    )
    if runtime_events:
        counts: Dict[str, int] = {}
        for event in runtime_events:
            if isinstance(event, Mapping):
                kind = str(event.get("kind", "?"))
                counts[kind] = counts.get(kind, 0) + 1
        lines.append("")
        lines.append(
            f"execution-layer degradations ({len(runtime_events)} event(s); "
            "results are unaffected — the run only got slower):"
        )
        for kind in sorted(counts):
            lines.append(f"  {kind}: {counts[kind]}")

    warnings: List[str] = manifest.get("warnings", [])  # type: ignore[assignment]
    if warnings:
        lines.append("")
        lines.append("warnings:")
        for text in warnings:
            lines.append(f"  {text}")

    # Companion artifacts the manifest points at, so a reader of the
    # rendered summary knows what else the telemetry dir holds.
    metrics: Mapping[str, object] = manifest.get("metrics") or {}  # type: ignore[assignment]
    artifacts = [f"trace {manifest.get('trace_file') or '-'}"]
    decisions_file = manifest.get("decisions_file")
    if decisions_file:
        artifacts.append(f"decisions {decisions_file}")
    if isinstance(metrics, Mapping):
        artifacts.append(f"{len(metrics)} metric series")
    lines.append("")
    lines.append("artifacts: " + ", ".join(artifacts))
    return "\n".join(lines)
