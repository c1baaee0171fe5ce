"""A telemetry directory on disk: its format, its writer, its one reader.

Every telemetry-enabled ``segugio track`` / ``segugio bigday`` run writes
up to three files next to its outputs:

* ``manifest.json`` — the run manifest (this module's schema);
* ``trace.jsonl`` — the flat span trace
  (:meth:`repro.obs.tracing.Tracer.write_jsonl`);
* ``decisions.jsonl`` — one decision record per classified domain
  (:mod:`repro.obs.provenance`), when the run recorded any.

:class:`TelemetryRun` is the only code that opens such a directory:
``segugio inspect``, ``segugio explain --telemetry-dir`` and the
bench/chaos gates all read through it, so the layout, the version check
and every shape check live here once (lint rule SEG103 names this module
as the manifest's single consumer).

Manifest layout (``manifest_version`` 3)::

    {
      "manifest_version": 3,
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
         "phases": {"build_graph": 0.41, …}}       # span seconds, this day
      ],
      "spans": […],                  # nested span tree
      "ingest": [{…}],               # IngestReport.to_dict() per loaded source
      "degradations": ["…"],         # union of day provenance tags
      "runtime_events": [{…}],       # whole-run runtime event log: every
                                     # day_retry/io_retry event, in order,
                                     # each with its "day" (run health
                                     # counts them per day)
      "warnings": ["…"],
      "trace_file": "trace.jsonl",
      "decisions_file": "decisions.jsonl" | null,  # decision provenance
      "resources": {…}               # additive: per-phase CPU/peak-RSS/IO
                                     # and throughput gauges — present
                                     # only on ``--profile`` runs
                                     # (repro.obs.resources; readers render
                                     # "n/a" when absent)
    }

**Versions.**  Version 3 dropped version 2's ``metrics`` key (a
run-level snapshot and a per-day delta of a metrics registry nothing
read).  The reader opens both with the same code: a v2 manifest's
``metrics`` passes through unread, and every number it held is also a
day-record field, an ``ingest[]`` counter or a span attribute.
``resources`` (run-level and per-day) is additive: writers emit it only
on ``--profile`` runs and the reader treats a missing key as empty.
Manifests written while the day still ran through a process pool carry
``resources.pool``/``resources.workers``, child-process CPU and peak-RSS
columns under ``resources.process``, a per-day ``runtime_events`` key
and ``segugio_worker_task`` spans; they pass through unread, the spans
as ordinary spans.  Version 1 (no ``health``/``drift``/
``decisions_file``, dotted span names) has had no writer since the v2 bump
and is rejected by version like any other.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from functools import cached_property
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.provenance import (
    DECISIONS_FILENAME,
    ProvenanceError,
    load_decisions,
)

MANIFEST_VERSION = 3
#: versions :func:`load_manifest` opens; they differ only in a key it skips
READABLE_VERSIONS = (2, MANIFEST_VERSION)
MANIFEST_FILENAME = "manifest.json"
TRACE_FILENAME = "trace.jsonl"

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
#: the day's decision records (``--telemetry-dir`` runs only), handed to the
#: log and then written: an operator's cost of the day, but neither
#: learning nor classification
LEDGER_PHASES = ("segugio_decisions_emit", "segugio_decisions_flush")


class TelemetryError(ValueError):
    """Unreadable telemetry; the message starts with the offending path."""


class ManifestError(TelemetryError):
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


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a run manifest and check its version and required keys."""
    if not os.path.exists(path):
        raise ManifestError(f"{path}: manifest file does not exist")
    try:
        with open(path) as stream:
            manifest = json.load(stream)
    except (OSError, ValueError, RecursionError) as error:
        raise ManifestError(
            f"{path}: manifest is not valid JSON ({error})"
        ) from None
    if not isinstance(manifest, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    version = manifest.get("manifest_version")
    if version not in READABLE_VERSIONS:
        raise ManifestError(
            f"{path}: manifest version {version!r} is not supported "
            "(this library reads versions "
            f"{' and '.join(map(str, READABLE_VERSIONS))})"
        )
    for key in ("run_id", "command", "days", "spans"):
        if key not in manifest:
            raise ManifestError(f"{path}: manifest is missing {key!r}")
    return manifest


# ---------------------------------------------------------------------- #
# the shape the views rely on
# ---------------------------------------------------------------------- #

# A spec is one of the scalar kinds below, ``[spec]`` (a list), a dict of
# known keys, or ``{"*": spec}`` (a mapping with free keys).  Keys a spec
# does not name pass through unread.
_NUM, _INT, _STR, _ANY = "a number", "an integer", "a string", "anything"

_HEALTH = {"status": _STR, "reasons": [{"status": _STR}]}
_DRIFT_STATS = {"psi": _NUM, "ks": _NUM}
_DAY = {
    "day": _INT,
    "threshold": _NUM,
    "n_scored": _INT,
    "n_new_detections": _INT,
    "n_repeat_detections": _INT,
    "n_implicated_machines": _INT,
    "phases": {"*": _NUM},
    "health": _HEALTH,
    "drift": {
        "score": _DRIFT_STATS,
        "features_max": _DRIFT_STATS,
        "features": {"*": _DRIFT_STATS},
        "labels": {"churn_pct": _NUM},
    },
}
_SPAN: Dict[str, Any] = {
    "name": _STR,
    "duration": _NUM,
    "attributes": {
        "task": _INT,
        "resources": {"cpu_s": _NUM, "peak_rss_mb": _NUM},
    },
}
_SPAN["children"] = [_SPAN]
_TRACE_ROW = {
    "id": _INT,
    "parent_id": _INT,
    "depth": _INT,
    "name": _STR,
    "start": _NUM,
    "duration": _NUM,
    "attributes": {"*": _ANY},
}
_RESOURCES = {
    "platform": {"n_rss_samples": _INT},
    "process": {"*": _NUM},
    "phases": {
        "*": {"n": _INT, "wall_s": _NUM, "cpu_s": _NUM, "peak_rss_mb": _NUM}
    },
    "throughput": {"*": _NUM},
    "units": {"*": _ANY},
}
_MANIFEST = {
    "created_unix": _NUM,
    "health": _HEALTH,
    "days": [_DAY],
    "spans": [_SPAN],
    "ingest": [
        {"n_ok": _INT, "n_quarantined": _INT, "counters": {"*": _INT}}
    ],
    "degradations": [_ANY],
    "runtime_events": [{"*": _ANY}],
    "warnings": [_ANY],
    "trace_file": _STR,
    "decisions_file": _STR,
}


def _misshapen(where: str, kind: str, value: Any) -> TelemetryError:
    return TelemetryError(
        f"{where} must be {kind}, got {type(value).__name__} {value!r:.40}"
    )


def _conform(value: Any, spec: Any, where: str) -> Any:
    """*value* in the shape *spec* names, or a :class:`TelemetryError`.

    Containers a spec names always come back (a missing or null one as
    empty), so views index them freely; scalars stay optional and are
    read with ``.get``.  A number that is not finite reads as missing.
    """
    if spec is _ANY:
        return value
    if isinstance(spec, dict):
        if value is None:
            value = {}
        if not isinstance(value, dict):
            raise _misshapen(where, "an object", value)
        if "*" in spec:
            return {
                key: _conform(item, spec["*"], f"{where}.{key}")
                for key, item in value.items()
            }
        shaped = dict(value)
        for key, sub in spec.items():
            if key in value or isinstance(sub, (dict, list)):
                shaped[key] = _conform(value.get(key), sub, f"{where}.{key}")
        return shaped
    if isinstance(spec, list):
        if value is None:
            return []
        if not isinstance(value, list):
            raise _misshapen(where, "a list", value)
        return [
            _conform(item, spec[0], f"{where}[{index}]")
            for index, item in enumerate(value)
        ]
    if value is None:
        return None
    if spec is _STR:
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if spec is _INT:
            # beyond 2**53 a JSON float no longer holds an integer exactly
            if abs(value) < 2**53 and value == int(value):
                return int(value)
        else:
            try:
                number = float(value)
            except OverflowError:
                raise _misshapen(where, spec, value) from None
            return number if math.isfinite(number) else None
    raise _misshapen(where, spec, value)


# ---------------------------------------------------------------------- #
# the reader
# ---------------------------------------------------------------------- #


def _utc_stamp(seconds: Optional[float]) -> Optional[str]:
    if seconds is None:
        return None
    try:
        return time.strftime("%Y-%m-%d %H:%M:%SZ", time.gmtime(seconds))
    except (ValueError, OverflowError, OSError):
        return "?"


class TelemetryRun:
    """One run's telemetry, opened once and already in shape.

    :meth:`open` reads a directory; the constructor takes a manifest a
    caller already holds (``RunTelemetry.build_manifest()``, a test's
    literal) plus, optionally, the trace rows and decision records that
    would otherwise come from the files the manifest names.  Either way
    every attribute below has the shape :func:`_conform` promises, so no
    consumer re-checks it.  The trace and the decision records load on
    first use: a cost or profile view never pays for a paper-scale
    ``decisions.jsonl``.
    """

    def __init__(
        self,
        manifest: Mapping[str, Any],
        path: str = "<memory>",
        trace_rows: Optional[Sequence[Any]] = None,
        decisions: Optional[Sequence[Mapping[str, Any]]] = None,
        source: Optional[str] = None,
    ) -> None:
        #: the telemetry directory (what the health view lists a run by)
        self.path = path
        where = f"{source or path}: manifest"
        manifest = _conform(dict(manifest), _MANIFEST, where)
        self.manifest: Dict[str, Any] = manifest
        self.run_id = manifest.get("run_id", "?")
        self.command = manifest.get("command", "?")
        self.config_sha256 = manifest.get("config_sha256")
        #: ``created_unix`` as a UTC stamp (``?`` when out of range)
        self.created = _utc_stamp(manifest.get("created_unix"))
        self.health: Dict[str, Any] = manifest["health"]
        self.days: List[Dict[str, Any]] = manifest["days"]
        self.spans: List[Dict[str, Any]] = manifest["spans"]
        self.ingest: List[Dict[str, Any]] = manifest["ingest"]
        self.degradations: List[Any] = manifest["degradations"]
        self.runtime_events: List[Dict[str, Any]] = manifest["runtime_events"]
        self.warnings: List[Any] = manifest["warnings"]
        self.trace_file: str = manifest.get("trace_file") or TRACE_FILENAME
        self.trace_path = os.path.join(path, self.trace_file)
        #: None when the run recorded no decisions — a stale file beside
        #: the manifest is then not this run's and is never read
        self.decisions_file: Optional[str] = manifest.get("decisions_file")
        self.decisions_path = (
            os.path.join(path, self.decisions_file) if self.decisions_file else None
        )
        #: None unless the run was profiled (``track --profile``)
        self.resources: Optional[Dict[str, Any]] = None
        if manifest.get("resources") is not None:
            self.resources = manifest["resources"] = _conform(
                manifest["resources"], _RESOURCES, f"{where}.resources"
            )
        # given in memory, these stand in for the files (and shadow the
        # lazily loading properties of the same names below)
        if trace_rows is not None:
            self.trace = self._shape_rows(trace_rows)
        if decisions is not None:
            self.decisions = self._check_decisions(list(decisions), path)

    # ------------------------------------------------------------------ #
    # opening a directory
    # ------------------------------------------------------------------ #

    @classmethod
    def open(cls, path: str, need_manifest: bool = True) -> "TelemetryRun":
        """Open a telemetry directory, named directly or by a file in it.

        *path* is the directory, its manifest (under any name), or a
        ``.jsonl`` artifact beside the manifest.  ``need_manifest=False``
        lets ``segugio explain`` replay a ``decisions.jsonl`` that was
        copied out without its manifest, under the default file names.
        """
        if os.path.isdir(path):
            directory, source = path, os.path.join(path, MANIFEST_FILENAME)
        elif os.path.isfile(path):
            directory = os.path.dirname(path) or "."
            source = (
                os.path.join(directory, MANIFEST_FILENAME)
                if path.endswith(".jsonl")
                else path
            )
        else:
            raise TelemetryError(
                f"{path}: not a directory or a telemetry file inside one"
            )
        if need_manifest or os.path.exists(source):
            manifest = load_manifest(source)
        else:
            manifest = {"decisions_file": DECISIONS_FILENAME}
        return cls(manifest, path=directory, source=source)

    @classmethod
    def open_all(cls, paths: Sequence[str]) -> List["TelemetryRun"]:
        """Open every path, or raise one error naming each unusable one —
        a typo'd path must not masquerade as one healthy run fewer."""
        runs: List[TelemetryRun] = []
        problems: List[str] = []
        for path in paths:
            try:
                runs.append(cls.open(path))
            except TelemetryError as error:
                problems.append(str(error))
        if problems:
            raise TelemetryError("\n".join(problems))
        return runs

    # ------------------------------------------------------------------ #
    # the artifacts the manifest names
    # ------------------------------------------------------------------ #

    @staticmethod
    def _shape_rows(records: Iterable[Any]) -> Tuple[List[Dict[str, Any]], int]:
        rows: List[Dict[str, Any]] = []
        skipped = 0
        for record in records:
            try:
                if isinstance(record, str):
                    record = json.loads(record)
                if not isinstance(record, dict):
                    raise TelemetryError("row is not an object")
                rows.append(_conform(record, _TRACE_ROW, "row"))
            except (ValueError, RecursionError):
                skipped += 1
        return rows, skipped

    @cached_property
    def trace(self) -> Tuple[List[Dict[str, Any]], int]:
        """``(rows, n_skipped)``: the flat span records of the trace file,
        and how many of its lines were not one (a torn or hand-edited
        file; the writer itself is atomic)."""
        path = self.trace_path
        try:
            with open(path, encoding="utf-8", errors="replace") as stream:
                return self._shape_rows(line for line in stream if line.strip())
        except FileNotFoundError:
            raise TelemetryError(
                f"{path}: no trace file (the manifest names {self.trace_file!r})"
            ) from None
        except OSError as error:
            raise TelemetryError(f"{path}: cannot read trace ({error})") from None

    @staticmethod
    def _check_decisions(
        records: List[Dict[str, Any]], path: str
    ) -> List[Dict[str, Any]]:
        for number, record in enumerate(records, start=1):
            if not isinstance(record.get("day"), int) or not isinstance(
                record.get("verdict"), str
            ):
                raise TelemetryError(
                    f"{path}: decision record {number} needs an integer "
                    "'day' and a string 'verdict'"
                )
        return records

    @cached_property
    def decisions(self) -> List[Dict[str, Any]]:
        """The run's decision records: those of the file the manifest
        names — none when it names none or the file was removed since."""
        path = self.decisions_path
        if path is None or not os.path.exists(path):
            return []
        try:
            return self._check_decisions(load_decisions(path), path)
        except ProvenanceError as error:
            raise TelemetryError(str(error)) from None
