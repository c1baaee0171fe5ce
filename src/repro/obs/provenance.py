"""Decision provenance: one compact, replayable record per classified domain.

PR 2 made the *runtime* observable; this module makes the *detector*
observable.  Every domain that enters a classified day's behavior graph
gets a schema-versioned decision record capturing the whole causal chain
behind its verdict:

* where its ground-truth label came from (``label_source``);
* which pruning rule R1–R4 removed it — or that it survived pruning
  (``pruning``);
* the full F1/F2/F3 feature vector it was scored on (``features``);
* how the forest voted — a per-tree score histogram and the vote margin
  (``votes``);
* the final malware score, the day's calibrated threshold, and whether it
  was detected (``score`` / ``threshold`` / ``detected``).

Records land in ``--telemetry-dir`` as ``decisions.jsonl`` (one JSON
object per line, keys sorted), next to ``manifest.json`` and
``trace.jsonl``.  ``segugio explain <domain> --telemetry-dir …`` replays a
verdict from these artifacts alone — no model, no traffic, no recompute.

Like the tracer, the :class:`DecisionLog` is
**ambient and off by default**: instrumented code calls
:func:`current_decision_log` and pays only a context-variable lookup until
a run activates one via :func:`use_decision_log` (normally through
:class:`repro.obs.run.RunTelemetry`).  The module is zero-dependency and
deterministic — records carry day numbers, never wall-clock identity.
"""

from __future__ import annotations

import contextvars
import json
import os
from contextlib import contextmanager
from typing import Dict, IO, Iterator, List, Mapping, Optional, Sequence

#: bump when a record key changes meaning; readers refuse unknown versions
DECISION_SCHEMA_VERSION = 1

DECISIONS_FILENAME = "decisions.jsonl"

#: verdict values, in pipeline order
VERDICT_SCORED = "scored"      # unknown domain, survived pruning, got a score
VERDICT_PRUNED = "pruned"      # removed from the graph before classification
VERDICT_LABELED = "labeled"    # known ground truth; never enters scoring

#: number of per-tree score buckets in the vote histogram
VOTE_BINS = 10


class ProvenanceError(ValueError):
    """Unreadable or wrong-version decision artifacts."""


class DecisionLog:
    """Collects decision records for one run (ambient, off by default).

    Two export modes share one byte format:

    * **buffered** (default): every record stays in :attr:`records` until
      :meth:`write_jsonl` serializes them in one pass;
    * **streaming** (:meth:`stream_to`): records accumulate per day and
      :meth:`flush_pending` appends them to a staging file as each day
      finalizes, clearing the buffer — at paper scale this trades the
      ~1 GB in-memory ledger for a file handle.  :meth:`finalize_stream`
      fsyncs and atomically renames the staging file into place, so an
      interrupted run never leaves a torn ``decisions.jsonl``.

    Records are immutable once their day closes (``finalize_day`` stamps
    thresholds *before* the day scope exits and flushes), which is what
    makes the streamed bytes provably identical to the buffered bytes.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.records: List[Dict[str, object]] = []
        self.n_flushed = 0
        self._stream_path: Optional[str] = None
        self._stream: Optional[IO[str]] = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record(
        self,
        day: int,
        domain: str,
        verdict: str,
        label: str,
        label_source: str,
        pruning: Mapping[str, object],
        features: Optional[Mapping[str, float]] = None,
        votes: Optional[Mapping[str, object]] = None,
        score: Optional[float] = None,
    ) -> None:
        """Append one decision record (no-op when disabled).

        ``threshold`` and ``detected`` are unknown at classification time
        (the tracker calibrates the threshold *after* scoring), so they are
        stamped later by :meth:`finalize_day`.
        """
        if not self.enabled:
            return
        if verdict not in (VERDICT_SCORED, VERDICT_PRUNED, VERDICT_LABELED):
            raise ProvenanceError(f"unknown verdict {verdict!r}")
        self.records.append(
            {
                "schema": DECISION_SCHEMA_VERSION,
                "day": int(day),
                "domain": str(domain),
                "verdict": verdict,
                "label": str(label),
                "label_source": str(label_source),
                "pruning": dict(pruning),
                "features": dict(features) if features is not None else None,
                "votes": dict(votes) if votes is not None else None,
                "score": float(score) if score is not None else None,
                "threshold": None,
                "detected": None,
            }
        )

    def finalize_day(self, day: int, threshold: float) -> int:
        """Stamp *threshold* / ``detected`` onto the day's scored records.

        Returns the number of records finalized.  Safe to call when
        disabled or when the day produced no records.
        """
        if not self.enabled:
            return 0
        n = 0
        for record in self.records:
            if record["day"] != int(day) or record["verdict"] != VERDICT_SCORED:
                continue
            record["threshold"] = float(threshold)
            score = record["score"]
            record["detected"] = bool(
                score is not None and float(score) >= float(threshold)
            )
            n += 1
        return n

    # ------------------------------------------------------------------ #
    # incremental streaming
    # ------------------------------------------------------------------ #

    @property
    def streaming(self) -> bool:
        """Whether a streaming target is open (or was finalized)."""
        return self._stream_path is not None

    def stream_to(self, path: str) -> None:
        """Stream records incrementally toward *path*.

        Opens a pid-suffixed staging file next to *path*; records land in
        it on every :meth:`flush_pending` and the rename onto *path*
        happens only in :meth:`finalize_stream`.  No-op when disabled.
        """
        if not self.enabled:
            return
        if self._stream is not None:
            raise ProvenanceError(
                f"decision log already streaming to {self._stream_path!r}"
            )
        self._stream_path = str(path)
        self._stream = open(f"{path}.tmp.{os.getpid()}", "w")

    def flush_pending(self) -> int:
        """Append every buffered record to the stream and clear the buffer.

        Called as each day scope closes — by then ``finalize_day`` has
        stamped the day's thresholds, so flushed bytes match what the
        buffered path would serialize at the end of the run.  Returns the
        number of records flushed (0 when not streaming).
        """
        if self._stream is None or not self.records:
            return 0
        n = self.write_jsonl(self._stream)
        self.n_flushed += n
        self.records.clear()
        return n

    def finalize_stream(self) -> str:
        """Flush, fsync, and atomically rename the stream into place.

        Returns the final path.  Idempotent after the first call (a run
        that writes its telemetry twice must not truncate the ledger);
        calling it on a log that never streamed is an error.
        """
        if self._stream_path is None:
            raise ProvenanceError("decision log is not streaming")
        if self._stream is None:  # already finalized
            return self._stream_path
        self.flush_pending()
        staging = self._stream.name
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self._stream.close()
        self._stream = None
        os.replace(staging, self._stream_path)
        path = self._stream_path
        return path

    # ------------------------------------------------------------------ #
    # access / export
    # ------------------------------------------------------------------ #

    def day_records(self, day: int) -> List[Dict[str, object]]:
        """Buffered (not-yet-flushed) records for *day*."""
        return [r for r in self.records if r["day"] == int(day)]

    def for_domain(self, domain: str) -> List[Dict[str, object]]:
        """Buffered (not-yet-flushed) records for *domain*."""
        return [r for r in self.records if r["domain"] == domain]

    def write_jsonl(self, stream: IO[str]) -> int:
        """One sorted-keys JSON object per buffered record; returns count."""
        n = 0
        for record in self.records:
            stream.write(json.dumps(record, sort_keys=True, default=str) + "\n")
            n += 1
        return n

    def __len__(self) -> int:
        return self.n_flushed + len(self.records)

    def __repr__(self) -> str:
        return (
            f"DecisionLog(records={len(self.records)}, "
            f"flushed={self.n_flushed}, enabled={self.enabled})"
        )


# ---------------------------------------------------------------------- #
# ambient instance
# ---------------------------------------------------------------------- #

_DISABLED = DecisionLog(enabled=False)

_active: contextvars.ContextVar[Optional[DecisionLog]] = contextvars.ContextVar(
    "segugio_decision_log", default=None
)


def current_decision_log() -> DecisionLog:
    """The decision log activated for the current run (disabled default)."""
    log = _active.get()
    return log if log is not None else _DISABLED


@contextmanager
def use_decision_log(log: DecisionLog) -> Iterator[DecisionLog]:
    """Make *log* the ambient decision log within the ``with`` block."""
    token = _active.set(log)
    try:
        yield log
    finally:
        _active.reset(token)


# ---------------------------------------------------------------------- #
# reading artifacts back
# ---------------------------------------------------------------------- #


def load_decisions(path: str) -> List[Dict[str, object]]:
    """Read a ``decisions.jsonl``; raises :class:`ProvenanceError`."""
    records: List[Dict[str, object]] = []
    try:
        with open(path) as stream:
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise ProvenanceError(
                        f"{path}:{lineno}: record is not valid JSON ({error})"
                    ) from None
                if not isinstance(record, dict):
                    raise ProvenanceError(
                        f"{path}:{lineno}: record must be a JSON object"
                    )
                version = record.get("schema")
                if version != DECISION_SCHEMA_VERSION:
                    raise ProvenanceError(
                        f"{path}:{lineno}: decision schema {version!r} is not "
                        f"supported (this library speaks version "
                        f"{DECISION_SCHEMA_VERSION})"
                    )
                records.append(record)
    except (OSError, UnicodeDecodeError) as error:
        raise ProvenanceError(f"{path}: cannot read decisions ({error})") from None
    return records


def decisions_for_domain(
    records: Sequence[Mapping[str, object]], domain: str
) -> List[Mapping[str, object]]:
    """All decision records for one domain, in recorded (day) order."""
    return [r for r in records if r.get("domain") == domain]


# ---------------------------------------------------------------------- #
# human-readable replay (``segugio explain --telemetry-dir``)
# ---------------------------------------------------------------------- #


def _vote_sparkline(histogram: Sequence[int]) -> str:
    blocks = " ▁▂▃▄▅▆▇█"
    peak = max(histogram) if histogram else 0
    if peak <= 0:
        return ""
    return "".join(
        blocks[1 + (int(v) * (len(blocks) - 2)) // peak] if v else blocks[0]
        for v in histogram
    )


def render_decision(record: Mapping[str, object]) -> str:
    """One decision record as a human-readable verdict replay."""
    lines = [f"{record.get('domain', '?')} — day {record.get('day', '?')}"]
    label = record.get("label", "?")
    source = record.get("label_source", "?")
    lines.append(f"  ground truth: {label} (source: {source})")
    pruning = record.get("pruning") or {}
    if pruning.get("kept"):
        lines.append("  pruning R1-R4: kept (entered the pruned graph)")
    else:
        rule = pruning.get("removed_by") or "?"
        detail = {
            "r1": "R1 removed its only querying machines (inactive)",
            "r2": "R2 removed its only querying machines (proxy meganode)",
            "r3": "R3: queried by a single machine",
            "r4": "R4: effective 2LD too popular",
            "orphaned": "all querying machines were pruned by R1/R2",
        }.get(str(rule), f"removed by {rule}")
        lines.append(f"  pruning R1-R4: removed — {detail}")
    verdict = record.get("verdict")
    if verdict == VERDICT_LABELED:
        lines.append("  verdict: not scored (ground truth already known)")
        return "\n".join(lines)
    if verdict == VERDICT_PRUNED:
        lines.append(
            "  verdict: not scored (pruned before classification) — a miss "
            "here is a pruning decision, not a classifier decision"
        )
        return "\n".join(lines)
    features = record.get("features") or {}
    if features:
        lines.append("  features measured:")
        for name, value in features.items():
            lines.append(f"    {name:<24s} {float(value):10.4f}")
    votes = record.get("votes") or {}
    histogram = votes.get("histogram")
    if histogram:
        n_trees = int(votes.get("n_trees", sum(int(v) for v in histogram)))
        margin = votes.get("margin")
        lines.append(
            f"  forest vote ({n_trees} trees, score buckets 0.0→1.0): "
            f"{_vote_sparkline(histogram)}  {list(int(v) for v in histogram)}"
        )
        if margin is not None:
            lines.append(
                f"  vote margin: {float(margin):+.3f} "
                "(fraction voting malware minus fraction voting benign)"
            )
    score = record.get("score")
    threshold = record.get("threshold")
    if score is not None:
        text = f"  malware score: {float(score):.6f}"
        if threshold is not None:
            text += f"  vs threshold {float(threshold):.6f}"
        lines.append(text)
    detected = record.get("detected")
    if detected is None:
        lines.append("  verdict: scored (threshold not calibrated in this run)")
    elif detected:
        lines.append("  verdict: DETECTED (score >= threshold)")
    else:
        lines.append("  verdict: not detected (score below threshold)")
    return "\n".join(lines)
