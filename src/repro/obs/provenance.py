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
:class:`repro.obs.run.RunTelemetry`).  A day's records are held as one
:class:`DecisionBlock` of columns and written from per-group templates,
never as one dict per domain.  The module depends on numpy only and is
deterministic — records carry day numbers, never wall-clock identity.
"""

from __future__ import annotations

import contextvars
import json
import json.encoder
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Dict, IO, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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


@dataclass(eq=False)
class DecisionBlock:
    """One classified day's decisions as columns: row *i* is ``domain_ids[i]``.

    ``rules`` holds each domain's pruning-rule code and ``rule_names`` maps
    a code to the record's ``removed_by`` (None: the domain was kept).
    ``labels`` holds ground-truth label codes and ``label_names`` maps a
    known code to its ``(label, label_source)``; any other code reads
    ``unknown``, sourced ``hidden_for_evaluation`` where ``hidden`` is set
    and ``none`` elsewhere.  ``score_rows[i]`` is the scored domain's row
    of ``features`` / ``scores`` / ``histograms`` / ``margins``, or -1.
    ``threshold`` stays None until :meth:`DecisionLog.finalize_day`.
    """

    day: int
    domain_ids: np.ndarray
    names: List[str]
    rules: np.ndarray
    labels: np.ndarray
    hidden: np.ndarray
    score_rows: np.ndarray
    features: np.ndarray
    scores: np.ndarray
    feature_names: Sequence[str]
    rule_names: Mapping[int, Optional[str]]
    label_names: Mapping[int, Tuple[str, str]]
    histograms: Optional[np.ndarray] = None
    margins: Optional[np.ndarray] = None
    n_trees: int = 0
    threshold: Optional[float] = None

    def __len__(self) -> int:
        return len(self.names)


class DecisionLog:
    """Collects one :class:`DecisionBlock` per classified day (ambient, off
    by default).

    Two export modes share one byte format:

    * **buffered** (default): every block stays in :attr:`blocks` until
      :meth:`write_jsonl` serializes them in one pass;
    * **streaming** (:meth:`stream_to`): :meth:`flush_pending` appends the
      pending blocks to a staging file as each day finalizes and drops
      them.  :meth:`finalize_stream` fsyncs and atomically renames the
      staging file into place, so an interrupted run never leaves a torn
      ``decisions.jsonl``.

    A block is immutable once its day closes (``finalize_day`` stamps the
    threshold *before* the day scope flushes), which is what makes the
    streamed bytes identical to the buffered bytes.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.blocks: List[DecisionBlock] = []
        self.n_flushed = 0
        self._stream_path: Optional[str] = None
        self._stream: Optional[IO[str]] = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def add_block(self, block: DecisionBlock) -> None:
        """Append one day's decisions (no-op when disabled)."""
        if self.enabled:
            self.blocks.append(block)

    def finalize_day(self, day: int, threshold: float) -> int:
        """Stamp *threshold* onto the day's blocks; ``detected`` follows
        from it when the block is written.

        Returns the number of scored records finalized.  Safe to call when
        disabled or when the day produced no records.
        """
        n = 0
        for block in self.blocks:
            if block.day == int(day):
                block.threshold = float(threshold)
                n += int(np.count_nonzero(block.score_rows >= 0))
        return n

    def mark(self) -> int:
        """A point :meth:`rollback` can return the pending blocks to."""
        return len(self.blocks)

    def rollback(self, mark: int) -> None:
        """Drop the blocks added since *mark* (a failed day's attempt)."""
        del self.blocks[mark:]

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
        """Append every pending block to the stream and drop it.

        Called as each day scope closes — by then ``finalize_day`` has
        stamped the day's threshold, so flushed bytes match what the
        buffered path would serialize at the end of the run.  Returns the
        number of records flushed (0 when not streaming).
        """
        if self._stream is None or not self.blocks:
            return 0
        n = self.write_jsonl(self._stream)
        self.n_flushed += n
        self.blocks.clear()
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
        return self._stream_path

    # ------------------------------------------------------------------ #
    # access / export
    # ------------------------------------------------------------------ #

    @property
    def records(self) -> List[Dict[str, object]]:
        """Pending (not-yet-flushed) records, decoded from their bytes."""
        return [
            json.loads(line)
            for block in self.blocks
            for text in _block_text(block)
            for line in text.splitlines()
        ]

    def day_records(self, day: int) -> List[Dict[str, object]]:
        """Pending (not-yet-flushed) records for *day*."""
        return [r for r in self.records if r["day"] == int(day)]

    def write_jsonl(self, stream: IO[str]) -> int:
        """One sorted-keys JSON object per pending record; returns count."""
        for block in self.blocks:
            for text in _block_text(block):
                stream.write(text)
        return sum(len(block) for block in self.blocks)

    def __len__(self) -> int:
        return self.n_flushed + sum(len(block) for block in self.blocks)

    def __repr__(self) -> str:
        return (
            f"DecisionLog(records={len(self) - self.n_flushed}, "
            f"flushed={self.n_flushed}, enabled={self.enabled})"
        )


# ---------------------------------------------------------------------- #
# the schema-1 line writer
# ---------------------------------------------------------------------- #

#: json.dumps's own string escaper, so a name's bytes match it exactly
_escape = json.encoder.encode_basestring_ascii

#: stand-ins a template is dumped with, then swapped for its % directives:
#: text (an escaped name, a rendered float, ``true``/``false``) and ints
_MARK_S, _MARK_D = "\x00s", "\x00d"
_DIRECTIVES = ((json.dumps(_MARK_S), "%s"), (json.dumps(_MARK_D), "%d"))

#: rows joined per write.  It bounds the text held at once, and its
#: encoded copy: 65 536 rows lifted a 26k-domain day's peak RSS by 5 MB
_CHUNK_ROWS = 1 << 13


def _record(
    day: int,
    domain: str,
    verdict: str,
    label: str,
    label_source: str,
    removed_by: Optional[str],
    features: Optional[Dict[str, str]] = None,
    votes: Optional[Dict[str, object]] = None,
    score: Optional[str] = None,
    threshold: Optional[float] = None,
    detected: Optional[str] = None,
) -> Dict[str, object]:
    """The schema-1 record, holding the marks a template is cut from."""
    return {
        "schema": DECISION_SCHEMA_VERSION,
        "day": int(day),
        "domain": domain,
        "verdict": verdict,
        "label": label,
        "label_source": label_source,
        "pruning": {"kept": removed_by is None, "removed_by": removed_by},
        "features": features,
        "votes": votes,
        "score": score,
        "threshold": threshold,
        "detected": detected,
    }


def _template(record: Dict[str, object]) -> str:
    """A %-template of one line: ``json.dumps`` of a record holding marks."""
    text = json.dumps(record, sort_keys=True).replace("%", "%%")
    for mark, directive in _DIRECTIVES:
        text = text.replace(mark, directive)
    return text + "\n"


class _Groups:
    """The (label, label_source, removed_by) group of every row of a block."""

    def __init__(self, block: DecisionBlock) -> None:
        self.block = block
        self.n_rules = int(block.rules.max()) + 1
        labels = block.labels.astype(np.int64)
        hidden = np.asarray(block.hidden, dtype=np.int64)
        self.keys = (labels * 2 + hidden) * self.n_rules + block.rules

    def fields(self, key: int) -> Tuple[str, str, Optional[str]]:
        label_hidden, rule = divmod(key, self.n_rules)
        label, hidden = divmod(label_hidden, 2)
        named = self.block.label_names.get(label)
        if named is None:
            named = ("unknown", "hidden_for_evaluation" if hidden else "none")
        return named[0], named[1], self.block.rule_names.get(rule)


def _json_floats(values: np.ndarray) -> np.ndarray:
    """Each float as ``json.dumps`` writes it (``NaN``, ``Infinity`` and
    ``float.__repr__`` otherwise), an object array of *values*' shape.

    One ``json.dumps`` renders every distinct bit pattern once (a day's
    features repeat heavily: 675 distinct among 111k values on
    ``disk-day``); bits rather than values keep ``-0.0`` apart from ``0.0``.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits.ravel(), return_inverse=True)
    text = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    return np.array(text, dtype=object)[inverse].reshape(values.shape)


def _scored_lines(
    block: DecisionBlock, groups: _Groups, at: np.ndarray
) -> List[str]:
    """The lines of the scored rows *at*, in that order."""
    rows = block.score_rows[at]
    feature_names = block.feature_names
    order = sorted(range(len(feature_names)), key=feature_names.__getitem__)
    scores = np.asarray(block.scores, dtype=float)[rows]
    # columns in the order their marks sit in the sorted-keys template
    columns: List[list] = []
    if block.threshold is not None:
        detected = scores >= block.threshold
        columns.append(np.where(detected, "true", "false").tolist())
    columns.append(list(map(_escape, map(block.names.__getitem__, at.tolist()))))
    features = np.asarray(block.features, dtype=float)[rows][:, order]
    columns.extend(_json_floats(features).T.tolist())
    columns.append(_json_floats(scores).tolist())
    votes = None
    if block.histograms is not None:
        histograms = np.asarray(block.histograms, dtype=np.int64)[rows]
        columns.extend(histograms.T.tolist())
        columns.append(_json_floats(np.asarray(block.margins)[rows]).tolist())
        votes = {
            "n_trees": int(block.n_trees),
            "bins": histograms.shape[1],
            "histogram": [_MARK_D] * histograms.shape[1],
            "margin": _MARK_S,
        }
    keys = groups.keys[at].tolist()
    templates = {
        key: _template(
            _record(
                block.day, _MARK_S, VERDICT_SCORED, *groups.fields(key),
                features=dict.fromkeys(feature_names, _MARK_S),
                votes=votes,
                score=_MARK_S,
                threshold=block.threshold,
                detected=None if block.threshold is None else _MARK_S,
            )
        )
        for key in set(keys)
    }
    return [templates[key] % args for key, args in zip(keys, zip(*columns))]


def _block_text(block: DecisionBlock) -> Iterator[str]:
    """The block's schema-1 lines, byte-identical to ``json.dumps(record,
    sort_keys=True)`` per record, joined ``_CHUNK_ROWS`` rows at a time.

    A pruned or labeled line is its group's prefix, the escaped name and
    the group's suffix; a scored line stands in the name's place, between
    an empty prefix and suffix.  The join runs in C: no Python code runs
    per row.
    """
    if not len(block):
        return
    groups = _Groups(block)
    keys = groups.keys.copy()
    blank = int(keys.max()) + 1  # the scored rows' group: no prefix or suffix
    prefixes, suffixes = [""] * (blank + 1), [""] * (blank + 1)
    for key in set(keys.tolist()):
        label, source, removed_by = groups.fields(key)
        verdict = VERDICT_LABELED if removed_by is None else VERDICT_PRUNED
        line = json.dumps(
            _record(block.day, _MARK_S, verdict, label, source, removed_by),
            sort_keys=True,
        )
        prefixes[key], suffixes[key] = line.split(json.dumps(_MARK_S))
        suffixes[key] += "\n"
    scored_at = np.flatnonzero(block.score_rows >= 0)
    scored = _scored_lines(block, groups, scored_at) if scored_at.size else []
    keys[scored_at] = blank
    for start in range(0, len(keys), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        names = list(map(_escape, block.names[start:stop]))
        first, last = np.searchsorted(scored_at, (start, stop)).tolist()
        in_chunk = (scored_at[first:last] - start).tolist()
        for at, line in zip(in_chunk, scored[first:last]):
            names[at] = line
        chunk = keys[start:stop].tolist()
        yield "".join(
            chain.from_iterable(
                zip(
                    map(prefixes.__getitem__, chunk),
                    names,
                    map(suffixes.__getitem__, chunk),
                )
            )
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
