"""Checksummed checkpoint/resume for multi-week tracking runs.

A :class:`~repro.core.tracker.DomainTracker` deployment runs for weeks; a
crash halfway must not force re-scoring completed days (each day is a full
train+classify cycle), nor may it silently resume from a half-written or
bit-rotted file.  A checkpoint therefore:

* persists the full mutable state (ledger, day cursor, per-day thresholds)
  *and* the :class:`~repro.core.pipeline.SegugioConfig`, so the resumed run
  reproduces the original bit-for-bit;
* is written atomically (staged then renamed, never torn);
* carries a SHA-256 of its payload in a one-line header, so corruption —
  truncation, a flipped byte, a partial rsync — is *refused* with an
  actionable :class:`CheckpointError` instead of resuming a wrong ledger.

Format: a single text file whose first line is
``segugio-checkpoint v<N> sha256=<hex>`` and whose remainder is canonical
(sorted-keys) JSON.

The tracker's day-over-day *drift reference* (full feature matrix and
score vector of the last processed day) is deliberately outside the
checksummed payload — it would bloat every save and the ledger does not
need it.  It rides in a best-effort ``<path>.drift.npz`` sidecar instead:
written atomically next to each checkpoint, loaded on resume only when its
day matches the checkpoint's last processed day, and silently skipped when
missing, stale, or corrupt — a lost sidecar costs one day's drift summary,
never the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.pipeline import SegugioConfig
from repro.core.pruning import PruneConfig
from repro.obs.events import current_event_log
from repro.obs.logs import get_logger
from repro.obs.tracing import current_tracer
from repro.runtime.faults import maybe_fault
from repro.runtime.retry import atomic_file, retry
from repro.utils.errors import CheckpointError

if TYPE_CHECKING:  # runtime import would cycle: tracker imports this module
    from repro.core.tracker import DomainTracker

CHECKPOINT_VERSION = 1
_HEADER_PREFIX = "segugio-checkpoint"

DRIFT_SIDECAR_SUFFIX = ".drift.npz"

_log = get_logger("checkpoint")


def config_to_dict(config: SegugioConfig) -> dict:
    """JSON-serializable form of a :class:`SegugioConfig`."""
    payload = dataclasses.asdict(config)
    if payload.get("feature_columns") is not None:
        payload["feature_columns"] = list(payload["feature_columns"])
    return payload


def config_from_dict(payload: dict) -> SegugioConfig:
    """Rebuild a :class:`SegugioConfig` from :func:`config_to_dict`."""
    try:
        payload = dict(payload)
        if payload.get("feature_columns") is not None:
            payload["feature_columns"] = tuple(payload["feature_columns"])
        prune = payload.get("prune")
        if isinstance(prune, dict):
            payload["prune"] = PruneConfig(**prune)
        return SegugioConfig(**payload)
    except (TypeError, ValueError) as error:
        raise CheckpointError(
            f"checkpoint config does not match this library's "
            f"SegugioConfig ({error}); the checkpoint was written by an "
            f"incompatible version"
        ) from None


def _digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def save_checkpoint(tracker: "DomainTracker", path: str) -> None:
    """Atomically write *tracker* (a :class:`DomainTracker`) to *path*.

    Transient ``OSError`` during the write is retried on the deterministic
    backoff schedule, each retry recorded as an ``io_retry`` runtime event;
    the atomic staging pattern guarantees a failed attempt leaves no torn
    file behind.  The drift sidecar is saved best-effort afterwards — a
    sidecar failure warns and is recorded, but never fails the checkpoint.
    """
    payload = {
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": config_to_dict(tracker.config),
        "state": tracker.state_dict(),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    header = f"{_HEADER_PREFIX} v{CHECKPOINT_VERSION} sha256={_digest(body)}"
    events = current_event_log()

    def _write() -> None:
        with atomic_file(path) as staging:
            with open(staging, "w") as stream:
                stream.write(header + "\n" + body + "\n")
            maybe_fault("checkpoint_save", path=staging)

    def _on_retry(attempt: int, error: BaseException) -> None:
        events.record(
            "io_retry",
            site="checkpoint_save",
            path=path,
            attempt=attempt,
            error=str(error),
        )
        _log.warning(
            "checkpoint_save_retry", path=path, attempt=attempt, error=str(error)
        )

    with current_tracer().span("segugio_checkpoint_save", path=path):
        retry(attempts=3, on_retry=_on_retry)(_write)()
        try:
            save_drift_sidecar(tracker, path)
        except OSError as error:
            events.record(
                "io_retry",
                site="drift_sidecar_save",
                path=path,
                attempt=0,
                error=str(error),
            )
            _log.warning(
                "drift_sidecar_save_failed", path=path, error=str(error)
            )
    _log.info(
        "checkpoint_saved",
        path=path,
        n_days=len(tracker.days_processed),
        n_tracked=len(tracker.tracked),
    )


def drift_sidecar_path(path: str) -> str:
    """Where the drift sidecar for checkpoint *path* lives."""
    return path + DRIFT_SIDECAR_SUFFIX


def save_drift_sidecar(tracker: "DomainTracker", path: str) -> Optional[str]:
    """Persist the tracker's drift reference next to its checkpoint.

    Writes ``<path>.drift.npz`` atomically (the reference arrays plus a
    JSON metadata record), so a resumed run's first drift summary is
    bit-identical to the one an uninterrupted run would have computed.
    When the tracker has no reference yet, any stale sidecar is removed —
    a sidecar must never outlive the state it describes.  Returns the
    sidecar path, or None when nothing was written.
    """
    sidecar = drift_sidecar_path(path)
    reference = tracker.drift_reference()
    if reference is None:
        if os.path.exists(sidecar):
            os.remove(sidecar)
        return None
    meta = {
        "day": int(reference["day"]),  # type: ignore[arg-type]
        "blacklist": sorted(reference["blacklist"]),  # type: ignore[arg-type]
        "prune_stats": dict(reference["prune_stats"]),  # type: ignore[arg-type]
        "n_scored": int(reference["n_scored"]),  # type: ignore[arg-type]
    }
    with atomic_file(sidecar) as staging:
        with open(staging, "wb") as stream:
            np.savez(
                stream,
                features=np.asarray(reference["features"], dtype=np.float64),
                scores=np.asarray(reference["scores"], dtype=np.float64),
                meta=np.array(json.dumps(meta, sort_keys=True)),
            )
    _log.info("drift_sidecar_saved", path=sidecar, day=meta["day"])
    return sidecar


def load_drift_sidecar(
    path: str, expected_day: Optional[int] = None
) -> Optional[Dict[str, object]]:
    """Load the drift reference saved next to checkpoint *path*, if usable.

    Returns None — with a structured warning, never an exception — when
    the sidecar is missing, unreadable, or describes a different day than
    *expected_day* (it then predates the checkpoint and would produce a
    wrong drift summary).  The sidecar is an optimization, not state: the
    resumed ledger is bit-identical either way.
    """
    sidecar = drift_sidecar_path(path)
    if not os.path.exists(sidecar):
        return None
    try:
        with np.load(sidecar, allow_pickle=False) as data:
            features = np.array(data["features"], dtype=np.float64)
            scores = np.array(data["scores"], dtype=np.float64)
            meta = json.loads(str(data["meta"][()]))
        day = int(meta["day"])
        reference: Dict[str, object] = {
            "day": day,
            "features": features,
            "scores": scores,
            "blacklist": frozenset(str(name) for name in meta["blacklist"]),
            "prune_stats": dict(meta["prune_stats"]),
            "n_scored": int(meta["n_scored"]),
        }
    except Exception as error:  # any corruption mode: degrade, don't die
        _log.warning(
            "drift_sidecar_unreadable", path=sidecar, error=str(error)
        )
        return None
    if expected_day is not None and day != int(expected_day):
        _log.warning(
            "drift_sidecar_stale",
            path=sidecar,
            sidecar_day=day,
            expected_day=int(expected_day),
        )
        return None
    return reference


def load_checkpoint(path: str) -> dict:
    """Read and verify a checkpoint; returns the decoded payload.

    Raises :class:`CheckpointError` — never a bare parse error — for every
    corruption mode: missing file, foreign format, unsupported version,
    checksum mismatch (truncation or bit-rot), undecodable body.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"{path}: checkpoint file does not exist")
    # Read as bytes: a flipped bit can make the file invalid UTF-8, and
    # that too must surface as a CheckpointError, not a codec error.
    with open(path, "rb") as stream:
        head, _, body_bytes = stream.read().partition(b"\n")
    body_bytes = body_bytes.rstrip(b"\n")
    try:
        header = head.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(
            f"{path}: not a segugio checkpoint (undecodable header)"
        ) from None
    parts = header.split()
    if len(parts) != 3 or parts[0] != _HEADER_PREFIX:
        raise CheckpointError(
            f"{path}: not a segugio checkpoint (bad header {header[:60]!r})"
        )
    version_text, checksum_text = parts[1], parts[2]
    if not version_text.startswith("v") or not checksum_text.startswith(
        "sha256="
    ):
        raise CheckpointError(
            f"{path}: malformed checkpoint header {header[:60]!r}"
        )
    try:
        version = int(version_text[1:])
    except ValueError:
        raise CheckpointError(
            f"{path}: non-numeric checkpoint version {version_text!r}"
        ) from None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {version} is not supported by "
            f"this library (supports version {CHECKPOINT_VERSION}); "
            f"re-run the original tracking job or upgrade the library"
        )
    expected = checksum_text[len("sha256="):]
    actual = hashlib.sha256(body_bytes).hexdigest()
    if actual != expected:
        raise CheckpointError(
            f"{path}: checksum mismatch (header says {expected[:12]}..., "
            f"body hashes to {actual[:12]}...) — the file is truncated or "
            f"corrupted; restore it from a good copy or restart the "
            f"tracking run from scratch"
        )
    try:
        payload = json.loads(body_bytes.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointError(
            f"{path}: checkpoint body is not valid JSON ({error})"
        ) from None
    for key in ("checkpoint_version", "config", "state"):
        if key not in payload:
            raise CheckpointError(
                f"{path}: checkpoint payload is missing {key!r}"
            )
    return payload


def resume_tracker(
    path: str, config: Optional[SegugioConfig] = None
) -> "DomainTracker":
    """Rebuild the :class:`DomainTracker` stored at *path*.

    The persisted config is used unless *config* overrides it (overriding
    forfeits the bit-identical-resume guarantee and is for experiments
    only).  A checksum-valid payload whose config or state cannot be
    rebuilt raises :class:`CheckpointError` naming *path*.
    """
    from repro.core.tracker import DomainTracker

    with current_tracer().span("segugio_checkpoint_resume", path=path):
        payload = load_checkpoint(path)
        try:
            resolved = (
                config
                if config is not None
                else config_from_dict(payload["config"])
            )
            tracker = DomainTracker.from_state(payload["state"], config=resolved)
        except CheckpointError as error:
            raise CheckpointError(f"{path}: {error}") from None
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise CheckpointError(
                f"{path}: checkpoint state does not match this library's "
                f"DomainTracker ({type(error).__name__}: {error})"
            ) from None
        reference = load_drift_sidecar(
            path,
            expected_day=(
                tracker.days_processed[-1] if tracker.days_processed else None
            ),
        )
        if reference is not None:
            tracker.restore_drift_reference(reference)
    _log.info(
        "checkpoint_resumed",
        path=path,
        n_days=len(tracker.days_processed),
        n_tracked=len(tracker.tracked),
    )
    return tracker
