"""Serialize an observation day to a directory.

Layout (one directory per observation)::

    meta.json          format version, day, PSL private suffixes, counts
    domains.txt        global domain interner, one name per id-ordered line
    machines.txt       machine interner, same encoding
    trace.tsv          the day's deduplicated edges + resolutions
    blacklist.tsv      C&C feed (domain, added_day, family)
    whitelist.txt      benign e2LDs
    pdns.npz           passive-DNS columns (days, domain ids, ips)
    activity.npz       (day, key) activity pairs for FQDs and e2LDs

Ids are positional: ``domains.txt`` line *k* is the name of global domain
id *k*, so a context loaded from disk reproduces the exact feature values
and scores of the context that was saved (asserted by the round-trip
tests).  The activity and pDNS stores are windowed at save time to what
the pipeline can ever read for this day (activity window + pDNS window),
keeping exports compact.

Saves are atomic: everything is staged into ``<directory>.tmp`` and swapped
into place only once complete (see :func:`repro.runtime.retry
.atomic_directory`), so a crash mid-save can never leave a torn directory
behind.  The reader is :func:`repro.runtime.ingest.load_observation_checked`
(strict or lenient), built on the ``load_*`` helpers below; a directory
written by a newer library raises :class:`FormatVersionError` naming both
versions.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

import numpy as np

from repro.core.features import DEFAULT_ACTIVITY_WINDOW
from repro.core.pipeline import DEFAULT_PDNS_WINDOW_DAYS, ObservationContext
from repro.dns.activity import ActivityIndex
from repro.pdns.database import PassiveDNSDatabase
from repro.runtime.retry import atomic_directory
from repro.utils.arrays import sorted_unique
from repro.utils.errors import FormatVersionError, IngestError
from repro.utils.ids import Interner

FORMAT_VERSION = 1

OBSERVATION_FILES = (
    "meta.json",
    "domains.txt",
    "machines.txt",
    "trace.tsv",
    "blacklist.tsv",
    "whitelist.txt",
    "pdns.npz",
    "activity.npz",
)

_REQUIRED_META_KEYS = ("format_version", "day", "n_domains", "n_machines")


def _activity_pairs(
    index: ActivityIndex, keys: range, start_day: int, end_day: int
) -> np.ndarray:
    """(day, key) rows for every key active within [start_day, end_day]."""
    rows: List[List[int]] = []
    for key in keys:
        if key not in index:
            continue
        for day in range(start_day, end_day + 1):
            if index.is_active(key, day):
                rows.append([day, key])
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def save_observation(
    directory: str,
    context: ObservationContext,
    private_suffixes: Optional[List[str]] = None,
    activity_window: int = DEFAULT_ACTIVITY_WINDOW,
    pdns_window: int = DEFAULT_PDNS_WINDOW_DAYS,
) -> None:
    """Write *context* to *directory* (replaced atomically if it exists).

    ``private_suffixes`` are the dynamic-DNS/free-hosting zones the PSL was
    augmented with; they are required to recompute e2LDs identically at
    load time.

    The write is staged into ``<directory>.tmp`` and renamed into place
    only once every file is complete, so readers never observe a
    half-written observation and a crash mid-save leaves any previous
    *directory* untouched.
    """
    with atomic_directory(directory) as staging:
        _write_observation(
            staging, context, private_suffixes, activity_window, pdns_window
        )


def _write_observation(
    directory: str,
    context: ObservationContext,
    private_suffixes: Optional[List[str]],
    activity_window: int,
    pdns_window: int,
) -> None:
    day = context.day

    with open(os.path.join(directory, "domains.txt"), "w") as stream:
        for name in context.trace.domains:
            stream.write(name + "\n")
    with open(os.path.join(directory, "machines.txt"), "w") as stream:
        for name in context.trace.machines:
            stream.write(name + "\n")

    context.trace.save(os.path.join(directory, "trace.tsv"))
    context.blacklist.save(os.path.join(directory, "blacklist.tsv"))
    context.whitelist.save(os.path.join(directory, "whitelist.txt"))

    pdns_start = max(day - pdns_window, 0)
    days, domains, ips = context.pdns.window_records(pdns_start, day)
    np.savez_compressed(
        os.path.join(directory, "pdns.npz"),
        days=days,
        domains=domains,
        ips=ips,
    )

    act_start = max(day - activity_window + 1, 0)
    fqd_pairs = _activity_pairs(
        context.fqd_activity,
        range(len(context.trace.domains)),
        act_start,
        day,
    )
    e2ld_pairs = _activity_pairs(
        context.e2ld_activity,
        range(len(context.e2ld_index)),  # forces the e2LD mapping
        act_start,
        day,
    )
    np.savez_compressed(
        os.path.join(directory, "activity.npz"),
        fqd=fqd_pairs,
        e2ld=e2ld_pairs,
    )

    meta = {
        "format_version": FORMAT_VERSION,
        "day": day,
        "private_suffixes": sorted(private_suffixes or []),
        "n_domains": len(context.trace.domains),
        "n_machines": len(context.trace.machines),
        "n_edges": context.trace.n_edges,
        "activity_window": activity_window,
        "pdns_window": pdns_window,
    }
    with open(os.path.join(directory, "meta.json"), "w") as stream:
        json.dump(meta, stream, indent=2)


# ---------------------------------------------------------------------- #
# loading — small composable pieces, reused by repro.runtime.ingest
# ---------------------------------------------------------------------- #


def load_meta(directory: str) -> dict:
    """Read and validate ``meta.json``.

    Raises :class:`FormatVersionError` (naming the found and supported
    versions) on a version mismatch, and :class:`IngestError` on a missing
    or structurally broken meta file.
    """
    path = os.path.join(directory, "meta.json")
    if not os.path.exists(path):
        raise IngestError(
            f"{directory}: not an observation directory (no meta.json)"
        )
    try:
        with open(path) as stream:
            meta = json.load(stream)
    except json.JSONDecodeError as error:
        raise IngestError(f"{path}: meta.json is not valid JSON: {error}")
    if not isinstance(meta, dict):
        raise IngestError(f"{path}: meta.json must hold a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionError(version, FORMAT_VERSION, what="observation")
    missing = [key for key in _REQUIRED_META_KEYS if key not in meta]
    if missing:
        raise IngestError(f"{path}: meta.json is missing keys {missing}")
    return meta


def load_interner(path: str, expected: int, label: str) -> Interner:
    """Read a positional-id name file, checking the count against meta."""
    with open(path) as stream:
        interner = Interner(
            line.rstrip("\n") for line in stream if line.strip()
        )
    if len(interner) != expected:
        raise IngestError(
            f"{path}: {os.path.basename(path)} holds {len(interner)} "
            f"{label} but meta.json promises {expected} — the export is "
            f"torn or was edited"
        )
    return interner


def load_pdns_arrays(directory: str) -> tuple:
    """The raw (days, domain ids, ips) columns of ``pdns.npz``."""
    with np.load(os.path.join(directory, "pdns.npz")) as payload:
        return payload["days"], payload["domains"], payload["ips"]


def build_pdns(
    days: np.ndarray, domains: np.ndarray, ips: np.ndarray
) -> PassiveDNSDatabase:
    """Replay (day, domain, ip) columns into a fresh pDNS store."""
    pdns = PassiveDNSDatabase()
    for unique_day in sorted_unique(days):
        mask = days == unique_day
        pdns.observe_day(int(unique_day), domains[mask], ips[mask])
    return pdns


def load_activity_arrays(directory: str) -> tuple:
    """The raw (fqd pairs, e2ld pairs) arrays of ``activity.npz``."""
    with np.load(os.path.join(directory, "activity.npz")) as payload:
        return payload["fqd"], payload["e2ld"]


def build_activity_index(pairs: np.ndarray) -> ActivityIndex:
    """Replay (day, key) rows into a fresh activity index."""
    index = ActivityIndex()
    for unique_day in sorted_unique(pairs[:, 0]) if pairs.size else []:
        index.record(int(unique_day), pairs[pairs[:, 0] == unique_day, 1])
    return index
