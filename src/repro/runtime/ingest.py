"""Strict/lenient observation loading with quarantine accounting.

Real intelligence feeds and collector outputs are routinely stale, partial,
and malformed.  This module loads an observation directory (the layout of
:mod:`repro.datasets.store`) in one of two modes:

* ``strict`` — the first malformed record raises a located error
  (:class:`FeedFormatError` with file and 1-based line number, or
  :class:`IngestError` for structural faults).  This is the right mode for
  round-trip pipelines where any fault means a bug.
* ``lenient`` — malformed records are *quarantined*: dropped from the
  loaded context and tallied per category (``trace:bad_ipv4``,
  ``pdns:id_range``, ...) in an :class:`IngestReport`, with the first few
  offenders kept verbatim for the post-mortem.  If the overall malformed
  fraction exceeds ``max_error_rate`` the load fails loudly instead — a
  feed that is 30% garbage is a dead feed, not a noisy one.

Structural faults abort in *both* modes: a missing file, a torn positional
interner (``domains.txt`` disagreeing with ``meta.json``), or a trace whose
day header contradicts the metadata would silently shift every id or
feature window — exactly the "silent wrong answer" this layer exists to
prevent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import ObservationContext
from repro.datasets import store
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.publicsuffix import PublicSuffixList
from repro.dns.trace import (
    DEFAULT_BATCH_SIZE,
    DayTrace,
    TraceReader,
    iter_trace_batches,
)
from repro.intel.blacklist import CncBlacklist, parse_blacklist_line
from repro.intel.whitelist import DomainWhitelist, parse_whitelist_line
from repro.obs.logs import get_logger
from repro.obs.tracing import current_tracer
from repro.utils.errors import FeedFormatError, IngestError
from repro.utils.ids import Interner

if TYPE_CHECKING:  # runtime import of edgestore stays function-level
    from repro.datasets.edgestore import EdgeStoreWriter

DEFAULT_MAX_ERROR_RATE = 0.05
MAX_QUARANTINE_SAMPLES = 25

_log = get_logger("ingest")


@dataclass(frozen=True)
class QuarantinedRecord:
    """One malformed record set aside by a lenient load."""

    source: str
    line: int  # 1-based; 0 for array-valued (npz) records
    category: str
    detail: str


@dataclass
class IngestReport:
    """Accounting for one observation load: what was kept, what was not.

    ``counters`` maps quarantine categories (``trace:bad_ipv4``, ...) to
    how many records each absorbed; ``quarantined`` keeps the first
    :data:`MAX_QUARANTINE_SAMPLES` offenders verbatim so the operator can
    see *which* lines were bad, not just how many.

    Kept records are additionally tallied per feed *source* (``trace``,
    ``blacklist``, ``whitelist``, ``pdns``, ``activity``, ``interner``)
    in ``kept``; quarantine counters already carry their source as the
    category prefix.  The error-rate cap is applied *per source* — a
    30%-garbage trace must not slip under the cap just because large
    (always-clean) interner or pdns arrays dilute the overall rate.
    """

    source: str
    mode: str = "strict"
    n_ok: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    kept: Dict[str, int] = field(default_factory=dict)

    @property
    def n_quarantined(self) -> int:
        return sum(self.counters.values())

    @property
    def n_seen(self) -> int:
        return self.n_ok + self.n_quarantined

    @property
    def error_rate(self) -> float:
        seen = self.n_seen
        return self.n_quarantined / seen if seen else 0.0

    def keep(self, n: int = 1, source: str = "records") -> None:
        self.n_ok += n
        self.kept[source] = self.kept.get(source, 0) + n

    def source_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-source kept/quarantined counts and malformed fraction.

        The source of a quarantine counter is its category prefix
        (``trace:bad_ipv4`` → ``trace``), matching the ``source=`` tags
        passed to :meth:`keep`.
        """
        quarantined: Dict[str, int] = {}
        for category, count in self.counters.items():
            prefix = category.split(":", 1)[0]
            quarantined[prefix] = quarantined.get(prefix, 0) + count
        stats: Dict[str, Dict[str, float]] = {}
        for source in sorted(set(self.kept) | set(quarantined)):
            kept = self.kept.get(source, 0)
            bad = quarantined.get(source, 0)
            seen = kept + bad
            stats[source] = {
                "kept": kept,
                "quarantined": bad,
                "error_rate": bad / seen if seen else 0.0,
            }
        return stats

    def sources_over_cap(
        self, max_error_rate: float
    ) -> Dict[str, Dict[str, float]]:
        """The subset of :meth:`source_stats` whose rate exceeds the cap."""
        return {
            source: stats
            for source, stats in self.source_stats().items()
            if stats["error_rate"] > max_error_rate
        }

    def quarantine(
        self, source: str, line: int, category: str, detail: str
    ) -> None:
        self.counters[category] = self.counters.get(category, 0) + 1
        if len(self.quarantined) < MAX_QUARANTINE_SAMPLES:
            self.quarantined.append(
                QuarantinedRecord(source, line, category, detail)
            )

    def summary(self) -> str:
        lines = [
            f"ingest of {self.source} ({self.mode}): "
            f"{self.n_ok} records kept, {self.n_quarantined} quarantined "
            f"({self.error_rate:.2%})"
        ]
        for source, stats in self.source_stats().items():
            if stats["quarantined"]:
                lines.append(
                    f"  {source}: {stats['quarantined']} of "
                    f"{stats['kept'] + stats['quarantined']} quarantined "
                    f"({stats['error_rate']:.2%})"
                )
        for category in sorted(self.counters):
            lines.append(f"  {category}: {self.counters[category]}")
        for record in self.quarantined[:5]:
            location = (
                f"{record.source}:{record.line}"
                if record.line
                else record.source
            )
            lines.append(f"    e.g. {location}: {record.detail}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for the run manifest's ingest section."""
        return {
            "source": self.source,
            "mode": self.mode,
            "n_ok": self.n_ok,
            "n_quarantined": self.n_quarantined,
            "error_rate": round(self.error_rate, 6),
            "counters": dict(sorted(self.counters.items())),
            "sources": {
                source: {
                    "kept": stats["kept"],
                    "quarantined": stats["quarantined"],
                    "error_rate": round(stats["error_rate"], 6),
                }
                for source, stats in self.source_stats().items()
            },
            "samples": [
                {
                    "source": record.source,
                    "line": record.line,
                    "category": record.category,
                    "detail": record.detail,
                }
                for record in self.quarantined
            ],
        }


# ---------------------------------------------------------------------- #
# lenient feed/trace loaders
# ---------------------------------------------------------------------- #


def load_trace_lenient(
    path: str,
    report: IngestReport,
    machines: Optional[Interner] = None,
    domains: Optional[Interner] = None,
) -> DayTrace:
    """:meth:`DayTrace.load` that quarantines bad records.

    A ``# day N`` header appearing after edge records (which strict mode
    rejects as ``late_day_header``) is quarantined here and the
    established day kept — it must not silently re-tag earlier records.
    """
    with open(path) as stream:
        reader = TraceReader(
            stream, source=path, on_error=_quarantine_trace_error(report)
        )
        trace = DayTrace.from_reader(reader, machines, domains)
    report.keep(trace.n_records, source="trace")
    return trace


def _quarantine_trace_error(report: IngestReport):
    """An ``on_error`` hook routing reader errors into the report."""

    def on_error(error: FeedFormatError) -> None:
        report.quarantine(
            error.source, error.line, f"trace:{error.category}", error.detail
        )

    return on_error


def load_trace_to_store(
    path: str,
    writer: "EdgeStoreWriter",
    machines: Optional[Interner] = None,
    domains: Optional[Interner] = None,
    *,
    report: Optional[IngestReport] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Tuple[int, int]:
    """Stream a trace TSV into an edge-store *writer* batch by batch.

    The writer is any object with ``add_batch(machine_ids, domain_ids)``,
    ``add_resolutions(domain_ids, ips)``, and ``set_day(day)`` — in
    practice :class:`repro.datasets.edgestore.EdgeStoreWriter`.  Failure
    mode follows the report: no report or ``mode="strict"`` raises on the
    first malformed record; ``mode="lenient"`` quarantines into the
    report.  Returns ``(day, n_records)``.
    """
    on_error = None
    if report is not None and report.mode == "lenient":
        on_error = _quarantine_trace_error(report)
    machines = machines if machines is not None else Interner()
    domains = domains if domains is not None else Interner()
    with open(path) as stream:
        reader = TraceReader(stream, source=path, on_error=on_error)
        for batch in iter_trace_batches(
            reader, machines, domains, batch_size=batch_size
        ):
            writer.add_batch(batch.machine_ids, batch.domain_ids)
            if batch.res_domains.size:
                writer.add_resolutions(batch.res_domains, batch.res_ips)
            if report is not None:
                report.keep(int(batch.machine_ids.size), source="trace")
        writer.set_day(reader.day)
    return reader.day, reader.n_records


def load_blacklist_lenient(
    path: str, report: IngestReport, name: str = "blacklist"
) -> CncBlacklist:
    """Line-by-line :meth:`CncBlacklist.load` that quarantines bad records."""
    blacklist = CncBlacklist(name)
    with open(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            try:
                domain, added_day, family = parse_blacklist_line(
                    line, source=path, lineno=lineno
                )
            except FeedFormatError as error:
                report.quarantine(
                    path, lineno, f"blacklist:{error.category}", error.detail
                )
                continue
            blacklist.add(domain, added_day, family)
            report.keep(source="blacklist")
    return blacklist


def load_whitelist_lenient(
    path: str,
    report: IngestReport,
    psl: Optional[PublicSuffixList] = None,
    name: str = "whitelist",
) -> DomainWhitelist:
    """Line-by-line :meth:`DomainWhitelist.load` that quarantines bad
    records."""
    e2lds: List[str] = []
    with open(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                e2lds.append(
                    parse_whitelist_line(line, source=path, lineno=lineno)
                )
            except FeedFormatError as error:
                report.quarantine(
                    path, lineno, f"whitelist:{error.category}", error.detail
                )
                continue
            report.keep(source="whitelist")
    return DomainWhitelist(e2lds, psl=psl, name=name)


# ---------------------------------------------------------------------- #
# id-range screening for the binary (npz) payloads
# ---------------------------------------------------------------------- #


def _screen_pdns(
    days: np.ndarray,
    domains: np.ndarray,
    ips: np.ndarray,
    n_domains: int,
    observation_day: int,
    strict: bool,
    report: IngestReport,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    bad_id = (domains < 0) | (domains >= n_domains)
    bad_day = (days < 0) | (days > observation_day)
    if strict:
        if bad_id.any():
            offender = int(domains[bad_id][0])
            raise IngestError(
                f"{report.source}/pdns.npz: domain id {offender} outside "
                f"[0, {n_domains}) — the export is torn or ids were remapped"
            )
        if bad_day.any():
            offender = int(days[bad_day][0])
            raise IngestError(
                f"{report.source}/pdns.npz: day {offender} outside "
                f"[0, {observation_day}] for an observation of day "
                f"{observation_day}"
            )
    else:
        n_bad_id = int(bad_id.sum())
        n_bad_day = int(bad_day[~bad_id].sum())
        if n_bad_id:
            report.counters["pdns:id_range"] = (
                report.counters.get("pdns:id_range", 0) + n_bad_id
            )
            if len(report.quarantined) < MAX_QUARANTINE_SAMPLES:
                report.quarantined.append(
                    QuarantinedRecord(
                        f"{report.source}/pdns.npz",
                        0,
                        "pdns:id_range",
                        f"{n_bad_id} rows with domain ids outside "
                        f"[0, {n_domains})",
                    )
                )
        if n_bad_day:
            report.counters["pdns:bad_day"] = (
                report.counters.get("pdns:bad_day", 0) + n_bad_day
            )
    keep = ~(bad_id | bad_day)
    report.keep(int(keep.sum()), source="pdns")
    return days[keep], domains[keep], ips[keep]


def _screen_activity(
    pairs: np.ndarray,
    n_keys: int,
    observation_day: int,
    label: str,
    strict: bool,
    report: IngestReport,
) -> np.ndarray:
    if pairs.size == 0:
        return pairs
    days = pairs[:, 0]
    keys = pairs[:, 1]
    bad_key = (keys < 0) | (keys >= n_keys)
    bad_day = (days < 0) | (days > observation_day)
    if strict:
        if bad_key.any():
            offender = int(keys[bad_key][0])
            raise IngestError(
                f"{report.source}/activity.npz[{label}]: key {offender} "
                f"outside [0, {n_keys}) — the export is torn or ids were "
                f"remapped"
            )
        if bad_day.any():
            offender = int(days[bad_day][0])
            raise IngestError(
                f"{report.source}/activity.npz[{label}]: day {offender} "
                f"outside [0, {observation_day}]"
            )
    else:
        n_bad = int((bad_key | bad_day).sum())
        if n_bad:
            report.counters[f"activity:{label}:id_range"] = (
                report.counters.get(f"activity:{label}:id_range", 0) + n_bad
            )
            if len(report.quarantined) < MAX_QUARANTINE_SAMPLES:
                report.quarantined.append(
                    QuarantinedRecord(
                        f"{report.source}/activity.npz[{label}]",
                        0,
                        f"activity:{label}:id_range",
                        f"{n_bad} rows with keys outside [0, {n_keys}) or "
                        f"days outside [0, {observation_day}]",
                    )
                )
    keep = ~(bad_key | bad_day)
    report.keep(int(keep.sum()), source="activity")
    return pairs[keep]


# ---------------------------------------------------------------------- #
# the checked directory load
# ---------------------------------------------------------------------- #


def load_observation_checked(
    directory: str,
    mode: str = "strict",
    max_error_rate: float = DEFAULT_MAX_ERROR_RATE,
    shards: Optional[int] = None,
    batch_size: Optional[int] = None,
    edgestore_dir: Optional[str] = None,
) -> Tuple[ObservationContext, IngestReport]:
    """Load an observation directory with explicit fault accounting.

    Returns ``(context, report)``.  In ``strict`` mode any malformed record
    raises immediately; in ``lenient`` mode malformed records are
    quarantined into the report, and an :class:`IngestError` is raised only
    when any single source's malformed fraction exceeds *max_error_rate*
    or a structural fault (missing file, torn interner, day mismatch)
    makes the directory unloadable without silent corruption.

    With *shards* set, the trace streams through fixed-size batches into
    a sharded edge store under *edgestore_dir* (default:
    ``<directory>/edgestore``) and the returned context carries a
    memory-mapped :class:`~repro.datasets.edgestore.ShardedDayTrace`
    instead of an in-memory :class:`DayTrace`.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    if not 0 <= max_error_rate < 1:
        raise ValueError(
            f"max_error_rate must be in [0, 1), got {max_error_rate}"
        )
    if shards is not None and shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    with current_tracer().span(
        "segugio_ingest_load_observation", directory=directory, mode=mode
    ):
        return _load_observation_checked(
            directory,
            mode,
            max_error_rate,
            shards=shards,
            batch_size=batch_size,
            edgestore_dir=edgestore_dir,
        )


def _load_observation_checked(
    directory: str,
    mode: str,
    max_error_rate: float,
    shards: Optional[int] = None,
    batch_size: Optional[int] = None,
    edgestore_dir: Optional[str] = None,
) -> Tuple[ObservationContext, IngestReport]:
    strict = mode == "strict"
    report = IngestReport(source=directory, mode=mode)

    missing = [
        name
        for name in store.OBSERVATION_FILES
        if not os.path.exists(os.path.join(directory, name))
    ]
    if missing:
        raise IngestError(
            f"{directory}: missing observation files {missing} — "
            f"the directory is torn or is not a Segugio export"
        )

    meta = store.load_meta(directory)
    day = int(meta["day"])
    n_domains = int(meta["n_domains"])
    n_machines = int(meta["n_machines"])

    # Positional interners: a count mismatch shifts every id, so this
    # aborts in both modes.
    domains = store.load_interner(
        os.path.join(directory, "domains.txt"), n_domains, "domains"
    )
    machines = store.load_interner(
        os.path.join(directory, "machines.txt"), n_machines, "machines"
    )
    report.keep(n_domains + n_machines, source="interner")

    trace_path = os.path.join(directory, "trace.tsv")
    if shards is not None:
        # Streamed, sharded path: records flow through fixed-size batches
        # into a columnar edge store; nothing edge-shaped is materialized
        # in Python.  Function-level import keeps the edgestore module
        # optional for the plain in-memory path.
        from repro.datasets.edgestore import EdgeStoreWriter, ShardedDayTrace

        store_dir = (
            edgestore_dir
            if edgestore_dir is not None
            else os.path.join(directory, "edgestore")
        )
        writer = EdgeStoreWriter(store_dir, n_shards=shards)
        load_trace_to_store(
            trace_path,
            writer,
            machines,
            domains,
            report=report,
            batch_size=batch_size or DEFAULT_BATCH_SIZE,
        )
        writer.finalize(n_machines=len(machines), n_domains=len(domains))
        trace = ShardedDayTrace.open(store_dir, machines, domains)
    elif strict:
        trace = DayTrace.load(trace_path, machines=machines, domains=domains)
        report.keep(trace.n_records, source="trace")
    else:
        trace = load_trace_lenient(
            trace_path, report, machines=machines, domains=domains
        )
    if trace.day != day:
        raise IngestError(
            f"{trace_path}: trace is for day {trace.day} but meta.json "
            f"says day {day} — wrong file in the directory"
        )
    if len(domains) != n_domains or len(machines) != n_machines:
        raise IngestError(
            f"{trace_path}: trace references "
            f"{len(domains) - n_domains} domains / "
            f"{len(machines) - n_machines} machines beyond the positional "
            f"interners — the export is torn"
        )

    blacklist_path = os.path.join(directory, "blacklist.tsv")
    whitelist_path = os.path.join(directory, "whitelist.txt")
    psl = PublicSuffixList()
    psl.add_private_suffixes(meta.get("private_suffixes", []))
    if strict:
        blacklist = CncBlacklist.load(blacklist_path)
        whitelist = DomainWhitelist.load(whitelist_path, psl=psl)
        report.keep(len(blacklist), source="blacklist")
        report.keep(len(whitelist), source="whitelist")
    else:
        blacklist = load_blacklist_lenient(blacklist_path, report)
        whitelist = load_whitelist_lenient(whitelist_path, report, psl=psl)
    e2ld_index = E2ldIndex(domains, psl)

    days, dom, ips = store.load_pdns_arrays(directory)
    days, dom, ips = _screen_pdns(
        days, dom, ips, n_domains, day, strict, report
    )
    pdns = store.build_pdns(days, dom, ips)

    fqd_pairs, e2ld_pairs = store.load_activity_arrays(directory)
    fqd_pairs = _screen_activity(
        fqd_pairs, n_domains, day, "fqd", strict, report
    )
    e2ld_pairs = _screen_activity(
        e2ld_pairs, len(e2ld_index), day, "e2ld", strict, report
    )
    fqd_activity = store.build_activity_index(fqd_pairs)
    e2ld_activity = store.build_activity_index(e2ld_pairs)

    if report.n_quarantined:
        _log.warning(
            "records_quarantined",
            source=directory,
            mode=mode,
            n_ok=report.n_ok,
            n_quarantined=report.n_quarantined,
            error_rate=round(report.error_rate, 6),
            counters=dict(sorted(report.counters.items())),
        )

    over_cap = report.sources_over_cap(max_error_rate)
    if over_cap:
        _log.error(
            "error_rate_cap_exceeded",
            source=directory,
            sources=sorted(over_cap),
            error_rate=round(report.error_rate, 6),
            max_error_rate=max_error_rate,
        )
        worst = "; ".join(
            f"{source} {stats['quarantined']} of "
            f"{stats['kept'] + stats['quarantined']} malformed "
            f"({stats['error_rate']:.2%})"
            for source, stats in over_cap.items()
        )
        raise IngestError(
            f"{directory}: {worst}, above the {max_error_rate:.2%} "
            f"per-source cap — refusing to train on a gutted observation; "
            f"breakdown: {dict(sorted(report.counters.items()))}"
        )

    context = ObservationContext(
        day=day,
        trace=trace,
        fqd_activity=fqd_activity,
        e2ld_activity=e2ld_activity,
        e2ld_index=e2ld_index,
        pdns=pdns,
        blacklist=blacklist,
        whitelist=whitelist,
    )
    return context, report


def observation_days(
    directories: Sequence[str],
    *,
    after: Optional[int] = None,
    store_root: Optional[str] = None,
    **load_args: object,
) -> Iterator[Tuple[ObservationContext, IngestReport]]:
    """Exported observation directories as a lazy day source.

    Every ``meta.json`` is read first — the directories must come in
    increasing day order — then each is loaded as the consumer asks for it
    (*load_args* go to :func:`load_observation_checked`), except a day at or
    before *after*, the last day of a resumed ledger, which is skipped
    without opening its trace.  A sharded day's edge store goes under
    *store_root*, never inside the observation directory.
    """
    from repro.datasets.edgestore import day_store_dir

    days = [int(store.load_meta(directory)["day"]) for directory in directories]
    for index in range(1, len(days)):
        if days[index] <= days[index - 1]:
            raise IngestError(
                f"{directories[index]}: day {days[index]} does not come after "
                f"day {days[index - 1]} of {directories[index - 1]} — "
                f"observation directories must be given in increasing day order"
            )
    for directory, day in zip(directories, days):
        if after is None or day > after:
            yield load_observation_checked(
                directory,
                edgestore_dir=store_root and day_store_dir(store_root, day),
                **load_args,
            )
