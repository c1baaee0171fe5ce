"""One day of observed DNS traffic: the *who-queried-what* edge list.

A :class:`DayTrace` is the raw material for the machine-domain behavior
graph (paper §II-A1).  It stores, for one observation window (one day):

* the set of (machine, domain) query edges, deduplicated, as parallel NumPy
  id arrays, and
* the set of IPv4 addresses each queried domain resolved to during the day.

Machine and domain names are interned through shared :class:`Interner`
instances so that traces from different days of the same network live in a
common id space, which is what lets the activity index and passive-DNS
database reference domains across days without string comparisons.
"""

from __future__ import annotations

import io
from contextlib import nullcontext
from itertools import chain, islice, repeat
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    TextIO,
    Tuple,
    Union,
)

import numpy as np

from repro.dns.records import AResponse, format_ipv4, parse_ipv4
from repro.utils.arrays import sorted_unique
from repro.utils.errors import FeedFormatError
from repro.utils.ids import Interner


def parse_trace_line(
    line: str, *, source: str = "trace", lineno: int = 0
) -> Tuple[str, str, List[int]]:
    """Parse one ``machine\\tdomain\\tip1,ip2`` record, or raise a located error.

    Every malformed shape — wrong column count, empty machine/domain field,
    invalid IPv4 — raises :class:`FeedFormatError` carrying *source* and the
    1-based *lineno*, so a truncated ``trace.tsv`` names the exact record at
    fault instead of surfacing as a bare unpack/int error.
    """
    parts = line.split("\t")
    if len(parts) != 3:
        raise FeedFormatError(
            f"expected 3 tab-separated fields "
            f"(machine, domain, ips), got {len(parts)}",
            source=source,
            line=lineno,
            category="bad_columns",
        )
    machine, domain, ips_text = parts
    if not machine or not domain:
        raise FeedFormatError(
            "machine and domain fields must be non-empty",
            source=source,
            line=lineno,
            category="empty_field",
        )
    ips: List[int] = []
    if ips_text:
        for token in ips_text.split(","):
            try:
                ips.append(parse_ipv4(token))
            except ValueError:
                raise FeedFormatError(
                    f"invalid IPv4 address {token!r}",
                    source=source,
                    line=lineno,
                    category="bad_ipv4",
                ) from None
    return machine, domain, ips


#: default number of lines per parsed block and of records per batch —
#: small enough that one block of strings is a few MB next to the edge
#: store, large enough to amortize the per-block numpy/IO overhead
DEFAULT_BATCH_SIZE = 65536


class TraceBatch(NamedTuple):
    """A fixed-size chunk of interned trace records.

    ``machine_ids``/``domain_ids`` are parallel edge arrays, one row per
    record; the resolution observations are flattened into parallel
    ``res_domains``/``res_ips`` arrays, one row per IP of each distinct
    (domain, IP field) pair of a parsed block, so a batch is four dense
    numpy arrays regardless of how many IPs each record carried.
    """

    machine_ids: np.ndarray
    domain_ids: np.ndarray
    res_domains: np.ndarray
    res_ips: np.ndarray


class TraceReader:
    """Block-at-a-time parser over a trace TSV stream.

    A block of lines is *clean* when every line, line end stripped, is a
    record with exactly two tabs, no leading ``#``, a non-empty machine
    and domain, and an IP field whose every token :func:`parse_ipv4`
    accepts; such a block is split into its three columns at once.  The
    leading ``#``/blank lines of a block, and every line of a block that
    is not clean, go one at a time through :func:`parse_trace_line` and
    the day-header state machine below, which alone decide what is a
    fault: the established day is exposed as :attr:`day`, and a
    ``# day N`` header may only *change* it before the first edge record
    (afterwards it raises ``category="late_day_header"`` instead of
    silently re-tagging the records already read).

    *on_error* selects the failure mode: ``None`` (strict) re-raises
    each :class:`FeedFormatError`; a callable (lenient) receives the
    error and the offending line is skipped, keeping the established
    day.  Parsed IP fields are memoised for the life of the reader, that
    is per file: a day holds far fewer distinct fields than records.
    """

    def __init__(
        self,
        stream: Iterable[str],
        *,
        source: str = "trace",
        on_error: Optional[Callable[[FeedFormatError], None]] = None,
    ) -> None:
        self.stream = stream
        self.source = source
        self.on_error = on_error
        self.day = 0
        self.n_lines = 0
        self.n_records = 0
        self._ip_fields: Dict[str, Tuple[int, ...]] = {"": ()}

    def parse_block(
        self, lines: List[str], machines: Interner, domains: Interner
    ) -> TraceBatch:
        """Parse the stream's next *lines* and intern their records.

        A strict fault is raised only after the records that precede it
        are interned, which is where a per-record loader would have left
        the interners.
        """
        lineno = self.n_lines + 1
        self.n_lines += len(lines)
        lead = 0  # a guess that keeps a file's header out of its first block
        while lead < len(lines) and lines[lead][:1] in "#\r\n":
            lead += 1
        slow, flat = lines[:lead], self._clean_columns(lines[lead:])
        if flat is None:
            slow, flat = lines, []
        kept: List[str] = []
        try:
            for record in self._record_lines(slow, lineno):
                kept.append(record)
        except FeedFormatError:
            self._intern(self._columns(kept), machines, domains)
            raise
        self.n_records += len(flat) // 3
        return self._intern(self._columns(kept) + flat, machines, domains)

    def _clean_columns(self, lines: List[str]) -> Optional[List[str]]:
        """*lines* as one flat ``[machine, domain, ip field, ...]`` list,
        three per record, or ``None`` if the block is not clean."""
        body = list(map(str.rstrip, lines, repeat("\r\n")))
        if not body:
            return body
        if set(map(str.count, body, repeat("\t"))) != {2} or any(
            map(str.startswith, body, repeat("#"))
        ):
            return None
        flat = "\t".join(body).split("\t")
        if "" in flat[0::3] or "" in flat[1::3]:
            return None
        try:
            self._learn_ip_fields(flat[2::3])
        except ValueError:
            return None
        return flat

    def _record_lines(self, lines: List[str], lineno: int) -> Iterator[str]:
        """The per-line path: *lines* minus blanks, headers and faults."""
        for lineno, line in enumerate(lines, start=lineno):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) == 2 and parts[0] == "day":
                        self._apply_day_header(parts[1], lineno)
                    continue
                parse_trace_line(line, source=self.source, lineno=lineno)
            except FeedFormatError as error:
                if self.on_error is None:
                    raise
                self.on_error(error)
                continue
            self.n_records += 1
            yield line

    def _columns(self, records: List[str]) -> List[str]:
        """Record lines the per-line path accepted, as flat columns."""
        flat = "\t".join(records).split("\t") if records else []
        self._learn_ip_fields(flat[2::3])
        return flat

    def _learn_ip_fields(self, fields: List[str]) -> None:
        known = self._ip_fields
        for field in set(fields).difference(known):
            known[field] = tuple(map(parse_ipv4, field.split(",")))

    def _intern(
        self, flat: List[str], machines: Interner, domains: Interner
    ) -> TraceBatch:
        machine_ids = machines.intern_many(flat[0::3])
        domain_ids = domains.intern_many(flat[1::3])
        pairs = list(dict.fromkeys(zip(domain_ids.tolist(), flat[2::3])))
        ips = [self._ip_fields[field] for _, field in pairs]
        return TraceBatch(
            machine_ids,
            domain_ids,
            np.repeat(
                np.array([did for did, _ in pairs], dtype=np.int64),
                np.array(list(map(len, ips)), dtype=np.int64),
            ),
            np.array(list(chain.from_iterable(ips)), dtype=np.uint32),
        )

    def _apply_day_header(self, token: str, lineno: int) -> None:
        def fault(detail: str, category: str) -> FeedFormatError:
            return FeedFormatError(
                detail, source=self.source, line=lineno, category=category
            )

        try:
            candidate = int(token)
        except ValueError:
            raise fault(
                f"non-numeric day header {token!r}", "bad_day"
            ) from None
        if candidate < 0:
            raise fault(
                f"day header must be non-negative, got {candidate}", "bad_day"
            )
        if self.n_records and candidate != self.day:
            raise fault(
                f"day header {candidate} after {self.n_records} record(s) "
                f"already read under day {self.day} — a mid-file header "
                f"cannot re-tag earlier records",
                "late_day_header",
            )
        self.day = candidate


def iter_trace_batches(
    reader: TraceReader,
    machines: Interner,
    domains: Interner,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Iterator[TraceBatch]:
    """Parse a reader's stream and yield batches of *batch_size* records.

    At most *batch_size* lines are resident as strings at a time — a
    block that held blanks, headers or quarantined lines is topped up by
    a shorter read, so every batch but the last is exactly full — which
    is what lets a paper-scale day flow into the edge store without ever
    materializing its edge list in Python.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    stream = iter(reader.stream)
    chunks: List[TraceBatch] = []
    n_pending = 0
    while lines := list(islice(stream, batch_size - n_pending)):
        batch = reader.parse_block(lines, machines, domains)
        if batch.machine_ids.size:
            chunks.append(batch)
            n_pending += batch.machine_ids.size
        if n_pending == batch_size:
            yield _merge_batches(chunks)
            chunks, n_pending = [], 0
    if chunks:
        yield _merge_batches(chunks)


def _merge_batches(chunks: List[TraceBatch]) -> TraceBatch:
    if len(chunks) == 1:
        return chunks[0]
    return TraceBatch(*map(np.concatenate, zip(*chunks)))


def _pack_resolutions(
    domain_ids: np.ndarray, ips: np.ndarray
) -> Dict[int, np.ndarray]:
    """Per-domain sorted unique uint32 IPs from flattened observation rows."""
    if not domain_ids.size:
        return {}
    keys = sorted_unique(
        (domain_ids.astype(np.uint64) << np.uint64(32)) | ips.astype(np.uint64)
    )
    dids = (keys >> np.uint64(32)).astype(np.int64)
    packed = (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    bounds = [0, *(np.flatnonzero(np.diff(dids)) + 1).tolist(), dids.size]
    return {
        did: packed[lo:hi]
        for did, lo, hi in zip(dids[bounds[:-1]].tolist(), bounds, bounds[1:])
    }


class DayTrace:
    """Deduplicated machine-domain query edges plus per-domain resolutions."""

    def __init__(
        self,
        day: int,
        machines: Interner,
        domains: Interner,
        edge_machines: np.ndarray,
        edge_domains: np.ndarray,
        resolutions: Dict[int, np.ndarray],
        n_records: Optional[int] = None,
    ) -> None:
        if edge_machines.shape != edge_domains.shape:
            raise ValueError("edge arrays must be parallel")
        self.day = int(day)
        self.machines = machines
        self.domains = domains
        self.edge_machines = np.asarray(edge_machines, dtype=np.int64)
        self.edge_domains = np.asarray(edge_domains, dtype=np.int64)
        self.resolutions = resolutions
        #: records the edges were deduplicated from (what ingest accounts)
        self.n_records = self.n_edges if n_records is None else int(n_records)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        day: int,
        machines: Interner,
        domains: Interner,
        edge_machines: Union[np.ndarray, Iterable[int]],
        edge_domains: Union[np.ndarray, Iterable[int]],
        resolutions: Optional[Dict[int, np.ndarray]] = None,
    ) -> "DayTrace":
        """Build a trace from possibly-duplicated edge id arrays."""
        em, ed = _as_id_arrays(edge_machines, edge_domains)
        n_records = int(em.size)
        em, ed = _dedupe_edges(em, ed)
        return cls(day, machines, domains, em, ed, resolutions or {}, n_records)

    @classmethod
    def from_responses(
        cls,
        day: int,
        responses: Iterable[AResponse],
        machines: Optional[Interner] = None,
        domains: Optional[Interner] = None,
    ) -> "DayTrace":
        """Aggregate raw A responses into a deduplicated day trace."""
        builder = DayTraceBuilder(day, machines, domains)
        return builder.add_responses(responses).build()

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def n_edges(self) -> int:
        return int(self.edge_machines.shape[0])

    def unique_machine_ids(self) -> np.ndarray:
        return sorted_unique(self.edge_machines)

    def unique_domain_ids(self) -> np.ndarray:
        return sorted_unique(self.edge_domains)

    def resolved_ips(self, domain_id: int) -> np.ndarray:
        """IPs the domain resolved to this day (empty array if none seen)."""
        ips = self.resolutions.get(domain_id)
        if ips is None:
            return np.empty(0, dtype=np.uint32)
        return ips

    # ------------------------------------------------------------------ #
    # serialization (TSV: machine, domain, comma-joined IPs)
    # ------------------------------------------------------------------ #

    def save(self, stream_or_path: Union[str, TextIO]) -> None:
        """Write the trace as TSV lines ``machine\\tdomain\\tip1,ip2``."""
        # each domain's IP field is formatted once, not once per edge
        ip_fields = {
            did: ",".join(map(format_ipv4, ips.tolist()))
            for did, ips in self.resolutions.items()
        }
        with _opened(stream_or_path, "w") as stream:
            stream.write(f"# day {self.day}\n")
            for lo in range(0, self.n_edges, DEFAULT_BATCH_SIZE):
                dids = self.edge_domains[lo : lo + DEFAULT_BATCH_SIZE].tolist()
                columns = zip(
                    self.machines.names(
                        self.edge_machines[lo : lo + DEFAULT_BATCH_SIZE].tolist()
                    ),
                    self.domains.names(dids),
                    map(ip_fields.get, dids, repeat("")),
                )
                stream.write("\n".join(map("\t".join, columns)) + "\n")

    @classmethod
    def load(
        cls,
        stream_or_path: Union[str, TextIO],
        machines: Optional[Interner] = None,
        domains: Optional[Interner] = None,
    ) -> "DayTrace":
        """Read a trace previously written by :meth:`save`.

        Malformed records — wrong column counts, non-numeric day headers,
        day headers appearing after edge records, invalid IPv4 strings —
        raise :class:`FeedFormatError` naming the file and 1-based line
        number of the offending record.
        """
        with _opened(stream_or_path, "r") as stream:
            # an opened file's name is the path it was opened by
            source = getattr(stream, "name", "<trace stream>")
            return cls.from_reader(
                TraceReader(stream, source=source), machines, domains
            )

    @classmethod
    def from_reader(
        cls,
        reader: TraceReader,
        machines: Optional[Interner] = None,
        domains: Optional[Interner] = None,
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> "DayTrace":
        """Drain *reader* — strict or lenient, as it was built — into a
        trace.  Only one block of lines is ever resident as strings; the
        batches it becomes are a few numpy arrays each."""
        machines = machines if machines is not None else Interner()
        domains = domains if domains is not None else Interner()
        batches = list(
            iter_trace_batches(reader, machines, domains, batch_size=batch_size)
        )
        if not batches:
            return cls.build(reader.day, machines, domains, [], [])
        em, ed, res_domains, res_ips = _merge_batches(batches)
        return cls.build(
            reader.day,
            machines,
            domains,
            em,
            ed,
            _pack_resolutions(res_domains, res_ips),
        )

    def to_tsv(self) -> str:
        buffer = io.StringIO()
        self.save(buffer)
        return buffer.getvalue()

    def __repr__(self) -> str:
        return (
            f"DayTrace(day={self.day}, edges={self.n_edges}, "
            f"machines={len(self.unique_machine_ids())}, "
            f"domains={len(self.unique_domain_ids())})"
        )


class DayTraceBuilder:
    """Incremental construction of a day trace from collector chunks.

    Real collectors emit traffic in chunks (hourly files, streaming
    batches); the builder accumulates edges and resolutions across any
    number of :meth:`add_edges` / :meth:`add_responses` calls and
    deduplicates once at :meth:`build` time.  Interners may be shared with
    other days, exactly like :meth:`DayTrace.build`.
    """

    def __init__(
        self,
        day: int,
        machines: Optional[Interner] = None,
        domains: Optional[Interner] = None,
    ) -> None:
        self.day = int(day)
        self.machines = machines if machines is not None else Interner()
        self.domains = domains if domains is not None else Interner()
        self._machine_chunks: list = []
        self._domain_chunks: list = []
        self._resolved: Dict[int, set] = {}
        self._built = False

    def add_edges(
        self,
        edge_machines: Union[np.ndarray, Iterable[int]],
        edge_domains: Union[np.ndarray, Iterable[int]],
    ) -> "DayTraceBuilder":
        """Append a chunk of (machine id, domain id) pairs."""
        self._check_open()
        em, ed = _as_id_arrays(edge_machines, edge_domains)
        self._machine_chunks.append(em)
        self._domain_chunks.append(ed)
        return self

    def add_responses(self, responses: Iterable[AResponse]) -> "DayTraceBuilder":
        """Append a chunk of raw A responses (names interned here)."""
        self._check_open()
        em, ed = [], []
        for response in responses:
            if response.day != self.day:
                raise ValueError(
                    f"response for day {response.day} fed to builder of day "
                    f"{self.day}"
                )
            mid = self.machines.intern(response.machine)
            did = self.domains.intern(response.domain)
            em.append(mid)
            ed.append(did)
            self._resolved.setdefault(did, set()).update(response.ips)
        if em:
            self.add_edges(em, ed)
        return self

    def add_resolution(self, domain_id: int, ips: Iterable[int]) -> "DayTraceBuilder":
        """Record resolved IPs for a domain id (unioned across chunks)."""
        self._check_open()
        self._resolved.setdefault(int(domain_id), set()).update(
            int(ip) for ip in ips
        )
        return self

    @property
    def n_pending_edges(self) -> int:
        return int(sum(chunk.size for chunk in self._machine_chunks))

    def build(self) -> DayTrace:
        """Deduplicate everything accumulated and seal the builder."""
        self._check_open()
        self._built = True
        if self._machine_chunks:
            em = np.concatenate(self._machine_chunks)
            ed = np.concatenate(self._domain_chunks)
        else:
            em = np.empty(0, dtype=np.int64)
            ed = np.empty(0, dtype=np.int64)
        resolutions = {
            did: np.array(sorted(ips), dtype=np.uint32)
            for did, ips in self._resolved.items()
        }
        return DayTrace.build(
            self.day, self.machines, self.domains, em, ed, resolutions
        )

    def _check_open(self) -> None:
        if self._built:
            raise RuntimeError("builder already built; create a new one")


def _opened(stream_or_path: Union[str, TextIO], mode: str):
    """Open a path (closed on exit) or pass an open stream through."""
    if isinstance(stream_or_path, str):
        return open(stream_or_path, mode)
    return nullcontext(stream_or_path)


def _as_id_arrays(
    edge_machines: Union[np.ndarray, Iterable[int]],
    edge_domains: Union[np.ndarray, Iterable[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    em, ed = (
        np.asarray(
            ids if isinstance(ids, np.ndarray) else list(ids), dtype=np.int64
        )
        for ids in (edge_machines, edge_domains)
    )
    if em.shape != ed.shape:
        raise ValueError("edge arrays must be parallel")
    return em, ed


def _dedupe_edges(
    edge_machines: np.ndarray, edge_domains: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate parallel (machine, domain) arrays, preserving pairs."""
    if edge_machines.size == 0:
        return edge_machines, edge_domains
    # Pack each pair into one int64 key; ids are dense and far below 2**31.
    max_domain = int(edge_domains.max()) + 1
    keys = edge_machines * max_domain + edge_domains
    if not (keys[1:] > keys[:-1]).all():  # a saved trace is already sorted
        keys = sorted_unique(keys)
    return keys // max_domain, keys % max_domain
