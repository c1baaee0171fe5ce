"""Differential tests: the block parser against a literal per-line loader.

``ReferenceReader`` and the two ``reference_*`` loaders below are the
per-record loops every trace loader ran before the block parser, kept
here verbatim as the oracle (only :func:`parse_trace_line`, the retained
per-line authority, is shared with the code under test).  Generated
traces mix clean records with every fault shape the loaders know; each
is loaded at several block sizes and must give the reference's outcome
exactly — arrays and dtypes, interner order, exception fields and
interner contents at the raise, quarantine accounting, edge-store bytes.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.edgestore import EdgeStoreWriter
from repro.dns.trace import DayTrace, TraceReader, parse_trace_line
from repro.runtime.ingest import (
    IngestReport,
    load_trace_lenient,
    load_trace_to_store,
)
from repro.utils.errors import FeedFormatError
from repro.utils.ids import Interner

BATCH_SIZES = (1, 7, 64, 65536)
SOURCE = "fuzz.tsv"

# ---------------------------------------------------------------------- #
# the per-line reference
# ---------------------------------------------------------------------- #


class ReferenceReader:
    """One record at a time: header state machine, then the line parser."""

    def __init__(self, stream, source, on_error=None):
        self.stream = stream
        self.source = source
        self.on_error = on_error
        self.day = 0
        self.n_records = 0

    def __iter__(self):
        for lineno, line in enumerate(self.stream, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "day":
                    try:
                        self._apply_day_header(parts[1], lineno)
                    except FeedFormatError as error:
                        if self.on_error is None:
                            raise
                        self.on_error(error)
                continue
            try:
                record = parse_trace_line(
                    line, source=self.source, lineno=lineno
                )
            except FeedFormatError as error:
                if self.on_error is None:
                    raise
                self.on_error(error)
                continue
            self.n_records += 1
            yield record

    def _apply_day_header(self, token, lineno):
        def fault(detail, category):
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


def reference_trace(stream, machines, domains, on_error=None):
    reader = ReferenceReader(stream, SOURCE, on_error)
    edge_m, edge_d = [], []
    resolutions = {}
    for machine, domain, ips in reader:
        mid = machines.intern(machine)
        did = domains.intern(domain)
        edge_m.append(mid)
        edge_d.append(did)
        if ips:
            resolutions.setdefault(did, set()).update(ips)
    packed = {
        did: np.array(sorted(ips), dtype=np.uint32)
        for did, ips in resolutions.items()
    }
    trace = DayTrace.build(
        reader.day, machines, domains, edge_m, edge_d, packed
    )
    assert trace.n_records == reader.n_records
    return trace


def reference_to_store(path, writer, machines, domains, *, report, batch_size):
    on_error = quarantine_into(report) if report.mode == "lenient" else None
    mids, dids, res_d, res_i = [], [], [], []

    def flush():
        writer.add_batch(
            np.asarray(mids, dtype=np.int64), np.asarray(dids, dtype=np.int64)
        )
        if res_d:
            writer.add_resolutions(
                np.asarray(res_d, dtype=np.int64),
                np.asarray(res_i, dtype=np.uint32),
            )
        report.keep(len(mids), source="trace")
        for column in (mids, dids, res_d, res_i):
            column.clear()

    with open(path) as stream:
        reader = ReferenceReader(stream, path, on_error)
        for machine, domain, ips in reader:
            mids.append(machines.intern(machine))
            dids.append(domains.intern(domain))
            for ip in ips:
                res_d.append(dids[-1])
                res_i.append(ip)
            if len(mids) >= batch_size:
                flush()
        if mids:
            flush()
        writer.set_day(reader.day)
    return reader.day, reader.n_records


def quarantine_into(report):
    def on_error(error):
        report.quarantine(
            error.source, error.line, f"trace:{error.category}", error.detail
        )

    return on_error


# ---------------------------------------------------------------------- #
# generated traces
# ---------------------------------------------------------------------- #

MACHINES = ["m0", "m1", "m2", "m-new", "m é"]
DOMAINS = ["a.example", "b.example", "c.example", "new.example", "d e.example"]
IPS = ["10.0.0.1", "10.0.0.2", "192.168.7.9", " 10.0.0.3", "010.0.0.4"]
FAULTS = [
    "m0\ta.example",  # two columns
    "m0\ta.example\t10.0.0.1\textra",  # four columns
    "just text",
    "\ta.example\t10.0.0.1",  # empty machine
    "m0\t\t10.0.0.1",  # empty domain
    "m0\ta.example\t10.0.0.999",
    "m0\ta.example\t10.0.0.1,,10.0.0.2",
    "m0\ta.example\t1_0.0.0.1",
    "m1\tb.example\t10.0.0.1,+1.2.3.4",
    "",  # blank
    "   ",  # whitespace is not blank: a one-column record
    "\r",
    "\rm0\ta.example\t",  # a record whose machine starts with \r
    "# day 3",
    "# day 3",
    "# day 9",
    "# day x",
    "# day -1",
    "# a comment",
    "#a\tb\tc",  # a comment with two tabs
    "#m0\ta.example\t10.0.0.1",  # a commented-out record
]

records = st.builds(
    lambda machine, domain, ips: f"{machine}\t{domain}\t{','.join(ips)}",
    st.sampled_from(MACHINES),
    st.sampled_from(DOMAINS),
    st.lists(st.sampled_from(IPS), max_size=3),
)
line_ends = st.sampled_from(["\n", "\n", "\n", "\r\n"])


#: runs of clean records (long enough to fill whole blocks at the small
#: block sizes) with single faults between them
runs = st.integers(1, 30).flatmap(
    lambda n: st.lists(records, min_size=n, max_size=n)
)
segments = st.one_of(runs, st.sampled_from(FAULTS).map(lambda fault: [fault]))


@st.composite
def trace_texts(draw):
    header = draw(st.sampled_from([[], ["# day 3"], ["", "# day 2", "# day 3"]]))
    body = draw(st.lists(runs if draw(st.booleans()) else segments, max_size=8))
    lines = header + [line for segment in body for line in segment]
    text = "".join(line + draw(line_ends) for line in lines)
    if draw(st.booleans()):  # no final newline
        text = text.rstrip("\r\n")
    return text


interner_seeds = st.sampled_from([(), ("m1", "m0"), tuple(MACHINES)]).flatmap(
    lambda machines: st.sampled_from(
        [(), ("c.example", "a.example"), tuple(DOMAINS)]
    ).map(lambda domains: (machines, domains))
)


def interners(seeds):
    return Interner(seeds[0]), Interner(seeds[1])


def error_fields(error):
    return (error.category, error.line, error.source, error.detail)


def assert_same_trace(trace, expected):
    assert trace.day == expected.day
    assert trace.n_records == expected.n_records
    for got, want in (
        (trace.edge_machines, expected.edge_machines),
        (trace.edge_domains, expected.edge_domains),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert trace.resolutions.keys() == expected.resolutions.keys()
    for did, want in expected.resolutions.items():
        assert trace.resolutions[did].dtype == want.dtype
        np.testing.assert_array_equal(trace.resolutions[did], want)


def assert_same_names(got, want):
    assert [list(interner) for interner in got] == [
        list(interner) for interner in want
    ]


def tree_bytes(directory):
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as stream:
            contents[name] = stream.read()
    return contents


# ---------------------------------------------------------------------- #
# the differential properties
# ---------------------------------------------------------------------- #


@given(text=trace_texts(), seeds=interner_seeds)
def test_strict_load_matches_reference(text, seeds):
    want_names = interners(seeds)
    want = want_error = None
    try:
        want = reference_trace(io.StringIO(text), *want_names)
    except FeedFormatError as error:
        want_error = error_fields(error)
    for batch_size in BATCH_SIZES:
        names = interners(seeds)
        reader = TraceReader(io.StringIO(text), source=SOURCE)
        try:
            trace = DayTrace.from_reader(reader, *names, batch_size=batch_size)
        except FeedFormatError as error:
            assert error_fields(error) == want_error
        else:
            assert want_error is None
            assert_same_trace(trace, want)
        assert_same_names(names, want_names)


@given(text=trace_texts(), seeds=interner_seeds)
def test_lenient_load_matches_reference(text, seeds):
    want_names = interners(seeds)
    want_report = IngestReport(source=SOURCE, mode="lenient")
    want = reference_trace(
        io.StringIO(text), *want_names, on_error=quarantine_into(want_report)
    )
    for batch_size in BATCH_SIZES:
        names = interners(seeds)
        report = IngestReport(source=SOURCE, mode="lenient")
        reader = TraceReader(
            io.StringIO(text), source=SOURCE, on_error=quarantine_into(report)
        )
        trace = DayTrace.from_reader(reader, *names, batch_size=batch_size)
        assert_same_trace(trace, want)
        assert_same_names(names, want_names)
        assert report.counters == want_report.counters
        assert report.quarantined == want_report.quarantined


@settings(max_examples=40, deadline=None)
@given(
    text=trace_texts(),
    seeds=interner_seeds,
    mode=st.sampled_from(["strict", "lenient"]),
    n_shards=st.sampled_from([1, 3]),
)
def test_edge_store_load_matches_reference(text, seeds, mode, n_shards):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "trace.tsv")
        with open(path, "w", newline="") as stream:
            stream.write(text)

        def run(loader, name, batch_size):
            names = interners(seeds)
            report = IngestReport(source=scratch, mode=mode)
            store_dir = os.path.join(scratch, name)
            writer = EdgeStoreWriter(store_dir, n_shards=n_shards)
            try:
                counts = loader(
                    path, writer, *names,
                    report=report, batch_size=batch_size,
                )
            except FeedFormatError as error:
                return error_fields(error), names
            writer.finalize()
            return (counts, report, tree_bytes(store_dir)), names

        for batch_size in BATCH_SIZES:
            want, want_names = run(
                reference_to_store, f"want-{batch_size}", batch_size
            )
            got, names = run(load_trace_to_store, f"got-{batch_size}", batch_size)
            assert got == want
            assert_same_names(names, want_names)


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_at_each_position(fault):
    clean = [f"m{i % 4}\t{DOMAINS[i % 5]}\t{IPS[i % 3]}" for i in range(9)]
    for position in (0, 1, 5, 9):
        lines = ["# day 3"] + clean[:position] + [fault] + clean[position:]
        text = "\n".join(lines) + "\n"
        want_names = Interner(), Interner()
        want_report = IngestReport(source=SOURCE, mode="lenient")
        want = reference_trace(
            io.StringIO(text), *want_names, on_error=quarantine_into(want_report)
        )
        strict_names = Interner(), Interner()
        with pytest.raises(FeedFormatError) if want_report.counters else (
            contextlib.nullcontext()
        ) as raised:
            reference_trace(io.StringIO(text), *strict_names)
        for batch_size in BATCH_SIZES:
            names = Interner(), Interner()
            report = IngestReport(source=SOURCE, mode="lenient")
            reader = TraceReader(
                io.StringIO(text), source=SOURCE, on_error=quarantine_into(report)
            )
            assert_same_trace(
                DayTrace.from_reader(reader, *names, batch_size=batch_size), want
            )
            assert_same_names(names, want_names)
            assert report == want_report
            names = Interner(), Interner()
            reader = TraceReader(io.StringIO(text), source=SOURCE)
            if raised is None:
                DayTrace.from_reader(reader, *names, batch_size=batch_size)
            else:
                with pytest.raises(FeedFormatError) as caught:
                    DayTrace.from_reader(reader, *names, batch_size=batch_size)
                assert error_fields(caught.value) == error_fields(raised.value)
            assert_same_names(names, strict_names)


def test_lenient_file_load_accounts_like_reference(tmp_path):
    text = "# day 4\nm0\ta.example\t10.0.0.1\nbad\nm0\ta.example\t\n# day 5\n"
    path = tmp_path / "trace.tsv"
    path.write_text(text)
    want_report = IngestReport(source=str(tmp_path), mode="lenient")
    want = reference_trace(
        io.StringIO(text),
        Interner(),
        Interner(),
        on_error=quarantine_into(want_report),
    )
    report = IngestReport(source=str(tmp_path), mode="lenient")
    trace = load_trace_lenient(str(path), report)
    assert_same_trace(trace, want)
    assert report.kept == {"trace": 2}
    assert report.counters == want_report.counters == {
        "trace:bad_columns": 1,
        "trace:late_day_header": 1,
    }
    assert [record.line for record in report.quarantined] == [3, 5]


# ---------------------------------------------------------------------- #
# fixed cases
# ---------------------------------------------------------------------- #


class TestSavedTrace:
    """What ``DayTrace.save`` wrote loads the same at any block size
    (folded from the former ``load`` vs ``load_streaming`` tests)."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_block_size_does_not_change_the_trace(self, batch_size):
        machines = Interner(f"h{i}" for i in range(23))
        domains = Interner(f"d{i}.example" for i in range(31))
        saved = DayTrace.build(
            6,
            machines,
            domains,
            [(i * 7) % 23 for i in range(300)],
            [(i * 11) % 31 for i in range(300)],
            {
                3: np.array([16909060, 16909061], dtype=np.uint32),
                8: np.array([167772161], dtype=np.uint32),
            },
        )
        tsv = saved.to_tsv()
        loaded = DayTrace.from_reader(
            TraceReader(io.StringIO(tsv)), batch_size=batch_size
        )
        assert_same_trace(loaded, DayTrace.load(io.StringIO(tsv)))
        assert_same_trace(
            loaded, reference_trace(io.StringIO(tsv), Interner(), Interner())
        )


class TestBlocks:
    def test_every_batch_but_the_last_is_full(self):
        from repro.dns.trace import iter_trace_batches

        lines = ["# day 1", ""] + [f"m{i}\td{i % 3}\t" for i in range(10)]
        lines[5:5] = ["", "# day 1", "   "]
        report = IngestReport(source=SOURCE, mode="lenient")
        reader = TraceReader(
            io.StringIO("\n".join(lines)), on_error=quarantine_into(report)
        )
        sizes = [
            batch.machine_ids.size
            for batch in iter_trace_batches(
                reader, Interner(), Interner(), batch_size=4
            )
        ]
        assert sizes == [4, 4, 2]
        assert reader.n_records == 10 and reader.day == 1
        assert report.counters == {"trace:bad_columns": 1}

    def test_ip_fields_are_parsed_once_per_distinct_field(self, monkeypatch):
        from repro.dns import trace as trace_module

        calls = []

        def counting(token):
            calls.append(token)
            return real(token)

        real = trace_module.parse_ipv4
        monkeypatch.setattr(trace_module, "parse_ipv4", counting)
        text = "".join(
            f"m{i}\td{i % 2}\t10.0.0.{i % 2},10.0.1.{i % 2}\n" for i in range(50)
        )
        DayTrace.from_reader(TraceReader(io.StringIO(text)), batch_size=8)
        assert sorted(calls) == ["10.0.0.0", "10.0.0.1", "10.0.1.0", "10.0.1.1"]


class TestCrlf:
    """CRLF line ends are stripped once, whatever follows the last tab."""

    TEXT = "# day 2\r\nm1\ta.com\t1.2.3.4\r\nm1\tb.com\t\r\n"

    def _check(self, trace):
        assert trace.day == 2 and trace.n_edges == 2
        assert list(trace.domains) == ["a.com", "b.com"]
        assert trace.resolved_ips(0).tolist() == [16909060]
        assert trace.resolved_ips(1).size == 0

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_strict(self, batch_size):
        self._check(DayTrace.load(io.StringIO(self.TEXT)))
        self._check(
            DayTrace.from_reader(
                TraceReader(io.StringIO(self.TEXT)), batch_size=batch_size
            )
        )

    def test_lenient(self, tmp_path):
        path = tmp_path / "trace.tsv"
        path.write_bytes(self.TEXT.encode())
        report = IngestReport(source=str(tmp_path), mode="lenient")
        self._check(load_trace_lenient(str(path), report))
        assert report.n_quarantined == 0 and report.kept == {"trace": 2}

    def test_lenient_stream_with_a_fault_between(self):
        text = "m1\ta.com\t\r\nbroken\r\nm1\tb.com\t1.2.3.4\r\n"
        report = IngestReport(source=SOURCE, mode="lenient")
        reader = TraceReader(
            io.StringIO(text), source=SOURCE, on_error=quarantine_into(report)
        )
        trace = DayTrace.from_reader(reader)
        assert trace.n_edges == 2
        assert report.counters == {"trace:bad_columns": 1}
        assert report.quarantined[0].line == 2
