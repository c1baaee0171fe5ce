"""Tests for the day-trace container."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.records import AResponse, format_ipv4, parse_ipv4
from repro.dns.trace import DayTrace, TraceReader, _dedupe_edges
from repro.utils.errors import FeedFormatError
from repro.utils.ids import Interner


def make_trace():
    machines = Interner()
    domains = Interner()
    responses = [
        AResponse(1, "m1", "a.com", (parse_ipv4("10.0.0.1"),)),
        AResponse(1, "m1", "b.com", (parse_ipv4("10.0.0.2"),)),
        AResponse(1, "m2", "a.com", (parse_ipv4("10.0.0.1"), parse_ipv4("10.0.0.3"))),
        AResponse(1, "m1", "a.com", (parse_ipv4("10.0.0.9"),)),  # duplicate edge
    ]
    return DayTrace.from_responses(1, responses, machines, domains)


class TestConstruction:
    def test_edges_deduplicated(self):
        trace = make_trace()
        assert trace.n_edges == 3

    def test_unique_nodes(self):
        trace = make_trace()
        assert len(trace.unique_machine_ids()) == 2
        assert len(trace.unique_domain_ids()) == 2

    def test_resolutions_unioned_across_duplicates(self):
        trace = make_trace()
        a_id = trace.domains.lookup("a.com")
        ips = trace.resolved_ips(a_id)
        assert ips.size == 3  # 10.0.0.1, .3, .9

    def test_resolved_ips_missing_domain_empty(self):
        trace = make_trace()
        assert trace.resolved_ips(999).size == 0

    def test_wrong_day_response_rejected(self):
        with pytest.raises(ValueError, match="day"):
            DayTrace.from_responses(
                2, [AResponse(1, "m", "d.com", (1,))]
            )

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            DayTrace.build(0, Interner(), Interner(), [1, 2], [1])

    def test_build_empty(self):
        trace = DayTrace.build(0, Interner(), Interner(), [], [])
        assert trace.n_edges == 0


class TestSerialization:
    def test_round_trip(self):
        trace = make_trace()
        buffer = io.StringIO(trace.to_tsv())
        loaded = DayTrace.load(buffer)
        assert loaded.day == trace.day
        assert loaded.n_edges == trace.n_edges
        # Same edge set by name.
        def edge_names(t):
            return {
                (t.machines.name(int(m)), t.domains.name(int(d)))
                for m, d in zip(t.edge_machines, t.edge_domains)
            }
        assert edge_names(loaded) == edge_names(trace)

    def test_round_trip_preserves_resolutions(self):
        trace = make_trace()
        loaded = DayTrace.load(io.StringIO(trace.to_tsv()))
        a_src = trace.domains.lookup("a.com")
        a_dst = loaded.domains.lookup("a.com")
        assert (loaded.resolved_ips(a_dst) == trace.resolved_ips(a_src)).all()

    def test_save_load_file(self, tmp_path):
        trace = make_trace()
        path = str(tmp_path / "trace.tsv")
        trace.save(path)
        loaded = DayTrace.load(path)
        assert loaded.n_edges == trace.n_edges


    def test_save_bytes_match_the_per_edge_writer(self):
        """The block writer formats each domain's IP field once; the
        per-edge writer it replaced is kept here as the oracle.  90 000
        edges cross a block boundary."""

        def per_edge_tsv(trace):
            lines = [f"# day {trace.day}\n"]
            for mid, did in zip(trace.edge_machines, trace.edge_domains):
                ips = ",".join(
                    format_ipv4(int(ip)) for ip in trace.resolved_ips(int(did))
                )
                lines.append(
                    f"{trace.machines.name(int(mid))}\t"
                    f"{trace.domains.name(int(did))}\t{ips}\n"
                )
            return "".join(lines)

        machines = Interner(f"h{i}" for i in range(300))
        domains = Interner(f"d{i}.example" for i in range(300))
        pairs = np.arange(90_000)
        resolutions = {
            did: np.arange(did % 4, dtype=np.uint32) * 65537 + did
            for did in range(0, 300, 2)
        }
        big = DayTrace.build(
            7, machines, domains, pairs // 300, pairs % 300, resolutions
        )
        for trace in (make_trace(), big, DayTrace.build(2, machines, domains, [], [])):
            assert trace.to_tsv() == per_edge_tsv(trace)


class TestBuilder:
    def test_chunked_equals_single_shot(self):
        from repro.dns.trace import DayTraceBuilder

        machines, domains = Interner(), Interner()
        responses = [
            AResponse(1, "m1", "a.com", (parse_ipv4("10.0.0.1"),)),
            AResponse(1, "m1", "b.com", (parse_ipv4("10.0.0.2"),)),
            AResponse(1, "m2", "a.com", (parse_ipv4("10.0.0.3"),)),
        ]
        single = DayTrace.from_responses(1, responses, Interner(), Interner())
        builder = DayTraceBuilder(1, machines, domains)
        builder.add_responses(responses[:1])
        builder.add_responses(responses[1:])
        chunked = builder.build()
        assert chunked.n_edges == single.n_edges
        a = chunked.domains.lookup("a.com")
        assert chunked.resolved_ips(a).size == 2

    def test_duplicate_edges_across_chunks_collapse(self):
        from repro.dns.trace import DayTraceBuilder

        builder = DayTraceBuilder(0)
        builder.add_edges([0, 1], [5, 6])
        builder.add_edges([0], [5])
        trace = builder.build()
        assert trace.n_edges == 2

    def test_manual_resolution(self):
        from repro.dns.trace import DayTraceBuilder

        builder = DayTraceBuilder(0)
        builder.add_edges([0], [0]).add_resolution(0, [7, 3])
        trace = builder.build()
        assert trace.resolved_ips(0).tolist() == [3, 7]

    def test_sealed_after_build(self):
        from repro.dns.trace import DayTraceBuilder

        builder = DayTraceBuilder(0)
        builder.add_edges([0], [0])
        builder.build()
        with pytest.raises(RuntimeError, match="already built"):
            builder.add_edges([1], [1])

    def test_wrong_day_rejected(self):
        from repro.dns.trace import DayTraceBuilder

        builder = DayTraceBuilder(2)
        with pytest.raises(ValueError, match="day"):
            builder.add_responses([AResponse(1, "m", "d.com", (1,))])

    def test_pending_count_and_empty_build(self):
        from repro.dns.trace import DayTraceBuilder

        builder = DayTraceBuilder(0)
        assert builder.n_pending_edges == 0
        assert builder.build().n_edges == 0


class TestDedupe:
    def test_dedupe_preserves_pairs(self):
        m = np.array([0, 0, 1, 0], dtype=np.int64)
        d = np.array([5, 5, 5, 7], dtype=np.int64)
        dm, dd = _dedupe_edges(m, d)
        pairs = set(zip(dm.tolist(), dd.tolist()))
        assert pairs == {(0, 5), (1, 5), (0, 7)}

    def test_dedupe_empty(self):
        empty = np.empty(0, dtype=np.int64)
        dm, dd = _dedupe_edges(empty, empty)
        assert dm.size == 0 and dd.size == 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=0, max_value=20),
            ),
            min_size=1,
            max_size=200,
        )
    )
    def test_property_dedupe_matches_set(self, pairs):
        m = np.array([p[0] for p in pairs], dtype=np.int64)
        d = np.array([p[1] for p in pairs], dtype=np.int64)
        dm, dd = _dedupe_edges(m, d)
        assert set(zip(dm.tolist(), dd.tolist())) == set(pairs)
        assert dm.size == len(set(pairs))


class TestDayHeaderStateMachine:
    """Regression: a mid-file ``# day N`` header used to silently re-tag
    every already-parsed edge to the new day at build time."""

    def _tsv(self, *lines):
        return io.StringIO("\n".join(lines) + "\n")

    def test_late_header_with_new_day_rejected(self):
        stream = self._tsv(
            "# day 3",
            "m0\td0.example\t10.0.0.1",
            "# day 9",
            "m1\td1.example\t10.0.0.2",
        )
        with pytest.raises(FeedFormatError, match="re-tag") as excinfo:
            DayTrace.load(stream)
        assert excinfo.value.category == "late_day_header"
        assert excinfo.value.line == 3

    def test_repeated_header_with_same_day_tolerated(self):
        stream = self._tsv(
            "# day 3",
            "m0\td0.example\t10.0.0.1",
            "# day 3",  # a harmless restatement, e.g. concatenated chunks
            "m1\td1.example\t10.0.0.2",
        )
        trace = DayTrace.load(stream)
        assert trace.day == 3
        assert trace.n_edges == 2

    def test_headers_before_any_record_may_revise_day(self):
        stream = self._tsv("# day 3", "# day 5", "m0\td0.example\t10.0.0.1")
        assert DayTrace.load(stream).day == 5

    def test_streaming_loader_rejects_late_header_too(self):
        stream = self._tsv(
            "# day 3", "m0\td0.example\t10.0.0.1", "# day 9"
        )
        with pytest.raises(FeedFormatError, match="re-tag"):
            DayTrace.from_reader(TraceReader(stream), batch_size=1)


class TestStreamingLoad:
    def _reference(self):
        machines = Interner(f"h{i}" for i in range(23))
        domains = Interner(f"d{i}.example" for i in range(31))
        em = [(i * 7) % 23 for i in range(300)]
        ed = [(i * 11) % 31 for i in range(300)]
        resolutions = {
            3: np.array([16909060, 16909061], dtype=np.uint32),
            8: np.array([167772161], dtype=np.uint32),
        }
        return DayTrace.build(6, machines, domains, em, ed, resolutions)

    def test_streaming_shares_interners(self):
        reference = self._reference()
        machines, domains = Interner(), Interner()
        streamed = DayTrace.from_reader(
            TraceReader(io.StringIO(reference.to_tsv())),
            machines,
            domains,
            batch_size=16,
        )
        assert streamed.machines is machines
        assert streamed.domains is domains

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            DayTrace.from_reader(
                TraceReader(io.StringIO("# day 1\n")), batch_size=0
            )
