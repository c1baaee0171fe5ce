"""Strict/lenient ingestion: located errors, quarantine, error-rate cap."""

import json
import os
import shutil

import numpy as np
import pytest

from repro.datasets.store import save_observation
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.runtime.ingest import (
    IngestReport,
    load_blacklist_lenient,
    load_observation_checked,
    load_trace_lenient,
    load_whitelist_lenient,
)
from repro.utils.errors import (
    FeedFormatError,
    FormatVersionError,
    IngestError,
)


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory, train_context, scenario):
    directory = str(tmp_path_factory.mktemp("ingest") / "obs")
    save_observation(
        directory,
        train_context,
        private_suffixes=scenario.universe.identified_services,
    )
    return directory


def _copy(saved_dir, tmp_path, name="copy"):
    copy = str(tmp_path / name)
    shutil.copytree(saved_dir, copy)
    return copy


class TestLocatedParseErrors:
    def test_trace_bad_ipv4_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "trace.tsv")
        with open(path, "w") as stream:
            stream.write("# day 3\n")
            stream.write("m0\td0.example\t10.0.0.1\n")
            stream.write("m1\td1.example\t10.0.0.999\n")
        with pytest.raises(FeedFormatError, match=r"trace\.tsv:3.*IPv4"):
            DayTrace.load(path)

    def test_trace_truncated_line_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "trace.tsv")
        with open(path, "w") as stream:
            stream.write("# day 3\n")
            stream.write("m0\td0.exam")  # torn mid-record
        with pytest.raises(FeedFormatError, match=r"trace\.tsv:2.*fields"):
            DayTrace.load(path)

    def test_trace_bad_day_header_located(self, tmp_path):
        path = str(tmp_path / "trace.tsv")
        with open(path, "w") as stream:
            stream.write("# day soon\n")
        with pytest.raises(FeedFormatError, match=r"trace\.tsv:1.*day"):
            DayTrace.load(path)

    def test_blacklist_bad_day_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "feed.tsv")
        with open(path, "w") as stream:
            stream.write("# a comment\n")
            stream.write("\n")
            stream.write("evil.example\t12\tzeus\n")
            stream.write("worse.example\tNaN-day\tzeus\n")
        with pytest.raises(FeedFormatError, match=r"feed\.tsv:4"):
            CncBlacklist.load(path)

    def test_blacklist_skips_blanks_and_comments(self, tmp_path):
        path = str(tmp_path / "feed.tsv")
        with open(path, "w") as stream:
            stream.write("# header comment\n\n")
            stream.write("evil.example\t12\tzeus\n")
        feed = CncBlacklist.load(path)
        assert len(feed) == 1
        assert feed.added_day("evil.example") == 12

    def test_whitelist_bad_line_names_file_and_line(self, tmp_path):
        path = str(tmp_path / "white.txt")
        with open(path, "w") as stream:
            stream.write("good.example\n")
            stream.write("two tokens on one line\n")
        with pytest.raises(FeedFormatError, match=r"white\.txt:2"):
            DomainWhitelist.load(path)

    def test_whitelist_skips_blanks_and_comments(self, tmp_path):
        path = str(tmp_path / "white.txt")
        with open(path, "w") as stream:
            stream.write("# comment\n\n  \ngood.example\n")
        assert set(DomainWhitelist.load(path)) == {"good.example"}


class TestLenientFeedLoaders:
    def test_trace_quarantines_and_counts(self, tmp_path):
        path = str(tmp_path / "trace.tsv")
        with open(path, "w") as stream:
            stream.write("# day 3\n")
            stream.write("m0\td0.example\t10.0.0.1\n")
            stream.write("m1\td1.example\t10.0.0.999\n")  # bad IPv4
            stream.write("m2\td2.exam\n")  # torn
            stream.write("m3\td3.example\t\n")
        report = IngestReport(source=path, mode="lenient")
        trace = load_trace_lenient(path, report)
        assert trace.n_edges == 2
        assert report.counters == {
            "trace:bad_ipv4": 1,
            "trace:bad_columns": 1,
        }
        assert report.n_ok == 2
        lines = {record.line for record in report.quarantined}
        assert lines == {3, 4}

    def test_trace_quarantines_loose_ipv4_spellings(self, tmp_path):
        """Regression: these loaded as addresses in both modes."""
        loose = ["1_0.0.0.1", "+1.2.3.4", "1. 2.3.4", "1.2.3.-0", "\u0661.2.3.4"]
        path = str(tmp_path / "trace.tsv")
        with open(path, "w") as stream:
            stream.write("# day 3\nm0\td0.example\t10.0.0.1\n")
            for i, token in enumerate(loose):
                stream.write(f"m{i}\td{i}.example\t10.0.0.1,{token}\n")
        report = IngestReport(source=path, mode="lenient")
        trace = load_trace_lenient(path, report)
        assert trace.n_edges == 1
        assert report.counters == {"trace:bad_ipv4": len(loose)}
        with pytest.raises(FeedFormatError, match=r"trace\.tsv:3.*IPv4"):
            DayTrace.load(path)

    def test_blacklist_quarantines_bad_days(self, tmp_path):
        path = str(tmp_path / "feed.tsv")
        with open(path, "w") as stream:
            stream.write("evil.example\t12\tzeus\n")
            stream.write("worse.example\t-4\tzeus\n")
            stream.write("ugly.example\tsoon\t\n")
        report = IngestReport(source=path, mode="lenient")
        feed = load_blacklist_lenient(path, report)
        assert len(feed) == 1
        assert report.counters == {"blacklist:bad_day": 2}

    def test_whitelist_quarantines_bad_lines(self, tmp_path):
        path = str(tmp_path / "white.txt")
        with open(path, "w") as stream:
            stream.write("good.example\n")
            stream.write("not a domain\n")
        report = IngestReport(source=path, mode="lenient")
        whitelist = load_whitelist_lenient(path, report)
        assert set(whitelist) == {"good.example"}
        assert report.counters == {"whitelist:bad_columns": 1}


class TestCheckedDirectoryLoad:
    def test_clean_directory_loads_in_both_modes(self, saved_dir, train_context):
        for mode in ("strict", "lenient"):
            context, report = load_observation_checked(saved_dir, mode=mode)
            assert context.day == train_context.day
            assert context.trace.n_edges == train_context.trace.n_edges
            assert report.n_quarantined == 0
            assert report.error_rate == 0.0

    def test_unknown_mode_rejected(self, saved_dir):
        with pytest.raises(ValueError, match="mode"):
            load_observation_checked(saved_dir, mode="yolo")

    def test_missing_file_aborts_both_modes(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        os.remove(os.path.join(copy, "pdns.npz"))
        for mode in ("strict", "lenient"):
            with pytest.raises(IngestError, match="pdns.npz"):
                load_observation_checked(copy, mode=mode)

    def test_newer_format_version_names_both_versions(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        meta_path = os.path.join(copy, "meta.json")
        with open(meta_path) as stream:
            meta = json.load(stream)
        meta["format_version"] = 99
        with open(meta_path, "w") as stream:
            json.dump(meta, stream)
        with pytest.raises(FormatVersionError, match="99") as excinfo:
            load_observation_checked(copy)
        assert "version 1" in str(excinfo.value)

    def test_fuzzed_trace_quarantined_leniently(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        trace_path = os.path.join(copy, "trace.tsv")
        with open(trace_path, "a") as stream:
            stream.write("mX\tbroken.example\t1.2.3.4.5\n")
            stream.write("torn-line-without-tabs\n")
        # Strict: the first bad record raises with its location.
        with pytest.raises(FeedFormatError, match=r"trace\.tsv:\d+"):
            load_observation_checked(copy, mode="strict")
        # Lenient: both are quarantined, with per-category counters.
        context, report = load_observation_checked(copy, mode="lenient")
        assert report.counters["trace:bad_ipv4"] == 1
        assert report.counters["trace:bad_columns"] == 1
        assert report.n_quarantined == 2
        # The new name "mX" was never interned (its only record was bad)...
        assert context.trace.machines.lookup("mX") is None
        # ...so positional ids still match meta.json and scores reproduce.
        assert "quarantined" in report.summary()

    def test_fuzzed_blacklist_quarantined_leniently(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        with open(os.path.join(copy, "blacklist.tsv"), "a") as stream:
            stream.write("half.a.reco\n")
            stream.write("evil.example\tnever\t\n")
        context, report = load_observation_checked(copy, mode="lenient")
        assert report.counters["blacklist:bad_columns"] == 1
        assert report.counters["blacklist:bad_day"] == 1

    def test_error_rate_cap_fails_loudly(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        with open(os.path.join(copy, "blacklist.tsv"), "a") as stream:
            for i in range(50_000):
                stream.write(f"junk-{i}\n")
        with pytest.raises(IngestError, match="cap") as excinfo:
            load_observation_checked(
                copy, mode="lenient", max_error_rate=0.05
            )
        assert "blacklist:bad_columns" in str(excinfo.value)

    def test_pdns_id_range_violation(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        with open(os.path.join(copy, "meta.json")) as stream:
            n_domains = json.load(stream)["n_domains"]
        path = os.path.join(copy, "pdns.npz")
        with np.load(path) as payload:
            days, domains, ips = (
                payload["days"].copy(),
                payload["domains"].copy(),
                payload["ips"].copy(),
            )
        domains[0] = n_domains + 7  # id beyond the interner
        np.savez_compressed(path, days=days, domains=domains, ips=ips)
        with pytest.raises(IngestError, match="domain id"):
            load_observation_checked(copy, mode="strict")
        context, report = load_observation_checked(copy, mode="lenient")
        assert report.counters["pdns:id_range"] == 1
        # The poisoned row is dropped, not silently kept.
        assert context.pdns.n_records == days.size - 1

    def test_tampered_interner_aborts_both_modes(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        with open(os.path.join(copy, "domains.txt"), "a") as stream:
            stream.write("sneaky.extra.example\n")
        for mode in ("strict", "lenient"):
            with pytest.raises(IngestError, match="domains.txt"):
                load_observation_checked(copy, mode=mode)

    def test_day_mismatch_aborts(self, saved_dir, tmp_path):
        copy = _copy(saved_dir, tmp_path)
        meta_path = os.path.join(copy, "meta.json")
        with open(meta_path) as stream:
            meta = json.load(stream)
        meta["day"] = meta["day"] + 1
        with open(meta_path, "w") as stream:
            json.dump(meta, stream)
        with pytest.raises(IngestError, match="day"):
            load_observation_checked(copy, mode="lenient")


class TestPerSourceAccounting:
    """Regression: the error-rate cap used to be computed over ALL kept
    records, so large always-clean interner/pdns arrays diluted a
    30%-garbage trace under the cap."""

    def test_dilution_cannot_hide_a_gutted_source(self):
        report = IngestReport(source="obs", mode="lenient")
        report.keep(100_000, source="interner")  # big, always clean
        report.keep(50_000, source="pdns")
        report.keep(70, source="trace")
        for i in range(30):  # 30% of the trace is garbage
            report.quarantine("trace.tsv", i + 1, "trace:bad_columns", "x")
        # The old global rate sails under any sane cap...
        assert report.error_rate < 0.001
        # ...but the per-source view names the gutted feed.
        over = report.sources_over_cap(0.05)
        assert set(over) == {"trace"}
        assert over["trace"]["quarantined"] == 30
        assert over["trace"]["error_rate"] == pytest.approx(0.3)

    def test_checked_load_applies_the_cap_per_source(
        self, saved_dir, tmp_path
    ):
        copy = _copy(saved_dir, tmp_path)
        trace_path = os.path.join(copy, "trace.tsv")
        with open(trace_path) as stream:
            n_rows = sum(
                1 for line in stream if line.strip() and line[0] != "#"
            )
        with open(trace_path, "a") as stream:
            for i in range(int(n_rows * 0.5)):
                stream.write(f"garbage row {i} without tabs\n")
        with pytest.raises(IngestError, match="per-source cap") as excinfo:
            load_observation_checked(copy, mode="lenient", max_error_rate=0.05)
        assert "trace" in str(excinfo.value)

    def test_source_stats_in_report_dict(self, saved_dir):
        _, report = load_observation_checked(saved_dir, mode="lenient")
        payload = report.to_dict()
        assert "sources" in payload
        for source in ("interner", "trace", "pdns", "activity"):
            assert payload["sources"][source]["kept"] > 0
            assert payload["sources"][source]["error_rate"] == 0.0

    def test_summary_names_dirty_sources(self):
        report = IngestReport(source="obs", mode="lenient")
        report.keep(10, source="trace")
        report.quarantine("trace.tsv", 4, "trace:bad_ipv4", "bad")
        summary = report.summary()
        assert "trace: 1 of 11 quarantined" in summary


class TestTraceRecordAccounting:
    """Regression: strict mode kept ``trace.n_edges`` (deduplicated) while
    lenient and the edge-store path kept one per record, so the same clean
    file gave different ``kept["trace"]`` and manifest ``n_ok`` by mode."""

    def test_a_clean_file_is_accounted_alike_in_every_mode(
        self, saved_dir, tmp_path
    ):
        copy = _copy(saved_dir, tmp_path)
        trace_path = os.path.join(copy, "trace.tsv")
        with open(trace_path) as stream:
            lines = stream.readlines()
        n_records = len(lines)  # the header, plus one duplicated record
        with open(trace_path, "a") as stream:
            stream.write(lines[1])
        kept = {}
        for name, options in (
            ("strict", {"mode": "strict"}),
            ("lenient", {"mode": "lenient"}),
            ("store", {"mode": "strict", "shards": 2}),
        ):
            context, report = load_observation_checked(copy, **options)
            assert context.trace.n_edges == n_records - 1
            kept[name] = report.kept["trace"]
        assert kept == dict.fromkeys(kept, n_records)


class TestLateDayHeaderLenient:
    """Regression: a mid-file ``# day N`` header used to silently re-tag
    every earlier edge; lenient mode must quarantine it instead."""

    def test_late_header_quarantined_and_day_kept(self, tmp_path):
        path = str(tmp_path / "trace.tsv")
        with open(path, "w") as stream:
            stream.write("# day 3\n")
            stream.write("m0\td0.example\t10.0.0.1\n")
            stream.write("# day 9\n")  # must not re-tag the edge above
            stream.write("m1\td1.example\t10.0.0.2\n")
        report = IngestReport(source=path, mode="lenient")
        trace = load_trace_lenient(path, report)
        assert trace.day == 3
        assert trace.n_edges == 2
        assert report.counters["trace:late_day_header"] == 1
        sample = report.quarantined[0]
        assert sample.line == 3
        assert sample.category == "trace:late_day_header"


class TestActivityQuarantineSample:
    def test_lenient_activity_screen_keeps_a_located_sample(
        self, saved_dir, tmp_path
    ):
        copy = _copy(saved_dir, tmp_path)
        path = os.path.join(copy, "activity.npz")
        with np.load(path) as payload:
            fqd, e2ld = payload["fqd"].copy(), payload["e2ld"].copy()
        fqd[0, 1] = 10**9  # key far outside the interned id space
        np.savez_compressed(path, fqd=fqd, e2ld=e2ld)
        with pytest.raises(IngestError, match="activity"):
            load_observation_checked(copy, mode="strict")
        context, report = load_observation_checked(copy, mode="lenient")
        assert report.counters["activity:fqd:id_range"] == 1
        samples = [
            record
            for record in report.quarantined
            if record.category == "activity:fqd:id_range"
        ]
        assert samples and "activity.npz[fqd]" in samples[0].source
