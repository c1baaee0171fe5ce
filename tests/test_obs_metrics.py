"""Metrics registry: series semantics, exports, deltas, ambient access."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_MAX_SERIES,
    MetricsError,
    MetricsRegistry,
    NOOP_INSTRUMENT,
    SCORE_BUCKETS,
    get_registry,
    use_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("segugio_test_total", "help text")
        c.inc()
        c.inc(3)
        snap = registry.snapshot()
        assert snap["segugio_test_total"]["series"] == [
            {"labels": {}, "value": 4.0}
        ]

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        c = registry.counter("segugio_test_total", labels=("kind",))
        c.inc(2, kind="new")
        c.inc(5, kind="repeat")
        values = {
            s["labels"]["kind"]: s["value"]
            for s in registry.snapshot()["segugio_test_total"]["series"]
        }
        assert values == {"new": 2.0, "repeat": 5.0}

    def test_negative_inc_rejected(self):
        c = MetricsRegistry().counter("segugio_test_total")
        with pytest.raises(MetricsError, match="cannot decrease"):
            c.inc(-1)

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("segugio_test_total", labels=("kind",))
        with pytest.raises(MetricsError, match="takes labels"):
            c.inc(1)
        with pytest.raises(MetricsError, match="takes labels"):
            c.inc(1, kind="x", extra="y")


class TestGauge:
    def test_set_overwrites(self):
        registry = MetricsRegistry()
        g = registry.gauge("segugio_test_gauge")
        g.set(7)
        g.set(3)
        assert registry.snapshot()["segugio_test_gauge"]["series"] == [
            {"labels": {}, "value": 3.0}
        ]

    def test_inc_allows_decrement(self):
        registry = MetricsRegistry()
        g = registry.gauge("segugio_test_gauge")
        g.inc(5)
        g.inc(-2)
        assert registry.snapshot()["segugio_test_gauge"]["series"][0]["value"] == 3.0


class TestHistogram:
    def test_bucket_assignment_is_le(self):
        registry = MetricsRegistry()
        h = registry.histogram("segugio_test_hist", buckets=(1.0, 2.0))
        h.observe(0.5)   # le=1
        h.observe(1.0)   # le=1 (inclusive upper bound)
        h.observe(1.5)   # le=2
        h.observe(99.0)  # +Inf overflow
        [series] = registry.snapshot()["segugio_test_hist"]["series"]
        assert series["buckets"] == {"1": 2, "2": 1, "+Inf": 1}
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(102.0)

    def test_observe_many_matches_observe(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        values = [0.05, 0.2, 0.9, 0.35]
        h1 = r1.histogram("segugio_test_hist", buckets=SCORE_BUCKETS)
        for v in values:
            h1.observe(v)
        r2.histogram("segugio_test_hist", buckets=SCORE_BUCKETS).observe_many(values)
        assert r1.snapshot() == r2.snapshot()

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricsError, match="strictly increasing"):
            MetricsRegistry().histogram("segugio_test_hist", buckets=(2.0, 1.0))

    def test_empty_buckets_rejected(self):
        with pytest.raises(MetricsError, match="at least one bucket"):
            MetricsRegistry().histogram("segugio_test_hist", buckets=())


class TestRegistrySemantics:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("segugio_a_total") is registry.counter(
            "segugio_a_total"
        )

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("segugio_a_total")
        with pytest.raises(MetricsError, match="already registered as counter"):
            registry.gauge("segugio_a_total")

    def test_label_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("segugio_a_total", labels=("kind",))
        with pytest.raises(MetricsError, match="already registered with labels"):
            registry.counter("segugio_a_total", labels=("rule",))

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(MetricsError, match="invalid metric name"):
            MetricsRegistry().counter("segugio bad name")

    def test_invalid_label_name_rejected(self):
        with pytest.raises(MetricsError, match="invalid label name"):
            MetricsRegistry().counter("segugio_a_total", labels=("le le",))

    def test_label_cardinality_cap(self):
        registry = MetricsRegistry(max_series=3)
        c = registry.counter("segugio_a_total", labels=("domain",))
        for i in range(3):
            c.inc(1, domain=f"d{i}")
        c.inc(1, domain="d0")  # existing series still fine
        with pytest.raises(MetricsError, match="exceeded 3 label combinations"):
            c.inc(1, domain="d3")

    def test_default_cap_is_documented_value(self):
        assert MetricsRegistry().max_series == DEFAULT_MAX_SERIES


class TestDisabled:
    def test_disabled_registry_returns_noop(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("segugio_a_total") is NOOP_INSTRUMENT
        assert registry.histogram("segugio_h") is NOOP_INSTRUMENT
        # All noop methods accept anything and record nothing.
        NOOP_INSTRUMENT.inc(5, kind="x")
        NOOP_INSTRUMENT.set(1.0)
        NOOP_INSTRUMENT.observe(0.5)
        NOOP_INSTRUMENT.observe_many([1, 2])
        assert registry.snapshot() == {}

    def test_ambient_default_is_disabled(self):
        assert get_registry().enabled is False

    def test_use_registry_scopes_the_ambient(self):
        mine = MetricsRegistry()
        with use_registry(mine):
            assert get_registry() is mine
            get_registry().counter("segugio_a_total").inc()
        assert get_registry().enabled is False
        assert mine.snapshot()["segugio_a_total"]["series"][0]["value"] == 1.0


class TestSnapshotDelta:
    def test_counter_delta_subtracts(self):
        registry = MetricsRegistry()
        c = registry.counter("segugio_a_total", labels=("kind",))
        c.inc(2, kind="new")
        before = registry.snapshot()
        c.inc(3, kind="new")
        c.inc(1, kind="repeat")
        delta = MetricsRegistry.delta(registry.snapshot(), before)
        values = {
            s["labels"]["kind"]: s["value"]
            for s in delta["segugio_a_total"]["series"]
        }
        assert values == {"new": 3.0, "repeat": 1.0}

    def test_unchanged_series_dropped(self):
        registry = MetricsRegistry()
        c = registry.counter("segugio_a_total", labels=("kind",))
        g = registry.gauge("segugio_g")
        c.inc(2, kind="same")
        g.set(5)
        before = registry.snapshot()
        delta = MetricsRegistry.delta(registry.snapshot(), before)
        assert delta == {}

    def test_gauge_delta_reports_current_value(self):
        registry = MetricsRegistry()
        g = registry.gauge("segugio_g")
        g.set(5)
        before = registry.snapshot()
        g.set(2)
        delta = MetricsRegistry.delta(registry.snapshot(), before)
        assert delta["segugio_g"]["series"] == [{"labels": {}, "value": 2.0}]

    def test_histogram_delta_subtracts_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("segugio_h", buckets=(1.0,))
        h.observe(0.5)
        before = registry.snapshot()
        h.observe(0.5)
        h.observe(2.0)
        [series] = MetricsRegistry.delta(registry.snapshot(), before)[
            "segugio_h"
        ]["series"]
        assert series["count"] == 2
        assert series["sum"] == pytest.approx(2.5)
        assert series["buckets"] == {"1": 1, "+Inf": 1}

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("segugio_a_total", labels=("kind",)).inc(1, kind="x")
        registry.histogram("segugio_h").observe(0.1)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert set(parsed) == {"segugio_a_total", "segugio_h"}
