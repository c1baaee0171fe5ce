"""Zero-dependency metrics registry: counters, gauges, histograms.

The pipeline reports what it did through named, optionally labeled metric
series following the convention ``segugio_<area>_<name>`` (areas: ``graph``,
``pruning``, ``ingest``, ``health``, ``tracker``, ``forest``, ``checkpoint``,
...).  Three instrument kinds:

* :class:`Counter` — monotonically increasing event totals
  (``segugio_ingest_quarantined_total{category="trace:bad_ipv4"}``);
* :class:`Gauge` — last-written per-day values
  (``segugio_graph_edges``, ``segugio_pruning_removed{rule="r1"}``);
* :class:`Histogram` — bucketed distributions
  (``segugio_classify_score``).

A :class:`MetricsRegistry` owns the instruments and exports them as a
JSON-ready :meth:`~MetricsRegistry.snapshot` (with
:meth:`~MetricsRegistry.delta` for per-day accounting in the run manifest).

Telemetry is **off by default**: instrumented code calls
:func:`get_registry`, which returns a permanently disabled registry unless a
run (CLI ``--telemetry-dir``, :class:`repro.obs.run.RunTelemetry`, or a test)
activated one via :func:`use_registry`.  A disabled registry hands back a
shared no-op instrument, so the hot path pays one context-variable lookup
and an attribute check per instrumentation site.
"""

from __future__ import annotations

import contextvars
import re
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

DEFAULT_MAX_SERIES = 512
"""Per-instrument cap on distinct label combinations.

Quarantine categories, pruning rules, and health checks are all small
closed sets; hitting this cap means a label value is carrying unbounded
data (a domain name, a path) and the instrument is misused."""

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

SCORE_BUCKETS: Tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 10))
"""Unit-interval buckets for malware-score distributions."""

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricsError(ValueError):
    """Instrument misuse: bad name, label mismatch, kind clash, cardinality."""


class _NoopInstrument:
    """Shared do-nothing instrument returned by disabled registries."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        pass


NOOP_INSTRUMENT = _NoopInstrument()


class _Instrument:
    """Common state: name, help text, declared labels, series storage."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: Tuple[str, ...], max_series: int
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricsError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricsError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help = help
        self.label_names = label_names
        self.max_series = max_series
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise MetricsError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        if key not in self._series and len(self._series) >= self.max_series:
            raise MetricsError(
                f"metric {self.name!r} exceeded {self.max_series} label "
                f"combinations — a label value is likely unbounded "
                f"(offending series: {dict(zip(self.label_names, key))})"
            )
        return key

    def _label_dict(self, key: Tuple[str, ...]) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    def series_items(self) -> List[Tuple[Tuple[str, ...], object]]:
        return sorted(self._series.items())


class Counter(_Instrument):
    """Monotonically increasing total."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc by {value})"
            )
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + float(value)


class Gauge(_Instrument):
    """Last-written value."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + float(value)


class Histogram(_Instrument):
    """Bucketed distribution with sum and count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        max_series: int,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names, max_series)
        if not buckets:
            raise MetricsError(f"histogram {name!r} needs at least one bucket")
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise MetricsError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.buckets = ordered

    def _cell(self, labels: Mapping[str, object]) -> Dict[str, object]:
        key = self._key(labels)
        cell = self._series.get(key)
        if cell is None:
            cell = {
                "counts": [0] * (len(self.buckets) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self._series[key] = cell
        return cell  # type: ignore[return-value]

    def observe(self, value: float, **labels: object) -> None:
        cell = self._cell(labels)
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        cell["counts"][index] += 1  # type: ignore[index]
        cell["sum"] += value  # type: ignore[operator]
        cell["count"] += 1  # type: ignore[operator]

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        cell = self._cell(labels)
        counts = cell["counts"]
        total = 0.0
        n = 0
        for value in values:
            value = float(value)
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            counts[index] += 1  # type: ignore[index]
            total += value
            n += 1
        cell["sum"] += total  # type: ignore[operator]
        cell["count"] += n  # type: ignore[operator]


class MetricsRegistry:
    """Owns instruments; snapshots, deltas, and exports them."""

    def __init__(
        self, enabled: bool = True, max_series: int = DEFAULT_MAX_SERIES
    ) -> None:
        self._enabled = bool(enabled)
        self.max_series = max_series
        self._instruments: Dict[str, _Instrument] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    # ------------------------------------------------------------------ #
    # instrument construction
    # ------------------------------------------------------------------ #

    def _get(
        self,
        cls,
        name: str,
        help: str,
        labels: Tuple[str, ...],
        **kwargs: object,
    ):
        if not self._enabled:
            return NOOP_INSTRUMENT
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricsError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as {cls.kind}"
                )
            if existing.label_names != labels:
                raise MetricsError(
                    f"metric {name!r} already registered with labels "
                    f"{list(existing.label_names)}, got {list(labels)}"
                )
            return existing
        instrument = cls(name, help, labels, self.max_series, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", labels: Tuple[str, ...] = ()
    ) -> Counter:
        return self._get(Counter, name, help, tuple(labels))

    def gauge(
        self, name: str, help: str = "", labels: Tuple[str, ...] = ()
    ) -> Gauge:
        return self._get(Gauge, name, help, tuple(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Tuple[str, ...] = (),
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, tuple(labels), buckets=buckets)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready copy of every series, keyed by metric name."""
        out: Dict[str, Dict[str, object]] = {}
        for name, inst in sorted(self._instruments.items()):
            series = []
            for key, value in inst.series_items():
                entry: Dict[str, object] = {"labels": inst._label_dict(key)}
                if inst.kind == "histogram":
                    cell = value  # type: ignore[assignment]
                    entry["count"] = cell["count"]
                    entry["sum"] = cell["sum"]
                    entry["buckets"] = {
                        _bucket_label(b): c
                        for b, c in zip(
                            list(inst.buckets) + [float("inf")],  # type: ignore[attr-defined]
                            cell["counts"],
                        )
                    }
                else:
                    entry["value"] = value
                series.append(entry)
            out[name] = {
                "kind": inst.kind,
                "help": inst.help,
                "labels": list(inst.label_names),
                "series": series,
            }
        return out

    @staticmethod
    def delta(
        current: Dict[str, Dict[str, object]],
        previous: Dict[str, Dict[str, object]],
    ) -> Dict[str, Dict[str, object]]:
        """What changed between two snapshots.

        Counters and histograms subtract series-wise (absent-from-previous
        counts as zero); gauges report their current value.  Metrics and
        series with no change are dropped, so a per-day delta carries only
        that day's activity.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name, metric in current.items():
            prev_metric = previous.get(name, {})
            prev_series = {
                _series_key(entry): entry
                for entry in prev_metric.get("series", [])  # type: ignore[union-attr]
            }
            changed = []
            for entry in metric["series"]:  # type: ignore[union-attr]
                prev = prev_series.get(_series_key(entry))
                if metric["kind"] == "gauge":
                    if prev is None or prev["value"] != entry["value"]:
                        changed.append(dict(entry))
                elif metric["kind"] == "counter":
                    base = 0.0 if prev is None else float(prev["value"])  # type: ignore[arg-type]
                    diff = float(entry["value"]) - base  # type: ignore[arg-type]
                    if diff != 0:
                        changed.append(
                            {"labels": entry["labels"], "value": diff}
                        )
                else:  # histogram
                    base_count = 0 if prev is None else prev["count"]
                    if entry["count"] == base_count:
                        continue
                    prev_buckets = {} if prev is None else prev["buckets"]
                    changed.append(
                        {
                            "labels": entry["labels"],
                            "count": entry["count"] - base_count,  # type: ignore[operator]
                            "sum": entry["sum"]
                            - (0.0 if prev is None else prev["sum"]),  # type: ignore[operator]
                            "buckets": {
                                le: c - prev_buckets.get(le, 0)  # type: ignore[union-attr]
                                for le, c in entry["buckets"].items()  # type: ignore[union-attr]
                            },
                        }
                    )
            if changed:
                out[name] = {
                    "kind": metric["kind"],
                    "help": metric["help"],
                    "labels": metric["labels"],
                    "series": changed,
                }
        return out


def _series_key(entry: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(entry["labels"].items()))  # type: ignore[union-attr]


def _bucket_label(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    text = f"{bound:g}"
    return text


# ---------------------------------------------------------------------- #
# ambient registry
# ---------------------------------------------------------------------- #

_DISABLED = MetricsRegistry(enabled=False)

_active: contextvars.ContextVar[Optional[MetricsRegistry]] = (
    contextvars.ContextVar("segugio_metrics_registry", default=None)
)


def get_registry() -> MetricsRegistry:
    """The registry activated for the current run (disabled by default)."""
    registry = _active.get()
    return registry if registry is not None else _DISABLED


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make *registry* the ambient registry within the ``with`` block."""
    token = _active.set(registry)
    try:
        yield registry
    finally:
        _active.reset(token)
