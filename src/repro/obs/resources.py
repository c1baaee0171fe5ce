"""Resource accounting: CPU, RSS, I/O, and throughput for one run.

The profiling layer behind ``segugio track --profile`` / ``segugio
profile``.  A :class:`ResourceMonitor` rides the existing span stack
(:mod:`repro.obs.tracing` opens a *frame* per span when a monitor is
active) and attributes to each pipeline phase:

* wall-clock seconds (monotonic clock);
* CPU seconds, user+system, via ``os.times()``;
* peak RSS, from a low-overhead ``/proc/self/status`` watermark sampler
  (``VmRSS`` sampled on a background thread, ``VmHWM`` as the floor) with
  a ``resource.getrusage`` fallback off-Linux;
* I/O bytes from ``/proc/self/io`` (gracefully ``None`` off-Linux).

Throughput gauges (trace rows/s, graph edges/s, domains scored/s) are
derived from unit counters the pipeline reports via :func:`count_units`
divided by the wall-clock of the phases that process them.

Like every other :mod:`repro.obs` layer the monitor is **ambient and off
by default**: instrumented code consults :func:`current_monitor`, which
is a permanently disabled monitor unless a run activated one via
:func:`use_monitor`.  A disabled monitor costs one context-variable
lookup and one attribute check per site.  The monitor only ever *observes*
— it never feeds back into pipeline decisions, so profiling on vs. off
leaves every decision artifact bit-identical.

Declarative :class:`ResourceBudget` thresholds (``max_peak_rss_mb``,
``min_rows_per_s``, …) are evaluated over the finished summary and folded
into the run health verdict next to the :class:`repro.obs.monitor`
alert rules.

This module is the **only** place in the library allowed to read raw
resource primitives (``resource.getrusage``, ``os.times``,
``/proc/self/*``) — lint rule SEG012 enforces the
containment, mirroring SEG004/SEG011.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

from repro.obs.manifest import TEST_PHASES, TRAIN_PHASES
from repro.obs.monitor import STATUS_ALERT, STATUS_WARN

#: schema version of the ``resources`` manifest payload
RESOURCES_SCHEMA_VERSION = 1

#: throughput unit names reported by the pipeline via :func:`count_units`
UNIT_TRACE_ROWS = "trace_rows"
UNIT_GRAPH_EDGES = "graph_edges"
UNIT_DOMAINS_SCORED = "domains_scored"
UNIT_EDGE_BATCHES = "edge_batches"

#: which phases' wall-clock each unit is divided by for its ``*_per_s``
#: gauge; a unit whose phases recorded no time falls back to total wall
UNIT_PHASES: Dict[str, Tuple[str, ...]] = {
    UNIT_TRACE_ROWS: ("build_graph",),
    UNIT_GRAPH_EDGES: tuple(TRAIN_PHASES),
    UNIT_DOMAINS_SCORED: tuple(TEST_PHASES),
    UNIT_EDGE_BATCHES: ("build_graph",),
}

#: default watermark sampler period (seconds); ~20 Hz keeps the sampler
#: itself well under the documented <3% overhead bound
DEFAULT_SAMPLE_INTERVAL = 0.05


def _maxrss_to_mb(ru_maxrss: float) -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return ru_maxrss / (1024.0 * 1024.0)
    return ru_maxrss / 1024.0


class ResourceReader:
    """Platform adapter for raw resource reads (injectable in tests).

    Every probe degrades gracefully: a missing ``/proc`` file or
    ``resource`` module yields ``None`` rather than raising, so the
    monitor works (with fewer columns) on any POSIX-ish platform.
    """

    status_path = "/proc/self/status"
    io_path = "/proc/self/io"

    def __init__(self) -> None:
        # /proc/self/io is re-read on every span open/close, so it is
        # held open and pread at offset 0: ~5us vs ~35us per open()+parse,
        # which is what keeps per-span accounting inside the <3% budget
        self._io_fd: Optional[int] = None
        self._io_unavailable = False

    def close(self) -> None:
        """Release the cached ``/proc/self/io`` descriptor (idempotent)."""
        fd = getattr(self, "_io_fd", None)  # fakes may skip __init__
        if fd is not None:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
            self._io_fd = None

    def __del__(self) -> None:  # pragma: no cover - gc timing
        self.close()

    def clock(self) -> float:
        return time.perf_counter()

    def cpu_seconds(self) -> float:
        """User+system CPU seconds of this process (children excluded)."""
        t = os.times()
        return t.user + t.system

    def _status_kb(self, field: str) -> Optional[float]:
        try:
            with open(self.status_path) as stream:
                for line in stream:
                    if line.startswith(field + ":"):
                        return float(line.split()[1])
        except (OSError, ValueError, IndexError):
            return None
        return None

    def rss_mb(self) -> Optional[float]:
        """Current resident set size in MiB (``VmRSS``), None off-Linux."""
        kb = self._status_kb("VmRSS")
        return kb / 1024.0 if kb is not None else None

    def peak_rss_mb(self) -> Optional[float]:
        """Process-lifetime peak RSS in MiB: ``VmHWM``, else ``ru_maxrss``."""
        kb = self._status_kb("VmHWM")
        if kb is not None:
            return kb / 1024.0
        if _resource is not None:
            usage = _resource.getrusage(_resource.RUSAGE_SELF)
            return _maxrss_to_mb(usage.ru_maxrss)
        return None

    def io_bytes(self) -> Optional[Tuple[int, int]]:
        """``(read_bytes, write_bytes)`` from ``/proc/self/io``, or None."""
        if self._io_unavailable:
            return None
        try:
            if self._io_fd is None:
                self._io_fd = os.open(self.io_path, os.O_RDONLY)
            raw = os.pread(self._io_fd, 1024, 0)
        except OSError:
            self._io_unavailable = True
            return None
        read = write = None
        try:
            for line in raw.split(b"\n"):
                if line.startswith(b"read_bytes:"):
                    read = int(line.split()[1])
                elif line.startswith(b"write_bytes:"):
                    write = int(line.split()[1])
        except (ValueError, IndexError):  # pragma: no cover - malformed
            return None
        if read is None or write is None:
            return None
        return read, write


class _Frame:
    """One open span's resource baseline (closed into a delta dict)."""

    __slots__ = ("name", "wall0", "cpu0", "io0", "rss_peak")

    def __init__(
        self,
        name: str,
        wall0: float,
        cpu0: float,
        io0: Optional[Tuple[int, int]],
        rss0: Optional[float],
    ) -> None:
        self.name = name
        self.wall0 = wall0
        self.cpu0 = cpu0
        self.io0 = io0
        self.rss_peak = rss0


class ResourceMonitor:
    """Accumulates per-phase resource deltas and throughput units.

    Thread-safety: :meth:`sample` runs on the background watermark thread
    and only touches the open-frame peaks and the global sampled peak,
    under the monitor lock; everything else runs on the coordinating
    thread.
    """

    def __init__(
        self,
        enabled: bool = True,
        reader: Optional[ResourceReader] = None,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        self.enabled = bool(enabled)
        self.reader = reader if reader is not None else ResourceReader()
        self.sample_interval = float(sample_interval)
        self._lock = threading.Lock()
        self._open_frames: List[_Frame] = []
        self.phases: Dict[str, Dict[str, object]] = {}
        self.units: Dict[str, int] = {}
        self.n_samples = 0
        self._sampled_peak_mb: Optional[float] = None
        self._last_rss_mb: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if self.enabled:
            self._wall0 = self.reader.clock()
            self._cpu0 = self.reader.cpu_seconds()
            self._io0 = self.reader.io_bytes()

    # ------------------------------------------------------------------ #
    # span frames (driven by repro.obs.tracing)
    # ------------------------------------------------------------------ #

    def open_frame(self, name: str) -> Optional[_Frame]:
        """Open a resource frame for span *name* (None when disabled).

        RSS is deliberately *not* read here: per-frame peaks come from the
        background watermark sampler (resolution = ``sample_interval``),
        seeded with its most recent reading.  Two ``/proc/self/status``
        parses per span would dominate the profiling overhead on short
        spans and break the <3% wall-clock budget the e2e bench gates on.
        """
        if not self.enabled:
            return None
        frame = _Frame(
            name,
            self.reader.clock(),
            self.reader.cpu_seconds(),
            self.reader.io_bytes(),
            self._last_rss_mb,
        )
        with self._lock:
            self._open_frames.append(frame)
        return frame

    def close_frame(self, frame: Optional[_Frame]) -> Optional[Dict[str, object]]:
        """Close *frame*, fold its deltas into the phase stats, and return
        the per-span delta dict (attached as a span attribute)."""
        if frame is None or not self.enabled:
            return None
        wall = self.reader.clock() - frame.wall0
        cpu = self.reader.cpu_seconds() - frame.cpu0
        io1 = self.reader.io_bytes()
        with self._lock:
            try:
                self._open_frames.remove(frame)
            except ValueError:  # pragma: no cover - double close
                pass
            peak = frame.rss_peak
            rss = self._last_rss_mb
        if peak is None and rss is None:
            # no watermark sample landed yet (sampler not running, or a
            # frame closed before the first tick): one direct read keeps
            # the column populated rather than blank.  The reading is
            # cached as the last-known RSS so a samplerless monitor pays
            # the /proc/self/status parse once, not once per span —
            # per-frame parses alone would break the <3% e2e overhead gate.
            rss = self.reader.rss_mb()
            if rss is not None:
                with self._lock:
                    if self._last_rss_mb is None:
                        self._last_rss_mb = rss
        if rss is not None:
            peak = rss if peak is None else max(peak, rss)
        delta: Dict[str, object] = {
            "wall_s": round(max(wall, 0.0), 6),
            "cpu_s": round(max(cpu, 0.0), 6),
        }
        if peak is not None:
            delta["peak_rss_mb"] = round(peak, 3)
        if io1 is not None and frame.io0 is not None:
            delta["io_read_bytes"] = max(io1[0] - frame.io0[0], 0)
            delta["io_write_bytes"] = max(io1[1] - frame.io0[1], 0)
        stats = self.phases.setdefault(
            frame.name,
            {"wall_s": 0.0, "cpu_s": 0.0, "n": 0},
        )
        stats["wall_s"] = round(float(stats["wall_s"]) + float(delta["wall_s"]), 6)  # type: ignore[arg-type]
        stats["cpu_s"] = round(float(stats["cpu_s"]) + float(delta["cpu_s"]), 6)  # type: ignore[arg-type]
        stats["n"] = int(stats["n"]) + 1  # type: ignore[arg-type]
        if peak is not None:
            prior = stats.get("peak_rss_mb")
            stats["peak_rss_mb"] = round(
                peak if prior is None else max(float(prior), peak), 3  # type: ignore[arg-type]
            )
        for key in ("io_read_bytes", "io_write_bytes"):
            if key in delta:
                stats[key] = int(stats.get(key, 0)) + int(delta[key])  # type: ignore[arg-type]
        return delta

    # ------------------------------------------------------------------ #
    # watermark sampler
    # ------------------------------------------------------------------ #

    def sample(self) -> Optional[float]:
        """One watermark sample: read VmRSS, raise every open frame's peak.

        Called by the background thread; tests call it directly with a
        fake reader to assert the watermark math exactly.
        """
        rss = self.reader.rss_mb()
        if rss is None:
            return None
        with self._lock:
            self.n_samples += 1
            self._last_rss_mb = rss
            if self._sampled_peak_mb is None or rss > self._sampled_peak_mb:
                self._sampled_peak_mb = rss
            for frame in self._open_frames:
                if frame.rss_peak is None or rss > frame.rss_peak:
                    frame.rss_peak = rss
        return rss

    def _sampler_loop(self) -> None:  # pragma: no cover - timing-dependent
        while not self._stop.wait(self.sample_interval):
            self.sample()

    @contextmanager
    def running(self):
        """Run the watermark sampler while open."""
        if not self.enabled:
            yield self
            return
        thread: Optional[threading.Thread] = None
        # seed the sampled-RSS cache so frames closed before the first
        # background tick still see a real value
        if self.sample_interval > 0 and self.sample() is not None:
            self._stop.clear()
            thread = threading.Thread(
                target=self._sampler_loop,
                name="segugio-rss-sampler",
                daemon=True,
            )
            self._thread = thread
            thread.start()
        try:
            yield self
        finally:
            if thread is not None:
                self._stop.set()
                thread.join(timeout=5.0)
                self._thread = None

    # ------------------------------------------------------------------ #
    # throughput units
    # ------------------------------------------------------------------ #

    def count_units(self, unit: str, n: int) -> None:
        """Report *n* processed units (trace rows, edges, scored domains)."""
        if not self.enabled or n <= 0:
            return
        self.units[unit] = self.units.get(unit, 0) + int(n)

    # ------------------------------------------------------------------ #
    # per-day deltas (driven by RunTelemetry.day_scope)
    # ------------------------------------------------------------------ #

    def day_mark(self) -> Optional[Dict[str, object]]:
        """Opaque baseline for a per-day resource delta (None if disabled)."""
        if not self.enabled:
            return None
        return {
            "cpu": self.reader.cpu_seconds(),
            "units": dict(self.units),
        }

    def day_delta(
        self, mark: Optional[Dict[str, object]]
    ) -> Optional[Dict[str, object]]:
        """The day's resource delta vs. :meth:`day_mark` (None if disabled)."""
        if mark is None or not self.enabled:
            return None
        units_before: Mapping[str, int] = mark["units"]  # type: ignore[assignment]
        units = {
            name: count - int(units_before.get(name, 0))
            for name, count in self.units.items()
            if count - int(units_before.get(name, 0)) > 0
        }
        delta: Dict[str, object] = {
            "cpu_s": round(
                max(self.reader.cpu_seconds() - float(mark["cpu"]), 0.0), 6  # type: ignore[arg-type]
            ),
        }
        peak = self.peak_rss_mb()
        if peak is not None:
            delta["peak_rss_mb"] = round(peak, 3)
        if units:
            delta["units"] = units
        return delta

    # ------------------------------------------------------------------ #
    # summary
    # ------------------------------------------------------------------ #

    def peak_rss_mb(self) -> Optional[float]:
        """Best-known process peak RSS: max(VmHWM/rusage, sampled VmRSS)."""
        peak = self.reader.peak_rss_mb()
        with self._lock:
            sampled = self._sampled_peak_mb
        if peak is None:
            return sampled
        if sampled is not None:
            peak = max(peak, sampled)
        return peak

    def summary(self) -> Dict[str, object]:
        """The ``resources`` manifest payload (schema-versioned, additive)."""
        wall = max(self.reader.clock() - self._wall0, 0.0)
        cpu = max(self.reader.cpu_seconds() - self._cpu0, 0.0)
        process: Dict[str, object] = {
            "wall_s": round(wall, 6),
            "cpu_s": round(cpu, 6),
            "cpu_util": round(cpu / wall, 4) if wall > 0 else None,
        }
        peak = self.peak_rss_mb()
        if peak is not None:
            process["peak_rss_mb"] = round(peak, 3)
        io1 = self.reader.io_bytes()
        if io1 is not None and self._io0 is not None:
            process["io_read_bytes"] = max(io1[0] - self._io0[0], 0)
            process["io_write_bytes"] = max(io1[1] - self._io0[1], 0)
        payload: Dict[str, object] = {
            "schema_version": RESOURCES_SCHEMA_VERSION,
            "platform": {
                "has_proc_status": self.reader.rss_mb() is not None,
                "has_proc_io": self.reader.io_bytes() is not None,
                "n_rss_samples": self.n_samples,
                "sample_interval_s": self.sample_interval,
            },
            "process": process,
            "phases": {name: dict(stats) for name, stats in self.phases.items()},
            "units": dict(self.units),
            "throughput": derive_throughput(
                self.units,
                {
                    name: float(stats.get("wall_s", 0.0))  # type: ignore[arg-type]
                    for name, stats in self.phases.items()
                },
                wall,
            ),
        }
        return payload


def derive_throughput(
    units: Mapping[str, int],
    phase_wall: Mapping[str, float],
    total_wall_s: float,
) -> Dict[str, Optional[float]]:
    """Sustained ``<unit>_per_s`` gauges from unit counts and phase seconds.

    Pure so the ``segugio inspect`` views can recompute the
    same numbers from a manifest alone.  Each unit is divided by the
    wall-clock of the phases that process it (:data:`UNIT_PHASES`); when
    those phases recorded no time, the total wall is the denominator, and
    a zero denominator yields ``None`` rather than a division error.
    """
    out: Dict[str, Optional[float]] = {}
    for unit, count in units.items():
        denominator = sum(
            float(phase_wall.get(name, 0.0)) for name in UNIT_PHASES.get(unit, ())
        )
        if denominator <= 0:
            denominator = float(total_wall_s)
        out[f"{unit}_per_s"] = (
            round(count / denominator, 3) if denominator > 0 else None
        )
    return out


# ---------------------------------------------------------------------- #
# ambient monitor
# ---------------------------------------------------------------------- #

_DISABLED = ResourceMonitor(enabled=False)

_active: contextvars.ContextVar[Optional[ResourceMonitor]] = (
    contextvars.ContextVar("segugio_resource_monitor", default=None)
)


def current_monitor() -> ResourceMonitor:
    """The resource monitor for the current run (disabled by default)."""
    monitor = _active.get()
    return monitor if monitor is not None else _DISABLED


@contextmanager
def use_monitor(monitor: ResourceMonitor):
    """Make *monitor* the ambient resource monitor within the block."""
    token = _active.set(monitor)
    try:
        yield monitor
    finally:
        _active.reset(token)


def count_units(unit: str, n: int) -> None:
    """Module-level convenience: report units to the ambient monitor."""
    current_monitor().count_units(unit, n)


# ---------------------------------------------------------------------- #
# declarative resource budgets
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ResourceBudget:
    """One bound on a dotted path into the ``resources`` summary.

    ``max`` trips when the value exceeds it (cost ceilings:
    ``process.peak_rss_mb``, ``process.cpu_s``); ``min`` trips when the
    value falls below it (throughput floors:
    ``throughput.trace_rows_per_s``).  Exactly one of the two must be
    set.  *level* is the health status a violation contributes
    (``warn`` or ``alert``).  Missing paths are skipped — a budget file
    written for Linux must not trip on a platform without ``/proc``.
    """

    name: str
    path: str
    max: Optional[float] = None
    min: Optional[float] = None
    level: str = STATUS_WARN
    description: str = ""

    def __post_init__(self) -> None:
        if (self.max is None) == (self.min is None):
            raise ValueError(
                f"budget {self.name!r} must set exactly one of max/min"
            )
        if self.level not in (STATUS_WARN, STATUS_ALERT):
            raise ValueError(
                f"budget {self.name!r}: level must be "
                f"{STATUS_WARN!r} or {STATUS_ALERT!r}, got {self.level!r}"
            )

    def evaluate(
        self, resources: Mapping[str, object]
    ) -> Optional[Dict[str, object]]:
        """The violation dict for *resources*, or None when within budget."""
        node: object = resources
        for part in self.path.split("."):
            if not isinstance(node, Mapping) or part not in node:
                return None
            node = node[part]
        try:
            value = float(node)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        if self.max is not None:
            if value <= self.max:
                return None
            relation, threshold = ">", self.max
        else:
            assert self.min is not None
            if value >= self.min:
                return None
            relation, threshold = "<", self.min
        text = self.description or "resource budget exceeded"
        return {
            "rule": self.name,
            "status": self.level,
            "path": f"resources.{self.path}",
            "value": value,
            "threshold": threshold,
            "message": (
                f"{self.name}: {text} "
                f"({self.path}={value:.4g} {relation} {threshold:.4g})"
            ),
        }


def evaluate_budgets(
    resources: Mapping[str, object],
    budgets: Iterable[ResourceBudget],
) -> List[Dict[str, object]]:
    """All budget violations for one ``resources`` summary."""
    return [
        violation
        for budget in budgets
        if (violation := budget.evaluate(resources)) is not None
    ]


class ResourceBudgetError(ValueError):
    """A budgets file that cannot be parsed or validated."""


_BUDGET_KEYS = frozenset({"name", "path", "max", "min", "level", "description"})


def load_resource_budgets(path: str) -> Tuple[ResourceBudget, ...]:
    """Load declarative budgets from JSON, with located validation errors.

    Accepts a bare list of budget objects or ``{"budgets": [...]}`` —
    the same envelope convention as :func:`repro.obs.monitor.load_alert_rules`.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except OSError as error:
        raise ResourceBudgetError(
            f"{path}: cannot read resource budgets: {error}"
        ) from error
    except json.JSONDecodeError as error:
        raise ResourceBudgetError(f"{path}: invalid JSON: {error}") from error
    if isinstance(payload, Mapping):
        extra = sorted(set(payload) - {"budgets"})
        if extra or "budgets" not in payload:
            raise ResourceBudgetError(
                f"{path}: expected a list of budget objects or "
                f"{{\"budgets\": [...]}}"
            )
        payload = payload["budgets"]
    if not isinstance(payload, list):
        raise ResourceBudgetError(
            f"{path}: expected a list of budget objects, "
            f"got {type(payload).__name__}"
        )
    if not payload:
        raise ResourceBudgetError(f"{path}: no resource budgets defined")
    budgets: List[ResourceBudget] = []
    for index, spec in enumerate(payload):
        if not isinstance(spec, Mapping):
            raise ResourceBudgetError(
                f"{path}: budgets[{index}]: expected an object, "
                f"got {type(spec).__name__}"
            )
        where = f"{path}: budgets[{index}]"
        if isinstance(spec.get("name"), str):
            where = f"{where} ({spec['name']})"
        unknown = sorted(set(spec) - _BUDGET_KEYS)
        if unknown:
            raise ResourceBudgetError(f"{where}: unknown keys {unknown}")
        missing = sorted({"name", "path"} - set(spec))
        if missing:
            raise ResourceBudgetError(f"{where}: missing required keys {missing}")
        try:
            budgets.append(
                ResourceBudget(
                    name=str(spec["name"]),
                    path=str(spec["path"]),
                    max=None if spec.get("max") is None else float(spec["max"]),  # type: ignore[arg-type]
                    min=None if spec.get("min") is None else float(spec["min"]),  # type: ignore[arg-type]
                    level=str(spec.get("level", STATUS_WARN)),
                    description=str(spec.get("description", "")),
                )
            )
        except (TypeError, ValueError) as error:
            raise ResourceBudgetError(f"{where}: {error}") from error
    return tuple(budgets)
