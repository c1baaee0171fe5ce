"""Nested, timed spans over the pipeline's call tree.

A :class:`Tracer` records :class:`Span` objects — named, attributed,
wall-clock-timed sections that nest (``process_day`` > ``fit`` >
``build_graph`` > ...).  The finished tree is exported two ways:

* :meth:`Tracer.span_tree` — nested dicts for the run manifest;
* :meth:`Tracer.write_jsonl` — one JSON object per span (flat, with
  ``id``/``parent_id``/``depth``), the per-run ``trace.jsonl`` artifact.

Spans are exception-safe: a raise inside the ``with`` block marks the span
``status="error"`` with the exception repr, closes it, and re-raises.

Like the decision log, tracing is ambient and off by default:
instrumented code opens spans on :func:`current_tracer`, which is a
permanently disabled tracer (``span()`` returns a shared null context
manager) unless a run activated one via :func:`use_tracer`.

Spans are also the one phase timer.  The pipeline's §IV-G phases
(``build_graph`` ... ``score_domains``) are plain spans, and code that
needs their seconds — the efficiency experiment, the report — activates
a :class:`Tracer` of its own and reads :meth:`Tracer.phase_totals` back.
"""

from __future__ import annotations

import contextvars
import json
import time
from contextlib import contextmanager
from typing import Dict, IO, Iterator, List, Optional, Tuple, Union

from repro.obs import logs as _logs
from repro.obs import resources as _resources


class Span:
    """One named, timed section of a run."""

    __slots__ = (
        "span_id",
        "name",
        "attributes",
        "start",
        "duration",
        "status",
        "error",
        "children",
    )

    def __init__(
        self, span_id: int, name: str, attributes: Dict[str, object], start: float
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.attributes = attributes
        self.start = start  # seconds since the tracer's epoch
        self.duration = 0.0
        self.status = "ok"
        self.error: Optional[str] = None
        self.children: List["Span"] = []

    def set_attribute(self, key: str, value: object) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "status": self.status,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.error is not None:
            record["error"] = self.error
        if self.children:
            record["children"] = [c.to_dict() for c in self.children]
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration:.6f}s, "
            f"status={self.status!r}, children={len(self.children)})"
        )


class _NullContext:
    """Reusable no-op context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects a forest of spans for one run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    def span(
        self, name: str, **attributes: object
    ) -> Union[_NullContext, "contextmanager"]:
        """Context manager recording one span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return self._record(name, attributes)

    @contextmanager
    def _record(self, name: str, attributes: Dict[str, object]) -> Iterator[Span]:
        span = Span(
            self._next_id, name, attributes, time.perf_counter() - self._epoch
        )
        self._next_id += 1
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        log_token = _logs.push_context(phase=name)
        # Resource accounting rides the span stack: when a run activated a
        # ResourceMonitor (``--profile``), every span opens a frame whose
        # CPU/RSS/IO deltas land as a ``resources`` span attribute and in
        # the per-phase totals.  Observation only — never feeds back.
        monitor = _resources.current_monitor()
        frame = monitor.open_frame(name) if monitor.enabled else None
        started = time.perf_counter()
        try:
            yield span
        except BaseException as error:
            span.status = "error"
            span.error = f"{type(error).__name__}: {error}"
            raise
        finally:
            span.duration = time.perf_counter() - started
            if frame is not None:
                delta = monitor.close_frame(frame)
                if delta:
                    span.attributes["resources"] = delta
            _logs.pop_context(log_token)
            self._stack.pop()

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def iter_spans(self) -> Iterator[Tuple[Span, Optional[Span], int]]:
        """Depth-first ``(span, parent, depth)`` over the finished forest."""

        def walk(
            span: Span, parent: Optional[Span], depth: int
        ) -> Iterator[Tuple[Span, Optional[Span], int]]:
            yield span, parent, depth
            for child in span.children:
                yield from walk(child, span, depth + 1)

        for root in self.roots:
            yield from walk(root, None, 0)

    def phase_totals(self) -> Dict[str, float]:
        """Cumulative seconds per span name, in first-seen order."""
        totals: Dict[str, float] = {}
        for span, _parent, _depth in self.iter_spans():
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def span_tree(self) -> List[Dict[str, object]]:
        """The whole forest as nested JSON-ready dicts."""
        return [root.to_dict() for root in self.roots]

    def write_jsonl(self, stream: IO[str]) -> int:
        """One flat JSON record per span; returns the number written."""
        n = 0
        for span, parent, depth in self.iter_spans():
            record: Dict[str, object] = {
                "id": span.span_id,
                "parent_id": parent.span_id if parent is not None else None,
                "depth": depth,
                "name": span.name,
                "start": round(span.start, 6),
                "duration": round(span.duration, 6),
                "status": span.status,
            }
            if span.attributes:
                record["attributes"] = dict(span.attributes)
            if span.error is not None:
                record["error"] = span.error
            stream.write(json.dumps(record, default=str) + "\n")
            n += 1
        return n

    def reset(self) -> None:
        self.roots = []
        self._stack = []
        self._next_id = 1
        self._epoch = time.perf_counter()


# ---------------------------------------------------------------------- #
# ambient tracer
# ---------------------------------------------------------------------- #

_DISABLED = Tracer(enabled=False)

_active: contextvars.ContextVar[Optional[Tracer]] = contextvars.ContextVar(
    "segugio_tracer", default=None
)


def current_tracer() -> Tracer:
    """The tracer activated for the current run (disabled by default)."""
    tracer = _active.get()
    return tracer if tracer is not None else _DISABLED


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Make *tracer* the ambient tracer within the ``with`` block."""
    token = _active.set(tracer)
    try:
        yield tracer
    finally:
        _active.reset(token)
