"""Trend analysis behind the ``segugio inspect`` health view.

The pieces of the multi-day quality dashboard that hide an algorithm:
min-max block sparklines for the headline series, and the
reference-drift comparison (``--reference pinned:<day>`` /
``rolling:<k>``) of each day's headline counters against a pinned
known-good day or a rolling mean instead of only the previous day — the
drift summaries a manifest carries are always day-over-day.  The view
itself is :func:`repro.eval.views.health_view`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: headline day-record series the reference-drift section compares
_REFERENCE_METRICS = (
    ("n_scored", "scored"),
    ("n_new_detections", "new detections"),
    ("threshold", "threshold"),
)


def parse_reference(spec: str) -> Tuple[str, Optional[int]]:
    """Parse a ``--reference`` spec into ``(mode, parameter)``.

    ``previous`` (the default day-over-day comparison), ``pinned:<day>``
    (every day compared against one known-good day), or ``rolling:<k>``
    (each day compared against the mean of its previous *k* days).
    Raises :class:`ValueError` with the offending spec on anything else.
    """
    if spec == "previous":
        return "previous", None
    mode, _, raw = spec.partition(":")
    if mode in ("pinned", "rolling") and raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"--reference {spec!r}: {raw!r} is not an integer"
            ) from None
        if mode == "rolling" and value < 1:
            raise ValueError(
                f"--reference {spec!r}: window must be a positive day count"
            )
        return mode, value
    raise ValueError(
        f"--reference {spec!r}: expected previous, pinned:<day>, or "
        f"rolling:<k>"
    )


def reference_deltas(
    days: Sequence[Mapping[str, object]], mode: str, parameter: Optional[int]
) -> List[Dict[str, object]]:
    """Headline-series deltas of each day against the reference baseline.

    Returns one row per comparable day: ``{"day", "metric", "value",
    "reference", "delta_pct"}`` (``delta_pct`` is None when the baseline
    is zero).  ``pinned`` mode raises :class:`ValueError` when the
    pinned day is not among the loaded records; ``rolling`` mode skips
    days with no history yet.  ``previous`` mode returns nothing — that
    comparison is already the drift summary in every manifest.
    """
    if mode == "previous":
        return []
    if mode == "pinned":
        pinned = next(
            (
                d
                for d in days
                if int(d.get("day", -1) or -1) == int(parameter or -1)
            ),
            None,
        )
        if pinned is None:
            known = ", ".join(str(d.get("day", "?")) for d in days) or "none"
            raise ValueError(
                f"--reference pinned:{parameter}: day {parameter} is not "
                f"among the loaded day records (loaded: {known})"
            )
    rows: List[Dict[str, object]] = []
    for index, day in enumerate(days):
        if mode == "rolling":
            window = days[max(0, index - int(parameter or 1)) : index]
            if not window:
                continue
        for key, label in _REFERENCE_METRICS:
            value = float(day.get(key, 0) or 0)
            if mode == "pinned":
                if day is pinned:
                    continue
                reference = float(pinned.get(key, 0) or 0)
            else:
                reference = sum(float(d.get(key, 0) or 0) for d in window) / len(
                    window
                )
            delta_pct = (
                (value - reference) / reference * 100.0 if reference else None
            )
            if delta_pct is not None and not math.isfinite(delta_pct):
                delta_pct = None
            rows.append(
                {
                    "day": day.get("day", "?"),
                    "metric": label,
                    "value": value,
                    "reference": reference,
                    "delta_pct": delta_pct,
                }
            )
    return rows


def reference_title(mode: str, parameter: Optional[int]) -> str:
    if mode == "pinned":
        return f"reference drift vs pinned day {parameter}:"
    return f"reference drift vs rolling mean of previous {parameter} day(s):"


def sparkline(values: Sequence[float]) -> str:
    """Single-hue block sparkline, min-max scaled (flat series -> mid block)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_BLOCKS[3] * len(values)
    span = high - low
    return "".join(
        _SPARK_BLOCKS[
            min(
                int((v - low) / span * len(_SPARK_BLOCKS)),
                len(_SPARK_BLOCKS) - 1,
            )
        ]
        for v in values
    )
