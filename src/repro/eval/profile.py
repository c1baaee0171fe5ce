"""Resource analysis behind the ``segugio inspect`` profile view.

The pieces of the phase-tree + hotspot breakdown that hide an algorithm,
each a pure function of a run manifest: same-named span siblings merged
into an aggregate tree (so multi-day runs stay readable), phases ranked
by CPU seconds (the §IV-G table, ranked), and the budget verdicts folded
into run health.
A manifest written without ``--profile`` has no ``resources`` key; CPU
and RSS columns are then ``None`` rather than an error.  Keys may be
missing, but what is present is expected in the shape
:class:`repro.obs.manifest.TelemetryRun` guarantees (only
:func:`aggregate_spans` also takes a raw, possibly junk-ridden forest).
The view itself is :func:`repro.eval.views.profile_view`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: hotspot rows shown in the ranked table
HOTSPOT_LIMIT = 12

# ---------------------------------------------------------------------- #
# span-tree aggregation
# ---------------------------------------------------------------------- #


def aggregate_spans(
    spans: Sequence[Mapping[str, Any]],
) -> List[Dict[str, Any]]:
    """Merge same-named siblings of a span forest into aggregate nodes.

    Each node carries ``{name, n, wall_s, cpu_s, peak_rss_mb, children}``
    — wall and CPU summed over the merged spans, peak RSS maxed, and
    children aggregated recursively the same way.  CPU/RSS stay ``None``
    when no merged span carried a ``resources`` attribute (unprofiled
    runs), which renders as ``n/a``.
    """
    order: List[Dict[str, Any]] = []
    by_name: Dict[str, Dict[str, Any]] = {}
    pending: Dict[str, List[Mapping[str, Any]]] = {}
    for span in spans:
        if not isinstance(span, Mapping):
            continue
        name = str(span.get("name", "?"))
        node = by_name.get(name)
        if node is None:
            node = by_name[name] = {
                "name": name,
                "n": 0,
                "wall_s": 0.0,
                "cpu_s": None,
                "peak_rss_mb": None,
                "children": [],
            }
            order.append(node)
            pending[name] = []
        node["n"] += 1
        node["wall_s"] += span.get("duration") or 0.0
        resources = (span.get("attributes") or {}).get("resources") or {}
        cpu, rss = resources.get("cpu_s"), resources.get("peak_rss_mb")
        if cpu is not None:
            node["cpu_s"] = round((node["cpu_s"] or 0.0) + cpu, 6)
        if rss is not None:
            node["peak_rss_mb"] = round(max(node["peak_rss_mb"] or rss, rss), 3)
        pending[name].extend(span.get("children") or ())
    for node in order:
        node["children"] = aggregate_spans(pending[node["name"]])
    return order


def tree_rows(
    nodes: Sequence[Mapping[str, Any]],
    total_wall: float,
    depth: int = 0,
) -> List[Tuple[int, Mapping[str, Any], Optional[float]]]:
    """The aggregate tree flattened depth-first into ``(depth, node, share
    of *total_wall* in percent)`` rows."""
    rows: List[Tuple[int, Mapping[str, Any], Optional[float]]] = []
    for node in nodes:
        share = node["wall_s"] / total_wall * 100.0 if total_wall > 0 else None
        rows.append((depth, node, share))
        rows.extend(tree_rows(node["children"], total_wall, depth + 1))
    return rows


def phase_hotspots(
    manifest: Mapping[str, Any], limit: int = HOTSPOT_LIMIT
) -> List[Dict[str, Any]]:
    """Top phases by CPU seconds (profiled) or wall seconds (fallback).

    Profiled manifests rank ``resources.phases`` (exact per-phase CPU
    totals); unprofiled ones fall back to summed span durations by name,
    with ``None`` CPU/RSS columns.
    """
    phases = (manifest.get("resources") or {}).get("phases")
    if phases is not None:
        rows = [
            {
                "name": name,
                "n": stats.get("n") or 0,
                "wall_s": stats.get("wall_s") or 0.0,
                "cpu_s": stats.get("cpu_s"),
                "peak_rss_mb": stats.get("peak_rss_mb"),
            }
            for name, stats in phases.items()
        ]
        rows.sort(
            key=lambda r: (
                -(r["cpu_s"] if r["cpu_s"] is not None else r["wall_s"]),
                r["name"],
            )
        )
        return rows[:limit]
    totals: Dict[str, Dict[str, Any]] = {}
    tree = aggregate_spans(manifest.get("spans") or [])
    for _depth, node, _share in tree_rows(tree, 0.0):
        entry = totals.setdefault(
            node["name"],
            {
                "name": node["name"],
                "n": 0,
                "wall_s": 0.0,
                "cpu_s": None,
                "peak_rss_mb": None,
            },
        )
        entry["n"] += node["n"]
        entry["wall_s"] += node["wall_s"]
    rows = sorted(totals.values(), key=lambda r: (-r["wall_s"], r["name"]))
    return rows[:limit]


def budget_verdicts(
    manifest: Mapping[str, Any],
) -> List[Mapping[str, Any]]:
    """Health reasons contributed by resource budgets (path resources.*)."""
    reasons = (manifest.get("health") or {}).get("reasons") or ()
    return [
        reason
        for reason in reasons
        if str(reason.get("path", "")).startswith("resources.")
    ]
