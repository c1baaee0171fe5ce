"""The small document every ``segugio inspect`` view returns, and the two
backends that render it.

A view (:mod:`repro.eval.views`) is one function from run(s) to a
:class:`Document` — a title, a few summary lines, and titled sections
whose bodies are plain lines, :class:`Table` blocks and at most one
:class:`Timeline`.  :func:`render_text` and :func:`render_html` are the
only renderers, so the HTML page carries every section, row and cell the
text does by construction; the one thing HTML adds is color and geometry
(status badges, the timeline drawn as per-lane bars).

Status is always *symbol + word* (``[+] ok`` / ``[!] warn`` /
``[x] alert``), never color alone: the HTML backend colors the same text.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field
from itertools import groupby
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

_BADGES = {
    "ok": "[+] ok",
    "warn": "[!] warn",
    "alert": "[x] alert",
    "unknown": "[?] unknown",
}


def badge(status: object) -> str:
    """A health status as symbol + word (anything unrecognized: unknown)."""
    return _BADGES.get(status if isinstance(status, str) else "", _BADGES["unknown"])


def fmt(value: object, spec: str = ".3f", missing: str = "-") -> str:
    """A number under *spec*, or *missing* for a value the run lacks."""
    return format(value, spec) if value is not None else missing


@dataclass
class Table:
    headers: Sequence[str]
    widths: Sequence[int]
    rows: List[Sequence[str]] = field(default_factory=list)
    #: leading columns that hold names (left-aligned); the rest hold numbers
    left: int = 0
    #: text layout only: what precedes a row and what separates its cells
    indent: str = ""
    sep: str = " "

    @classmethod
    def of(
        cls,
        columns: Sequence[Tuple[str, int, Callable[[Any], str]]],
        items: Iterable[Any],
        **layout: Any,
    ) -> "Table":
        """One row per item; a column is ``(header, width, cell(item))``."""
        return cls(
            [header for header, _, _ in columns],
            [width for _, width, _ in columns],
            [[cell(item) for _, _, cell in columns] for item in items],
            **layout,
        )


@dataclass
class Timeline:
    """The result of :func:`repro.eval.trace.build_timeline`: spans of every
    lane on one clock, in start order."""

    timeline: Dict[str, Any]
    #: rows the text backend prints before pointing at the HTML page
    limit: int

    def captions(self) -> Dict[str, str]:
        """Each lane (parent, w0, w1, ..., serial) with its span count and
        busy seconds."""
        return {
            lane: f"{stats['n_spans']} span(s), busy {stats['busy_s']:.3f}s"
            for lane, stats in self.timeline["lanes"].items()
        }

    def labels(self) -> Iterator[Tuple[Dict[str, Any], str]]:
        """Each span with its name and annotations, e.g.
        ``segugio_worker_task (label=forest_fit, task=3, STRAGGLER)``."""
        for entry in self.timeline["rows"]:
            notes = [
                f"{key}={entry['attributes'][key]}"
                for key in ("label", "task", "day", "shard")
                if key in entry["attributes"]
            ]
            if entry["straggler"]:
                notes.append("STRAGGLER")
            if entry["skew"]:
                notes.append("skew-normalized")
            name = entry.get("name") or "?"
            yield entry, name + (f" ({', '.join(notes)})" if notes else "")


@dataclass
class Section:
    title: str
    body: List[Union[str, Table, Timeline]] = field(default_factory=list)


@dataclass
class Document:
    title: str
    lines: List[str] = field(default_factory=list)
    sections: List[Section] = field(default_factory=list)

    def add(self, title: str, *body: Union[str, Table, Timeline]) -> Section:
        section = Section(title, list(body))
        self.sections.append(section)
        return section


# ---------------------------------------------------------------------- #
# text
# ---------------------------------------------------------------------- #


def _table_lines(table: Table) -> List[str]:
    rows = list(table.rows)
    if any(table.headers):
        rows.insert(0, table.headers)
    return [
        table.indent
        + table.sep.join(
            format(cell, f"{'<' if index < table.left else '>'}{width}")
            for index, (cell, width) in enumerate(zip(row, table.widths))
        )
        for row in rows
    ]


def _timeline_lines(block: Timeline) -> List[str]:
    lines = [f"  {'start s':>9} {'dur s':>9}  {'lane':<7} span"]
    for shown, (entry, label) in enumerate(block.labels()):
        if shown == block.limit:
            remaining = len(block.timeline["rows"]) - shown
            lines.append(f"  ... {remaining} more row(s) (see --html)")
            break
        lines.append(
            f"  {entry.get('start') or 0.0:>9.3f} "
            f"{entry.get('duration') or 0.0:>9.3f}  {entry['lane']:<7} "
            f"{'  ' * (entry.get('depth') or 0)}{label}"
        )
    return lines


def render_text(*documents: Document) -> str:
    """The documents as plain text, one blank line between parts."""
    lines: List[str] = []
    for document in documents:
        if lines:
            lines.append("")
        lines.append(document.title)
        lines.extend(document.lines)
        for section in document.sections:
            lines += ["", section.title]
            for block in section.body:
                if isinstance(block, Table):
                    lines.extend(_table_lines(block))
                elif isinstance(block, Timeline):
                    lines.extend(_timeline_lines(block))
                else:
                    lines.append(block)
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# HTML
# ---------------------------------------------------------------------- #

_STYLE = """
  body { font-family: ui-monospace, 'SF Mono', Menlo, Consolas, monospace;
         margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
         background: #ffffff; color: #1f2430; }
  h1 { font-size: 1.2rem; margin-top: 3rem; }
  h2 { font-size: 1rem; margin-top: 2rem; }
  pre { font: inherit; margin: 0.5rem 0; color: #3a4152; }
  table { border-collapse: collapse; margin: 0.75rem 0; }
  th, td { padding: 0.3rem 0.8rem; text-align: right;
           border-bottom: 1px solid #e3e6ec; }
  th { color: #5a6172; font-weight: 600; }
  .name { text-align: left; white-space: pre; }
  .badge { font-weight: 600; }
  .badge.ok { color: #2c6e49; } .badge.warn { color: #8a6d1a; }
  .badge.alert { color: #a23b3b; } .badge.unknown { color: #5a6172; }
  .lane-block { margin: 0.6em 0; }
  .lane-name { font-weight: 600; margin-bottom: 2px; }
  .track { position: relative; height: 18px; background: #f4f4f4;
           margin-bottom: 2px; }
  .bar { position: absolute; top: 1px; height: 16px; background: #7aa6c2;
         overflow: hidden; font-size: 10px; line-height: 16px;
         color: #fff; white-space: nowrap; box-sizing: border-box;
         border-right: 1px solid #fff; }
  .bar.worker { background: #5b8c5a; }
  .bar.straggler { background: #c2703a; }
  .bar.skew { outline: 2px dashed #a04040; }
"""

_BADGE_TEXT = re.compile(r"\[[+!x?]\] (ok|warn|alert|unknown)\b")


def _esc(text: object) -> str:
    """Escaped text, with any status badge in it colored on top."""
    return _BADGE_TEXT.sub(
        lambda match: f'<span class="badge {match[1]}">{match[0]}</span>',
        html.escape(str(text)),
    )


def _table_html(table: Table) -> List[str]:
    def row(tag: str, cells: Sequence[str]) -> str:
        opening = [f'<{tag} class="name">'] * table.left + [f"<{tag}>"] * len(cells)
        return "<tr>" + "".join(
            f"{opened}{_esc(cell)}</{tag}>" for opened, cell in zip(opening, cells)
        ) + "</tr>"

    parts = ["<table>"]
    if any(table.headers):
        parts.append(row("th", table.headers))
    parts.extend(row("td", cells) for cells in table.rows)
    parts.append("</table>")
    return parts


def _timeline_html(block: Timeline) -> List[str]:
    """One block per lane, one track per span depth, one bar per span."""
    clock_s = block.timeline["clock_s"] or 1.0
    tracks: Dict[str, Dict[int, List[str]]] = {}
    for entry, label in block.labels():
        start, duration = entry.get("start") or 0.0, entry.get("duration") or 0.0
        classes = "bar"
        if entry["lane"] != "parent":
            classes += " worker"
        if entry["straggler"]:
            classes += " straggler"
        if entry["skew"]:
            classes += " skew"
        title = f"{label} start={start:.3f}s dur={duration:.3f}s"
        tracks.setdefault(entry["lane"], {}).setdefault(
            entry.get("depth") or 0, []
        ).append(
            f'<div class="{classes}" '
            f'style="left:{start / clock_s * 100.0:.3f}%;'
            f'width:{max(duration / clock_s * 100.0, 0.05):.3f}%" '
            f'title="{html.escape(title)}">'
            f"{html.escape(entry.get('name') or '?')}</div>"
        )
    parts: List[str] = []
    for lane, caption in block.captions().items():
        parts.append('<div class="lane-block">')
        parts.append(f'<div class="lane-name">{_esc(lane)} &mdash; {caption}</div>')
        for depth in sorted(tracks.get(lane, {})):
            parts.append('<div class="track">')
            parts.extend(tracks[lane][depth])
            parts.append("</div>")
        parts.append("</div>")
    return parts


def _pre(lines: Sequence[str]) -> str:
    return "<pre>" + "\n".join(_esc(line) for line in lines) + "</pre>"


def render_html(*documents: Document) -> str:
    """The documents as one self-contained HTML page."""
    parts = [
        "<!doctype html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>segugio inspect</title>",
        f"<style>{_STYLE}</style></head><body>",
    ]
    for document in documents:
        parts.append(f"<h1>{_esc(document.title)}</h1>")
        if document.lines:
            parts.append(_pre(document.lines))
        for section in document.sections:
            heading = section.title.rstrip(":")
            parts.append(f"<h2>{_esc(heading[:1].upper() + heading[1:])}</h2>")
            # consecutive lines share one <pre>; tables and the timeline
            # block stand alone
            for kind, blocks in groupby(section.body, key=type):
                if kind is str:
                    parts.append(_pre(list(blocks)))
                    continue
                as_html = _table_html if kind is Table else _timeline_html
                for block in blocks:
                    parts.extend(as_html(block))
    parts.append("</body></html>")
    return "\n".join(parts)
