"""Output formats for segugio-lint: human and GitHub annotations.

Severity shapes the output: ``error`` findings keep the classic
``path:line:col: RULE message`` shape (and ``::error`` annotations),
``warning`` findings are marked as such (and ``::warning`` annotations)
so CI surfaces them without failing the job.  The human format prints a
whole-program finding's flow path (``Finding.trace``) indented under it.
"""

from __future__ import annotations

from typing import List, Sequence

from tools.lint.engine import Finding

FORMATS = ("human", "github")


def render_human(findings: Sequence[Finding], files_scanned: int) -> str:
    lines: List[str] = []
    n_warnings = 0
    for finding in findings:
        marker = "" if finding.severity == "error" else f"{finding.severity}: "
        n_warnings += finding.severity == "warning"
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col}: "
            f"{finding.rule} {marker}{finding.message}"
        )
        lines.extend(f"    {hop}" for hop in finding.trace)
    if not findings:
        return f"segugio-lint: OK ({files_scanned} files clean)"
    breakdown = (
        f" ({len(findings) - n_warnings} error(s), {n_warnings} warning(s))"
        if n_warnings
        else ""
    )
    lines.append(
        f"segugio-lint: {len(findings)} finding(s){breakdown} "
        f"across {files_scanned} file(s)"
    )
    return "\n".join(lines)


def _escape_annotation(text: str) -> str:
    """Escape message data per the GitHub workflow-command grammar."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(findings: Sequence[Finding], files_scanned: int) -> str:
    lines: List[str] = []
    for finding in findings:
        command = "error" if finding.severity == "error" else "warning"
        lines.append(
            f"::{command} file={finding.path},line={finding.line},"
            f"col={finding.col},title={finding.rule}::"
            + _escape_annotation(finding.message)
        )
    lines.append(
        f"segugio-lint: {len(findings)} finding(s), "
        f"{files_scanned} file(s) scanned"
    )
    return "\n".join(lines)


def render(fmt: str, findings: Sequence[Finding], files_scanned: int) -> str:
    if fmt == "human":
        return render_human(findings, files_scanned)
    if fmt == "github":
        return render_github(findings, files_scanned)
    raise ValueError(f"unknown format {fmt!r} (expected one of {FORMATS})")
