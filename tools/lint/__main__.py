"""Command-line entry point: ``python -m tools.lint`` from the repo root.

Two phases. The per-file phase walks each target with the SEG0xx rules.
The whole-program phase builds the project index over ``src`` + ``tools``
+ ``benchmarks`` and runs the interprocedural SEG1xx rules on it; it runs
on default-target invocations and is skipped for explicit targets.

Exit codes: 0 = clean (warnings alone do not fail), 1 = error findings,
2 = usage error (bad target, unknown rule).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Set

from tools.lint.engine import Engine, Finding, LintConfigError
from tools.lint.index import INDEX_ROOTS, build_index
from tools.lint.project_rules import (
    PROJECT_RULE_IDS,
    build_project_rules,
    run_project_rules,
)
from tools.lint.reporting import FORMATS, render
from tools.lint.rules import ALL_RULE_IDS, build_rules

#: trees outside the package that still carry the determinism contract:
#: benchmark numbers and example transcripts must be reproducible, but
#: the rest of the library rule set (layering, annotations, print) is
#: deliberately out of scope for scripts.
DETERMINISM_ONLY_TREES = ("benchmarks", "examples")
DETERMINISM_ONLY_RULES = frozenset({"SEG000", "SEG002"})
#: whole-program rules that still bind determinism-only trees
DETERMINISM_ONLY_PROJECT_RULES = frozenset({"SEG101"})


def _determinism_only(target: str) -> bool:
    parts = os.path.normpath(os.path.relpath(target)).split(os.sep)
    return bool(parts) and parts[0] in DETERMINISM_ONLY_TREES


def _default_targets() -> List[str]:
    """``src`` plus any determinism-only trees present in the checkout."""
    return ["src"] + [d for d in DETERMINISM_ONLY_TREES if os.path.isdir(d)]


def _package_root_for(target: str) -> str:
    """Directory that anchors dotted module names for files under ``target``.

    ``src`` (or anything containing a ``src`` path component) anchors at
    that component so ``src/repro/core/x.py`` → ``repro.core.x``; other
    targets anchor at themselves.
    """
    parts = os.path.normpath(target).split(os.sep)
    if "src" in parts:
        idx = parts.index("src")
        return os.sep.join(parts[: idx + 1]) or "src"
    return target if os.path.isdir(target) else os.path.dirname(target) or "."


def _parse_select(raw: Optional[str]) -> Optional[Set[str]]:
    if raw is None:
        return None
    known = set(ALL_RULE_IDS) | set(PROJECT_RULE_IDS)
    selected = {item.strip().upper() for item in raw.split(",") if item.strip()}
    unknown = selected - known
    if unknown:
        raise LintConfigError(
            f"unknown rule id(s) in --select: {', '.join(sorted(unknown))}"
        )
    return selected


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="segugio-lint: enforce determinism, layering, and "
        "telemetry contracts over the source tree — per-file rules "
        "(SEG0xx) plus whole-program analyses (SEG101-SEG105)",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src plus, with only "
        "the determinism rule SEG002, benchmarks/ and examples/; the "
        "whole-program phase runs only on default-target invocations)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (e.g. SEG002,SEG101); "
        "default: all rules",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    engine = Engine(build_rules())

    if args.list_rules:
        for rule in engine.rules:
            print(f"{rule.rule_id}  {rule.name}: {rule.rationale}")
        for project_rule in build_project_rules():
            print(
                f"{project_rule.rule_id}  {project_rule.name} "
                f"[whole-program]: {project_rule.rationale}"
            )
        return 0

    try:
        select = _parse_select(args.select)
    except LintConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    # ------------------------------ per-file phase -------------------- #
    findings: List[Finding] = []
    files_scanned = 0
    for target in args.targets or _default_targets():
        if os.path.isdir(target):
            batch, count = engine.lint_tree(
                target, package_root=_package_root_for(target)
            )
            files_scanned += count
        elif os.path.isfile(target):
            report_path = os.path.relpath(target).replace(os.sep, "/")
            batch = engine.lint_file(
                target, _package_root_for(target), report_path
            )
            files_scanned += 1
        else:
            print(f"error: no such file or directory: {target}", file=sys.stderr)
            return 2
        if _determinism_only(target):
            batch = [f for f in batch if f.rule in DETERMINISM_ONLY_RULES]
        findings.extend(batch)

    # ------------------------------ whole-program phase --------------- #
    if not args.targets:
        findings.extend(
            f
            for f in run_project_rules(build_index(INDEX_ROOTS))
            if not (
                _determinism_only(f.path)
                and f.rule not in DETERMINISM_ONLY_PROJECT_RULES
            )
        )

    if select is not None:
        findings = [f for f in findings if f.rule in select]
    findings.sort(key=Finding.sort_key)

    print(render(args.format, findings, files_scanned))
    return 1 if any(f.severity == "error" for f in findings) else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout went away mid-report (e.g. piped into `head`); the
        # truncation was the reader's choice, not a lint failure
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
