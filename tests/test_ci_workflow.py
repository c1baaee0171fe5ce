"""The CI workflow and the Makefile name only files, subcommands and
flags that exist.

Read as plain text (no YAML dependency): a step that runs a deleted test
file, a removed ``repro.cli`` subcommand or a removed ``tools.lint`` flag
fails in CI before it tests anything, so the mismatch is caught here
first, with its line number.
"""

import argparse
import contextlib
import io
import os
import re
import shlex

from repro.cli import build_parser
from tools.lint.__main__ import build_parser as build_lint_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")
MAKEFILE = os.path.join(REPO_ROOT, "Makefile")

#: a repo path under tests/ or benchmarks/ (a glob stops at its first `*`)
_PATH = re.compile(r"(?<![\w./-])((?:tests|benchmarks)/[\w./-]*)")
#: the subcommand of a `python -m repro.cli [--global-flag ...] CMD` step
_COMMAND = re.compile(r"python -m repro\.cli(?:\s+--[\w-]+)*\s+([\w-]+)")
#: the arguments of a `python -m tools.lint ...` / `$(PYTHON) -m tools.lint ...`
_LINT = re.compile(r"(?:python|\$\(PYTHON\)) -m tools\.lint\b(.*)$")


def _subcommands():
    (action,) = [
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return set(action.choices)


def _lines(path=WORKFLOW):
    with open(path) as stream:
        return list(enumerate(stream, start=1))


def _lint_invocations():
    """``(FILE:LINE, argv)`` of every lint run in ci.yml and the Makefile."""
    found = []
    for path in (WORKFLOW, MAKEFILE):
        for number, line in _lines(path):
            match = _LINT.search(line)
            if match is not None:
                where = f"{os.path.basename(path)}:{number}"
                found.append((where, shlex.split(match.group(1))))
    return found


def _lint_parse_error(argv):
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            build_lint_parser().parse_args(argv)
    except SystemExit:
        return stderr.getvalue().strip().splitlines()[-1]
    return None


def test_named_test_and_benchmark_paths_exist():
    missing = [
        f"ci.yml:{number}: {path} does not exist"
        for number, line in _lines()
        for path in _PATH.findall(line)
        if not os.path.exists(os.path.join(REPO_ROOT, path))
    ]
    assert not missing, "\n".join(missing)


def test_cli_steps_run_existing_subcommands():
    known = _subcommands()
    unknown = [
        f"ci.yml:{number}: `repro.cli {command}` is not a subcommand"
        for number, line in _lines()
        for command in _COMMAND.findall(line)
        if command not in known
    ]
    assert not unknown, "\n".join(unknown)


def test_lint_invocations_parse():
    bad = []
    for where, argv in _lint_invocations():
        error = _lint_parse_error(argv)
        if error is not None:
            bad.append(f"{where}: `tools.lint {shlex.join(argv)}`: {error}")
    assert not bad, "\n".join(bad)


def test_the_patterns_see_the_workflow():
    # a pattern that matched nothing would pass the two checks vacuously
    text = "".join(line for _, line in _lines())
    assert "tests/test_inspect.py" in _PATH.findall(text)
    assert {"track", "inspect", "chaos", "bench"} <= set(_COMMAND.findall(text))


def test_the_lint_pattern_sees_both_files():
    # the parse check is vacuous unless it finds the lint runs it guards
    invocations = dict(_lint_invocations())
    assert {where.split(":")[0] for where in invocations} == {"ci.yml", "Makefile"}
    assert ["--format", "github", "--select", "SEG002", "tests"] in invocations.values()
    assert _lint_parse_error(["--no-such-flag"]) is not None
