"""The CI workflow names only files and subcommands that exist.

Read as plain text (no YAML dependency): a step that runs a deleted test
file or a removed ``repro.cli`` subcommand fails in CI before it tests
anything, so the mismatch is caught here first, with its line number.
"""

import argparse
import os
import re

from repro.cli import build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")

#: a repo path under tests/ or benchmarks/ (a glob stops at its first `*`)
_PATH = re.compile(r"(?<![\w./-])((?:tests|benchmarks)/[\w./-]*)")
#: the subcommand of a `python -m repro.cli [--global-flag ...] CMD` step
_COMMAND = re.compile(r"python -m repro\.cli(?:\s+--[\w-]+)*\s+([\w-]+)")


def _subcommands():
    (action,) = [
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return set(action.choices)


def _lines():
    with open(WORKFLOW) as stream:
        return list(enumerate(stream, start=1))


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


def test_the_patterns_see_the_workflow():
    # a pattern that matched nothing would pass the two checks vacuously
    text = "".join(line for _, line in _lines())
    assert "tests/test_runtime_checkpoint.py" in _PATH.findall(text)
    assert {"track", "inspect", "chaos", "bench"} <= set(_COMMAND.findall(text))
