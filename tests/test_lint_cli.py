"""End-to-end CLI behavior: output formats, exit codes, rule selection.

These drive ``tools.lint.__main__.main`` in-process (capsys) against
small throwaway trees, plus one subprocess check of the documented
``python -m tools.lint`` invocation.
"""

import os
import subprocess
import sys

import pytest

from tools.lint.__main__ import main
from tools.lint.project_rules import PROJECT_RULE_IDS
from tools.lint.rules import ALL_RULE_IDS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def dirty_tree(tmp_path, monkeypatch):
    """A tiny src tree with one SEG001 violation; cwd moved into it."""
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "noisy.py").write_text("print('boo')\n")
    (pkg / "quiet.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_findings_exit_one(self, dirty_tree, capsys):
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/core/noisy.py:1:1: SEG001" in out

    def test_missing_target_exits_two(self, dirty_tree, capsys):
        assert main(["does-not-exist"]) == 2

    def test_single_file_target(self, dirty_tree, capsys):
        assert main(["src/repro/core/quiet.py"]) == 0
        assert main(["src/repro/core/noisy.py"]) == 1

class TestFormats:
    def test_github_format(self, dirty_tree, capsys):
        assert main(["src", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert (
            "::error file=src/repro/core/noisy.py,line=1,col=1,title=SEG001::" in out
        )

    def test_github_format_escapes_newlines(self, dirty_tree, capsys):
        # messages never contain raw newlines today; the escaping contract
        # is exercised through the renderer directly
        from tools.lint.reporting import _escape_annotation

        assert _escape_annotation("a\nb%c") == "a%0Ab%25c"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == list(ALL_RULE_IDS) + list(PROJECT_RULE_IDS)


class TestDeterminismOnlyTrees:
    def test_default_walk_covers_benchmarks_and_examples(
        self, tmp_path, monkeypatch, capsys
    ):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        bench = tmp_path / "benchmarks"
        bench.mkdir()
        (bench / "bench_x.py").write_text("import time\nt = time.time()\n")
        monkeypatch.chdir(tmp_path)
        assert main([]) == 1
        out = capsys.readouterr().out
        assert "benchmarks/bench_x.py" in out
        assert "SEG002" in out

    def test_determinism_trees_skip_library_only_rules(
        self, tmp_path, monkeypatch, capsys
    ):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text("x = 1\n")
        examples = tmp_path / "examples"
        examples.mkdir()
        # print() is fine in a runnable example; SEG001 must not fire there
        (examples / "quickstart.py").write_text("print('hello')\n")
        monkeypatch.chdir(tmp_path)
        assert main([]) == 0
        assert "OK" in capsys.readouterr().out


class TestModuleInvocation:
    def test_python_dash_m_runs_from_repo_root(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "SEG001" in result.stdout


class TestWholeProgramPhase:
    """Two-phase orchestration: default runs add SEG101-SEG104, explicit
    targets stay per-file, warnings are exit-code neutral."""

    @pytest.fixture
    def project_tree(self, tmp_path, monkeypatch):
        """A default-target tree with a span registry and one used span."""
        pkg = tmp_path / "src" / "repro"
        (pkg / "obs").mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "obs" / "__init__.py").write_text("")
        (pkg / "obs" / "spans.py").write_text(
            "SPAN_NAMES = frozenset({'segugio_used_phase'})\n"
        )
        (pkg / "core.py").write_text(
            "def run(tracer: object) -> None:\n"
            "    with tracer.span('segugio_used_phase'):\n"
            "        pass\n"
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_clean_project_default_run(self, project_tree, capsys):
        assert main([]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unregistered_span_fails_default_run(self, project_tree, capsys):
        (project_tree / "src" / "repro" / "rogue.py").write_text(
            "def run(tracer: object) -> None:\n"
            "    with tracer.span('segugio_rogue_phase'):\n"
            "        pass\n"
        )
        assert main([]) == 1
        assert "SEG104" in capsys.readouterr().out

    def test_warning_findings_exit_zero(self, project_tree, capsys):
        # a registered-but-unused span name is a warning, not a failure
        (project_tree / "src" / "repro" / "obs" / "spans.py").write_text(
            "SPAN_NAMES = frozenset({'segugio_used_phase', "
            "'segugio_ghost_phase'})\n"
        )
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "segugio_ghost_phase" in out
        assert "warning" in out

    def test_warnings_annotate_not_error_in_github_format(
        self, project_tree, capsys
    ):
        (project_tree / "src" / "repro" / "obs" / "spans.py").write_text(
            "SPAN_NAMES = frozenset({'segugio_used_phase', "
            "'segugio_ghost_phase'})\n"
        )
        assert main(["--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::warning file=src/repro/obs/spans.py" in out

    def test_explicit_target_skips_project_phase(self, project_tree, capsys):
        (project_tree / "src" / "repro" / "rogue.py").write_text(
            "def run(tracer: object) -> None:\n"
            "    with tracer.span('segugio_rogue_phase'):\n"
            "        pass\n"
        )
        # per-file rules see nothing wrong with rogue.py on its own
        assert main(["src/repro/rogue.py"]) == 0


class TestGraphAndExplain:
    """A tree linked by imports and calls: rule selection, and the flow
    path a whole-program finding prints through that call graph."""

    @pytest.fixture
    def linked_tree(self, tmp_path, monkeypatch):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text(
            "from repro.b import helper\n"
            "\n"
            "\n"
            "def entry(seed: int) -> int:\n"
            "    return helper(seed)\n"
        )
        (pkg / "b.py").write_text(
            "def helper(n: int) -> int:\n    return n\n"
        )
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_explain_renders_flow_path(self, linked_tree, capsys):
        (linked_tree / "src" / "repro" / "c.py").write_text(
            "import numpy as np\n"
            "\n"
            "\n"
            "def make(n: int) -> object:\n"
            "    return np.random.default_rng(n)\n"
            "\n"
            "\n"
            "def outer(count: int) -> object:\n"
            "    return make(count)\n"
        )
        # the default human format prints the flow path under the finding
        assert main([]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("src/repro/c.py:5:1: SEG101 ")
        assert lines[1:3] == [
            "    src/repro/c.py:5: np.random.default_rng(...) in repro.c:make",
            "      <- passed as 'n' from repro.c:outer (line 9):",
        ]
        assert lines[3].startswith("segugio-lint: 1 finding(s)")

    def test_select_unknown_rule_exits_two(self, linked_tree, capsys):
        assert main(["--select", "SEG999"]) == 2

    def test_select_filters_rules(self, linked_tree, capsys):
        (linked_tree / "src" / "repro" / "noisy.py").write_text("print('x')\n")
        # SEG001 fires normally; selecting SEG002 only silences it
        assert main(["--select", "SEG002"]) == 0
        assert main(["--select", "SEG001"]) == 1
