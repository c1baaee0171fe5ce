"""Lint-engine edge cases: parse failures, empty files, and SEG012
smuggled-from-import variants."""

import pytest

from tools.lint.engine import Engine
from tools.lint.rules import build_rules


@pytest.fixture(scope="module")
def engine():
    return Engine(build_rules())


def lint(engine, source, module="repro.core.mod", path="src/repro/core/mod.py"):
    return engine.lint_source(source, path=path, module=module)


class TestSyntaxErrors:
    def test_syntax_error_reports_seg000(self, engine):
        (finding,) = lint(engine, "def broken(:\n    pass\n")
        assert finding.rule == "SEG000"
        assert "does not parse" in finding.message
        assert finding.line == 1

    def test_syntax_error_points_at_offending_line(self, engine):
        (finding,) = lint(engine, "x = 1\ndef broken(:\n")
        assert finding.line == 2

    def test_null_byte_reported_not_raised(self, engine):
        findings = lint(engine, "x = 1\x00\n")
        assert [f.rule for f in findings] == ["SEG000"]

    def test_deep_nesting_beyond_parser_limit(self, engine):
        # a pathological file must produce a finding, never a crash
        source = "x = " + "(" * 300 + "1" + ")" * 300 + "\n"
        findings = lint(engine, source)
        assert all(f.rule == "SEG000" for f in findings)


class TestEmptyFiles:
    def test_empty_file_is_clean(self, engine):
        assert lint(engine, "") == []

    def test_blank_lines_only_file_is_clean(self, engine):
        assert lint(engine, "\n\n\n") == []

    def test_docstring_only_file_is_clean(self, engine):
        assert lint(engine, '"""Just a docstring."""\n') == []


class TestSEG012SmuggledImports:
    def test_from_resource_import_getrusage(self, engine):
        findings = lint(engine, "from resource import getrusage\n")
        assert [f.rule for f in findings] == ["SEG012"]
        assert "smuggles" in findings[0].message

    def test_from_os_import_times(self, engine):
        findings = lint(engine, "from os import times\n")
        assert [f.rule for f in findings] == ["SEG012"]

    def test_aliased_smuggle_still_caught(self, engine):
        findings = lint(engine, "from resource import getrusage as gr\n")
        assert [f.rule for f in findings] == ["SEG012"]

    def test_tracemalloc_names_caught(self, engine):
        findings = lint(
            engine, "from tracemalloc import start, get_traced_memory\n"
        )
        assert [f.rule for f in findings] == ["SEG012", "SEG012"]

    def test_innocent_from_import_is_clean(self, engine):
        assert lint(engine, "from os import path\n") == []

    def test_plain_import_resource_is_clean(self, engine):
        # importing the module is fine; only calling getrusage is flagged
        assert lint(engine, "import resource\n") == []

    def test_allowed_module_may_smuggle(self, engine):
        findings = lint(
            engine,
            "from resource import getrusage\n",
            module="repro.obs.resources",
            path="src/repro/obs/resources.py",
        )
        assert findings == []

    def test_relative_import_named_like_resource_is_clean(self, engine):
        # `from .resource import getrusage` is a local module, not stdlib
        source = "from .resource import getrusage\n"
        assert lint(engine, source) == []
