"""Engine mechanics: dispatch, line channel, parse errors, module naming."""

import ast
import textwrap

import pytest

from tools.lint.engine import Engine, LintConfigError, Rule, module_name_for
from tools.lint.rules import build_rules


def lint(source, path="src/repro/synth/fake.py", module="repro.synth.fake", rules=None):
    engine = Engine(rules if rules is not None else build_rules())
    return engine.lint_source(textwrap.dedent(source), path=path, module=module)


class CallCounterRule(Rule):
    rule_id = "TST001"
    name = "call-counter"
    rationale = "test"
    node_types = (ast.Call,)

    def __init__(self):
        self.calls = 0

    def start_module(self, ctx):
        self.calls = 0

    def check_node(self, node, ctx):
        self.calls += 1
        return iter(())


class LineRule(Rule):
    rule_id = "TST002"
    name = "no-xxx-lines"
    rationale = "test raw-line channel"
    wants_lines = True

    def check_line(self, lineno, text, ctx):
        if "XXX" in text:
            yield self.finding(ctx, (lineno, text.index("XXX") + 1), "XXX marker")


class TestDispatch:
    def test_node_rule_sees_every_matching_node(self):
        rule = CallCounterRule()
        lint("f()\ng(h())\n", rules=[rule])
        assert rule.calls == 3

    def test_line_rule_sees_raw_lines(self):
        findings = lint("a = 1  # XXX fix\nb = 2\n", rules=[LineRule()])
        assert [f.line for f in findings] == [1]
        assert findings[0].rule == "TST002"
        assert findings[0].col == "a = 1  # XXX fix".index("XXX") + 1

    def test_findings_sorted_in_line_order(self):
        findings = lint(
            """
            def f(x=[]):
                print(x)
            """
        )
        assert [f.rule for f in findings] == ["SEG005", "SEG001"]  # line order
        assert findings[0].sort_key() <= findings[1].sort_key()
        assert [f.line for f in findings] == [2, 3]

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(LintConfigError):
            Engine([CallCounterRule(), CallCounterRule()])

    def test_rule_without_id_rejected(self):
        with pytest.raises(LintConfigError):
            Engine([Rule()])


class TestParseErrors:
    def test_syntax_error_becomes_seg000_finding(self):
        findings = lint("def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "SEG000"
        assert "does not parse" in findings[0].message

    def test_parse_error_does_not_mask_other_files(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        (tree / "broken.py").write_text("def broken(:\n")
        (tree / "printer.py").write_text("print('hi')\n")
        engine = Engine(build_rules())
        findings, count = engine.lint_tree(
            str(tmp_path / "src"), relative_to=str(tmp_path)
        )
        assert count == 2
        assert {f.rule for f in findings} == {"SEG000", "SEG001"}


class TestModuleNaming:
    def test_plain_module(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "graph.py"
        assert module_name_for(str(path), str(tmp_path / "src")) == "repro.core.graph"

    def test_package_init(self, tmp_path):
        path = tmp_path / "src" / "repro" / "obs" / "__init__.py"
        assert module_name_for(str(path), str(tmp_path / "src")) == "repro.obs"

    def test_outside_root_is_anonymous(self, tmp_path):
        assert module_name_for(str(tmp_path / "x.py"), str(tmp_path / "src")) == ""


class TestTreeWalk:
    def test_walk_finds_nested_files_and_skips_non_python(self, tmp_path):
        tree = tmp_path / "src" / "repro"
        (tree / "deep").mkdir(parents=True)
        (tree / "deep" / "mod.py").write_text("print('x')\n")
        (tree / "notes.txt").write_text("print('not python')\n")
        (tree / "__pycache__").mkdir()
        (tree / "__pycache__" / "mod.py").write_text("print('cache')\n")
        engine = Engine(build_rules())
        findings, count = engine.lint_tree(
            str(tmp_path / "src"), relative_to=str(tmp_path)
        )
        assert count == 1
        assert [f.path for f in findings] == ["src/repro/deep/mod.py"]
        assert findings[0].path.count("\\") == 0  # posix paths in reports
