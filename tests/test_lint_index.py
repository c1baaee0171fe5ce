"""Phase-1 project index: summaries and call resolution."""

import pytest

from tools.lint.index import build_index, summarize_expr, summarize_module


def write(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A two-module src tree with an import edge and a call edge."""
    write(tmp_path, "src/repro/__init__.py", "")
    write(
        tmp_path,
        "src/repro/alpha.py",
        "from repro.beta import helper\n"
        "\n"
        "\n"
        "def entry(seed):\n"
        "    value = helper(seed)\n"
        "    return value\n",
    )
    write(
        tmp_path,
        "src/repro/beta.py",
        "def helper(n):\n"
        "    return n + 1\n",
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestModuleSummary:
    def test_imports_and_functions(self, project):
        index = build_index(roots=("src",))
        summary = index.modules["repro.alpha"]
        assert summary["imports"]["helper"] == "repro.beta.helper"
        assert "entry" in summary["functions"]
        assert summary["functions"]["entry"]["params"] == ["seed"]

    def test_call_sites_carry_arg_summaries(self, project):
        index = build_index(roots=("src",))
        entry = index.function("repro.alpha", "entry")
        (call,) = [c for c in entry["calls"] if c["fn"] == "helper"]
        assert call["args"][0] == {"k": "name", "id": "seed"}

    def test_syntax_error_yields_stub_summary(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(tmp_path, "src/repro/broken.py", "def oops(:\n")
        monkeypatch.chdir(tmp_path)
        index = build_index(roots=("src",))
        summary = index.modules["repro.broken"]
        assert summary["parse_error"] is True
        assert summary["functions"] == {}

    def test_relative_import_resolves_against_package(self):
        summary = summarize_module(
            "from . import sibling\nfrom .other import thing\n",
            "src/repro/pkg/mod.py",
            "repro.pkg.mod",
        )
        assert summary["imports"]["sibling"] == "repro.pkg.sibling"
        assert summary["imports"]["thing"] == "repro.pkg.other.thing"

    def test_module_level_mutation_recorded(self):
        summary = summarize_module(
            "CACHE = {}\n"
            "\n"
            "\n"
            "def poke():\n"
            "    CACHE['k'] = 1\n"
            "    CACHE.update(a=2)\n",
            "src/repro/m.py",
            "repro.m",
        )
        hows = {m["how"] for m in summary["functions"]["poke"]["mutations"]}
        assert "subscript store" in hows
        assert ".update() call" in hows

    def test_global_statement_recorded(self):
        summary = summarize_module(
            "N = 0\n"
            "\n"
            "\n"
            "def bump():\n"
            "    global N\n"
            "    N = 1\n",
            "src/repro/m.py",
            "repro.m",
        )
        assert summary["functions"]["bump"]["global_writes"] == ["N"]

    def test_span_literals_collected(self):
        summary = summarize_module(
            "def run(tracer):\n"
            "    with tracer.span('segugio_demo_phase'):\n"
            "        pass\n",
            "src/repro/m.py",
            "repro.m",
        )
        (literal,) = summary["span_literals"]
        assert literal["name"] == "segugio_demo_phase"

    def test_key_reads_and_writes(self):
        summary = summarize_module(
            "def go(manifest):\n"
            "    manifest['written'] = 1\n"
            "    manifest.setdefault('defaulted', 2)\n"
            "    return manifest.get('gotten'), manifest['loaded']\n",
            "src/repro/m.py",
            "repro.m",
        )
        writes = {w["key"] for w in summary["key_writes"]}
        reads = {r["key"] for r in summary["key_reads"]}
        assert writes == {"written", "defaulted"}
        assert reads == {"gotten", "loaded"}

    def test_dict_literal_keys(self):
        summary = summarize_module(
            "def build():\n"
            "    manifest = {'a': 1, 'b': 2}\n"
            "    return manifest\n",
            "src/repro/m.py",
            "repro.m",
        )
        keys = {(d["recv"], d["key"]) for d in summary["dict_literals"]}
        assert ("manifest", "a") in keys and ("manifest", "b") in keys


class TestExprSummaries:
    def test_string_collection(self):
        import ast

        node = ast.parse("frozenset({'a', 'b'})", mode="eval").body
        summary = summarize_expr(node)
        assert summary["k"] == "call" and summary["fn"] == "frozenset"
        assert sorted(summary["args"][0]["v"]) == ["a", "b"]

    def test_depth_cap(self):
        import ast

        node = ast.parse("f(g(h(i(j(1)))))", mode="eval").body
        summary = summarize_expr(node)
        # bounded: drilling past the depth limit bottoms out at "other"
        inner = summary
        for _ in range(4):
            inner = inner["args"][0]
        assert inner == {"k": "other"}


class TestResolution:
    def test_from_import_resolution(self, project):
        index = build_index(roots=("src",))
        assert index.resolve_call("repro.alpha", "helper") == (
            "repro.beta",
            "helper",
        )

    def test_unknown_name_unresolved(self, project):
        index = build_index(roots=("src",))
        assert index.resolve_call("repro.alpha", "os.path.join") is None

    def test_callers_of(self, project):
        index = build_index(roots=("src",))
        (site,) = index.callers_of("repro.beta", "helper")
        assert site["module"] == "repro.alpha"
        assert site["function"] == "entry"
        assert site["call"]["args"][0] == {"k": "name", "id": "seed"}
