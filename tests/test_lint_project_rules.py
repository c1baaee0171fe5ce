"""Phase-2 interprocedural rules: SEG101/SEG103/SEG104 seeded violations.

Each rule gets a tree deliberately violating its contract (an unseeded
``default_rng()`` two calls deep, a manifest key read but never written,
an unregistered span name) plus a clean twin proving the rule stays
quiet on conforming code.
"""

import re

import pytest

from tools.lint.index import build_index
from tools.lint.project_rules import (
    DeterminismTaintRule,
    ManifestContractRule,
    SpanRegistryRule,
    canonical_name,
    run_project_rules,
)

def write(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def lint(tmp_path, monkeypatch, rule=None):
    monkeypatch.chdir(tmp_path)
    index = build_index(roots=("src",))
    if rule is None:
        return run_project_rules(index)
    return list(rule().run(index))


def test_canonical_name_resolves_aliases():
    imports = {"np": "numpy", "helper": "repro.beta.helper"}
    assert canonical_name("np.random.default_rng", imports) == (
        "numpy.random.default_rng"
    )
    assert canonical_name("helper", imports) == "repro.beta.helper"
    assert canonical_name("os.urandom", {}) == "os.urandom"


class TestSEG101DeterminismTaint:
    def test_unseeded_rng_two_calls_deep(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/deep.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def make_rng(n):\n"
            "    return np.random.default_rng(n)\n"
            "\n"
            "\n"
            "def outer(count):\n"
            "    return make_rng(count)\n",
        )
        findings = lint(tmp_path, monkeypatch, DeterminismTaintRule)
        (finding,) = findings
        assert finding.rule == "SEG101"
        assert finding.severity == "error"
        assert "'count'" in finding.message
        # the trace walks back through the caller hop
        assert any("outer" in hop for hop in finding.trace)

    def test_seed_param_two_calls_deep_is_clean(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/deep.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def make_rng(n):\n"
            "    return np.random.default_rng(n)\n"
            "\n"
            "\n"
            "def outer(seed):\n"
            "    return make_rng(seed)\n",
        )
        assert lint(tmp_path, monkeypatch, DeterminismTaintRule) == []

    def test_no_argument_rng(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/bare.py",
            "import numpy as np\n"
            "\n"
            "rng = np.random.default_rng()\n",
        )
        (finding,) = lint(tmp_path, monkeypatch, DeterminismTaintRule)
        assert "without a seed" in finding.message

    def test_entropy_seed_flagged(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/ent.py",
            "import os\n"
            "\n"
            "import numpy as np\n"
            "\n"
            "rng = np.random.default_rng(int.from_bytes(os.urandom(8), 'big'))\n",
        )
        (finding,) = lint(tmp_path, monkeypatch, DeterminismTaintRule)
        assert finding.rule == "SEG101"

    def test_loop_over_seed_list_is_clean(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/loop.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "def fit(seeds):\n"
            "    out = []\n"
            "    for seed in seeds:\n"
            "        out.append(np.random.default_rng(int(seed)))\n"
            "    return out\n",
        )
        assert lint(tmp_path, monkeypatch, DeterminismTaintRule) == []

    def test_attribute_seed_is_clean(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/attr.py",
            "import numpy as np\n"
            "\n"
            "\n"
            "class Model:\n"
            "    def fit(self):\n"
            "        return np.random.default_rng(self.config.random_state)\n",
        )
        assert lint(tmp_path, monkeypatch, DeterminismTaintRule) == []

    def test_obs_module_exempt(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(tmp_path, "src/repro/obs/__init__.py", "")
        write(
            tmp_path,
            "src/repro/obs/ids.py",
            "import numpy as np\n"
            "\n"
            "rng = np.random.default_rng()\n",
        )
        assert lint(tmp_path, monkeypatch, DeterminismTaintRule) == []

    def test_explicit_none_seed_flagged(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/none.py",
            "import numpy as np\n"
            "\n"
            "rng = np.random.default_rng(None)\n",
        )
        (finding,) = lint(tmp_path, monkeypatch, DeterminismTaintRule)
        assert "None" in finding.message


class TestSEG103ManifestContract:
    def _contract_tree(self, tmp_path, producer_keys, consumer_reads):
        write(tmp_path, "src/repro/__init__.py", "")
        write(tmp_path, "src/repro/obs/__init__.py", "")
        write(tmp_path, "src/repro/eval/__init__.py", "")
        body = ", ".join(f"'{k}': None" for k in producer_keys)
        write(
            tmp_path,
            "src/repro/obs/run.py",
            "def build_manifest():\n"
            f"    manifest = {{{body}}}\n"
            "    return manifest\n",
        )
        reads = "\n".join(
            f"    _ = manifest.get('{k}')" for k in consumer_reads
        )
        write(
            tmp_path,
            "src/repro/obs/manifest.py",
            "def read(manifest):\n" + (reads or "    pass") + "\n",
        )
        return tmp_path

    def test_unproduced_read_is_error(self, tmp_path, monkeypatch):
        self._contract_tree(tmp_path, ["run_id"], ["run_id", "ghost_key"])
        findings = lint(tmp_path, monkeypatch, ManifestContractRule)
        errors = [f for f in findings if f.severity == "error"]
        (finding,) = errors
        assert "ghost_key" in finding.message
        assert finding.path == "src/repro/obs/manifest.py"

    def test_unread_producer_is_warning(self, tmp_path, monkeypatch):
        self._contract_tree(tmp_path, ["run_id", "dead_key"], ["run_id"])
        findings = lint(tmp_path, monkeypatch, ManifestContractRule)
        (finding,) = findings
        assert finding.severity == "warning"
        assert "dead_key" in finding.message
        assert finding.path == "src/repro/obs/run.py"

    def test_matched_contract_is_clean(self, tmp_path, monkeypatch):
        self._contract_tree(tmp_path, ["run_id", "days"], ["run_id", "days"])
        assert lint(tmp_path, monkeypatch, ManifestContractRule) == []

    def test_archival_key_not_warned(self, tmp_path, monkeypatch):
        # "config" is allowlisted as archival — produced, never read, quiet
        self._contract_tree(tmp_path, ["run_id", "config"], ["run_id"])
        assert lint(tmp_path, monkeypatch, ManifestContractRule) == []

    def test_no_producers_no_findings(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/other.py",
            "def read(manifest):\n"
            "    return manifest.get('anything')\n",
        )
        assert lint(tmp_path, monkeypatch, ManifestContractRule) == []


class TestSEG104SpanRegistry:
    def _registry(self, tmp_path, names):
        body = ", ".join(f"'{n}'" for n in names)
        write(tmp_path, "src/repro/__init__.py", "")
        write(tmp_path, "src/repro/obs/__init__.py", "")
        write(
            tmp_path,
            "src/repro/obs/spans.py",
            f"SPAN_NAMES = frozenset({{{body}}})\n",
        )

    def test_unregistered_span_is_error(self, tmp_path, monkeypatch):
        self._registry(tmp_path, ["segugio_known_phase"])
        write(
            tmp_path,
            "src/repro/core.py",
            "def run(tracer):\n"
            "    with tracer.span('segugio_rogue_phase'):\n"
            "        pass\n",
        )
        findings = lint(tmp_path, monkeypatch, SpanRegistryRule)
        errors = [f for f in findings if f.severity == "error"]
        (finding,) = errors
        assert "segugio_rogue_phase" in finding.message

    def test_unused_registry_entry_is_warning(self, tmp_path, monkeypatch):
        self._registry(tmp_path, ["segugio_used_phase", "segugio_ghost_phase"])
        write(
            tmp_path,
            "src/repro/core.py",
            "def run(tracer):\n"
            "    with tracer.span('segugio_used_phase'):\n"
            "        pass\n",
        )
        (finding,) = lint(tmp_path, monkeypatch, SpanRegistryRule)
        assert finding.severity == "warning"
        assert "segugio_ghost_phase" in finding.message
        assert finding.path == "src/repro/obs/spans.py"

    def test_registered_spans_are_clean(self, tmp_path, monkeypatch):
        self._registry(tmp_path, ["segugio_used_phase"])
        write(
            tmp_path,
            "src/repro/core.py",
            "def run(tracer):\n"
            "    with tracer.span('segugio_used_phase'):\n"
            "        pass\n",
        )
        assert lint(tmp_path, monkeypatch, SpanRegistryRule) == []

    def test_missing_registry_module_is_error(self, tmp_path, monkeypatch):
        write(tmp_path, "src/repro/__init__.py", "")
        write(
            tmp_path,
            "src/repro/core.py",
            "def run(tracer):\n"
            "    with tracer.span('segugio_some_phase'):\n"
            "        pass\n",
        )
        (finding,) = lint(tmp_path, monkeypatch, SpanRegistryRule)
        assert "registry module" in finding.message

    @pytest.mark.parametrize(
        "call",
        [
            'current_tracer().span("segugio_" + area)',
            "self._tracer.span(area)",
            "tracer.span(name=area)",
        ],
        ids=["current_tracer", "self_tracer", "name_keyword"],
    )
    def test_computed_span_name_is_error(self, tmp_path, monkeypatch, call):
        self._registry(tmp_path, ["segugio_known_phase"])
        write(
            tmp_path,
            "src/repro/core.py",
            f"def run(self, tracer, area):\n    with {call}:\n        pass\n",
        )
        errors = [
            f for f in lint(tmp_path, monkeypatch, SpanRegistryRule)
            if f.severity == "error"
        ]
        assert [(f.path, f.line) for f in errors] == [("src/repro/core.py", 2)]
        assert "string literal" in errors[0].message

    def test_off_convention_literal_is_unregistered(self, tmp_path, monkeypatch):
        self._registry(tmp_path, ["segugio_known_phase"])
        write(
            tmp_path,
            "src/repro/core.py",
            "def run():\n    with current_tracer().span('fit'):\n        pass\n",
        )
        errors = [
            f for f in lint(tmp_path, monkeypatch, SpanRegistryRule)
            if f.severity == "error"
        ]
        assert [(f.line, "'fit'" in f.message) for f in errors] == [(2, True)]

    def test_obs_forwards_names_and_other_spans_are_ignored(self, tmp_path, monkeypatch):
        # Stopwatch.phase hands its caller's name to the tracer; a regex
        # match's .span(group) is not a tracer call at all
        self._registry(tmp_path, ["segugio_known_phase"])
        write(
            tmp_path,
            "src/repro/obs/tracing.py",
            "def phase(name):\n    with current_tracer().span(name):\n        pass\n",
        )
        write(
            tmp_path,
            "src/repro/core.py",
            "def run(match, group):\n"
            "    with current_tracer().span('segugio_known_phase'):\n"
            "        return match.span(group)\n",
        )
        assert lint(tmp_path, monkeypatch, SpanRegistryRule) == []


class TestLiveRepoContracts:
    """The real tree must satisfy every whole-program contract."""

    @pytest.fixture(scope="class")
    def live_findings(self):
        import os

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        index = build_index(
            roots=("src", "tools", "benchmarks"), relative_to=repo
        )
        return index, run_project_rules(index)

    def test_repo_is_clean(self, live_findings):
        _, findings = live_findings
        assert findings == [], [
            f"{f.path}:{f.line} {f.rule} {f.message}" for f in findings
        ]

    def test_live_span_sites_all_registered(self, live_findings):
        from repro.obs.spans import SPAN_NAMES

        index, _ = live_findings
        names = {name for _, name, _ in index.span_sites()}
        # every literal in the tree is registered (SEG104 proper), and the
        # registry carries no dead names (the warning channel stays quiet)
        assert names <= SPAN_NAMES

    def test_registered_names_follow_the_convention(self):
        from repro.obs.spans import SPAN_NAMES

        # the registry is the one place a span name is spelled out, so the
        # segugio_<area>_<name> convention is checked here, once
        convention = re.compile(r"^segugio_[a-z0-9]+_[a-z0-9_]+$")
        assert sorted(n for n in SPAN_NAMES if not convention.match(n)) == []
