"""Per-rule positive/negative fixtures for the segugio-lint rule set.

Each test lints a small snippet as if it lived at a given module path —
the rules are path-sensitive (layering, exemptions), so the fixtures
exercise both the violating and the sanctioned placement of the same
code.  ``TestBanTable`` walks every row and every name of the call-ban
table; the per-rule classes pin the cases a name list cannot state
(docstring mentions, seeded constructors, the row predicates).
"""

import textwrap

import pytest

from tools.lint.engine import Engine
from tools.lint.rules import BANS, build_rules


def findings_for(source, module="repro.core.fake", path=None):
    if path is None:
        path = "src/" + module.replace(".", "/") + ".py"
    engine = Engine(build_rules())
    return engine.lint_source(textwrap.dedent(source), path=path, module=module)


def rules_hit(source, module="repro.core.fake"):
    return sorted({f.rule for f in findings_for(source, module=module)})


class TestSEG001Print:
    def test_flags_library_print(self):
        assert rules_hit("print('hello')\n") == ["SEG001"]

    def test_allows_cli_module(self):
        assert rules_hit("print('hello')\n", module="repro.cli") == []

    def test_ignores_docstring_mention(self):
        assert rules_hit('"""use print(x) like this"""\n') == []

    def test_ignores_method_named_print(self):
        assert rules_hit("obj.print('x')\n") == []


class TestSEG002Determinism:
    def test_flags_time_time(self):
        assert "SEG002" in rules_hit("import time\nt = time.time()\n")

    def test_flags_datetime_now(self):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert "SEG002" in rules_hit(src)

    def test_flags_stdlib_random(self):
        assert "SEG002" in rules_hit("import random\nx = random.random()\n")

    def test_flags_from_random_import(self):
        assert "SEG002" in rules_hit("from random import shuffle\n")

    def test_flags_from_time_import_time(self):
        assert "SEG002" in rules_hit("from time import time\n")

    def test_flags_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "SEG002" in rules_hit(src)

    def test_allows_seeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rules_hit(src) == []

    def test_flags_numpy_global_state(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert "SEG002" in rules_hit(src)

    def test_allows_generator_construction(self):
        src = "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n"
        assert rules_hit(src) == []

    def test_obs_package_is_exempt(self):
        src = "import time\nt = time.time()\n"
        assert rules_hit(src, module="repro.obs.logs") == []

    def test_retry_module_is_not_exempt(self):
        # the retry backoff is deterministic: it draws no jitter
        src = "import random\nx = random.uniform(0, 1)\n"
        assert "SEG002" in rules_hit(src, module="repro.runtime.retry")

    def test_perf_counter_is_allowed(self):
        # durations are not wall-clock identity; span timing relies on it
        assert rules_hit("import time\nt = time.perf_counter()\n") == []


class TestSEG003Layering:
    def test_core_must_not_import_cli(self):
        assert "SEG003" in rules_hit("import repro.cli\n", module="repro.core.graph")

    def test_core_must_not_import_eval_submodule(self):
        src = "from repro.eval.harness import score_split\n"
        assert "SEG003" in rules_hit(src, module="repro.core.graph")

    def test_ml_must_not_import_obs_run(self):
        src = "from repro.obs.run import RunTelemetry\n"
        assert "SEG003" in rules_hit(src, module="repro.ml.forest")

    def test_from_repro_obs_import_run_is_caught(self):
        src = "from repro.obs import run\n"
        assert "SEG003" in rules_hit(src, module="repro.dns.trace")

    def test_core_may_import_obs_tracing(self):
        src = "from repro.obs.tracing import current_tracer\n"
        assert rules_hit(src, module="repro.core.graph") == []

    def test_eval_may_import_core(self):
        src = "from repro.core.graph import BehaviorGraph\n"
        assert rules_hit(src, module="repro.eval.harness") == []

    def test_obs_must_not_import_repro(self):
        src = "from repro.core.graph import BehaviorGraph\n"
        assert "SEG003" in rules_hit(src, module="repro.obs.tracing")

    def test_obs_may_import_itself(self):
        src = "from repro.obs.logs import get_logger\n"
        assert rules_hit(src, module="repro.obs.tracing") == []

    def test_function_local_imports_are_caught_too(self):
        src = """
        def late():
            from repro.cli import main
            return main
        """
        hit = rules_hit(src, module="repro.core.tracker")
        assert "SEG003" in hit


class TestSEG004ExceptionHygiene:
    def test_flags_bare_except(self):
        src = """
        try:
            work()
        except:
            pass
        """
        assert "SEG004" in rules_hit(src)

    def test_flags_swallowed_exception(self):
        src = """
        try:
            work()
        except Exception:
            pass
        """
        assert "SEG004" in rules_hit(src)

    def test_allows_logged_broad_handler(self):
        src = """
        try:
            work()
        except Exception:
            log.warning("work failed")
        """
        assert rules_hit(src) == []

    def test_allows_reraising_broad_handler(self):
        src = """
        try:
            work()
        except BaseException:
            cleanup()
            raise
        """
        assert rules_hit(src) == []

    def test_allows_narrow_handler_with_pass(self):
        src = """
        try:
            work()
        except ValueError:
            pass
        """
        assert rules_hit(src) == []


class TestSEG005MutableDefault:
    def test_flags_list_literal(self):
        assert "SEG005" in rules_hit("def f(x=[]):\n    return x\n")

    def test_flags_dict_literal(self):
        assert "SEG005" in rules_hit("def f(x={}):\n    return x\n")

    def test_flags_set_call(self):
        assert "SEG005" in rules_hit("def f(x=set()):\n    return x\n")

    def test_flags_collections_defaultdict(self):
        src = "import collections\ndef f(x=collections.defaultdict(list)):\n    return x\n"
        assert "SEG005" in rules_hit(src)

    def test_flags_kwonly_default(self):
        assert "SEG005" in rules_hit("def f(*, x=[]):\n    return x\n")

    def test_flags_lambda_default(self):
        assert "SEG005" in rules_hit("g = lambda x=[]: x\n")

    def test_allows_none_and_immutables(self):
        src = "def f(a=None, b=0, c=(), d='x', e=frozenset()):\n    return a\n"
        assert rules_hit(src, module="repro.synth.fake") == []


class TestSEG007Annotations:
    def test_flags_missing_return(self):
        src = "def public(x: int):\n    return x\n"
        assert "SEG007" in rules_hit(src, module="repro.core.graph")

    def test_flags_missing_param(self):
        src = "def public(x) -> int:\n    return x\n"
        assert "SEG007" in rules_hit(src, module="repro.ml.metrics")

    def test_flags_unannotated_starargs(self):
        src = "def public(*args, **kwargs) -> None:\n    pass\n"
        assert "SEG007" in rules_hit(src, module="repro.runtime.ingest")

    def test_allows_fully_annotated(self):
        src = "def public(x: int, *, y: str = 'a') -> bool:\n    return True\n"
        assert rules_hit(src, module="repro.core.graph") == []

    def test_self_is_exempt_in_methods(self):
        src = """
        class Thing:
            def method(self, x: int) -> int:
                return x
        """
        assert rules_hit(src, module="repro.core.graph") == []

    def test_private_functions_exempt(self):
        src = "def _helper(x):\n    return x\n"
        assert rules_hit(src, module="repro.core.graph") == []

    def test_nested_functions_exempt(self):
        src = """
        def public(x: int) -> int:
            def inner(y):
                return y
            return inner(x)
        """
        assert rules_hit(src, module="repro.core.graph") == []

    def test_private_class_methods_exempt(self):
        src = """
        class _Internal:
            def method(self, x):
                return x
        """
        assert rules_hit(src, module="repro.core.graph") == []

    def test_other_packages_exempt(self):
        src = "def public(x):\n    return x\n"
        assert rules_hit(src, module="repro.synth.naming") == []


class TestSEG011FaultContainment:
    def test_flags_os_exit_outside_faults(self):
        src = "import os\nos._exit(1)\n"
        assert "SEG011" in rules_hit(src)

    def test_flags_os_kill_outside_faults(self):
        src = "import os, signal\nos.kill(123, signal.SIGKILL)\n"
        assert "SEG011" in rules_hit(src)

    def test_flags_smuggled_from_import(self):
        assert "SEG011" in rules_hit("from os import _exit\n")
        assert "SEG011" in rules_hit("from signal import raise_signal\n")

    def test_flags_the_fault_injection_module(self):
        # fault injection raises exceptions; no module may kill a process
        src = "import os\nos._exit(1)\n"
        assert "SEG011" in rules_hit(src, module="repro.runtime.faults")

    def test_allows_unrelated_os_calls(self):
        src = "import os\np = os.path.join('a', 'b')\nos.remove(p)\n"
        assert rules_hit(src) == []


class TestSEG012ResourceReadContainment:
    def test_flags_getrusage_outside_monitor(self):
        src = "import resource\nr = resource.getrusage(resource.RUSAGE_SELF)\n"
        assert "SEG012" in rules_hit(src)

    def test_flags_os_times_outside_monitor(self):
        assert "SEG012" in rules_hit("import os\nt = os.times()\n")

    def test_flags_tracemalloc_calls(self):
        src = "import tracemalloc\ntracemalloc.start()\nm = tracemalloc.get_traced_memory()\n"
        hits = [f.rule for f in findings_for(src)]
        assert hits.count("SEG012") == 2

    def test_flags_proc_self_open(self):
        src = "s = open('/proc/self/status').read()\n"
        assert "SEG012" in rules_hit(src)

    def test_flags_smuggled_from_imports(self):
        assert "SEG012" in rules_hit("from resource import getrusage\n")
        assert "SEG012" in rules_hit("from os import times\n")
        assert "SEG012" in rules_hit("from tracemalloc import start\n")

    def test_allows_the_resource_monitor_module(self):
        src = (
            "import os, resource, tracemalloc\n"
            "t = os.times()\n"
            "r = resource.getrusage(resource.RUSAGE_SELF)\n"
            "tracemalloc.is_tracing()\n"
            "s = open('/proc/self/io').read()\n"
        )
        assert rules_hit(src, module="repro.obs.resources") == []

    def test_allows_docstring_mentions_and_other_opens(self):
        src = '"""reads /proc/self/status for RSS"""\nf = open("notes.txt")\n'
        assert rules_hit(src) == []

    def test_allows_non_literal_open(self):
        src = "def read(path):\n    return open(path).read()\n"
        assert rules_hit(src, module="repro.synth.fake") == []


def _module_of(entry):
    """A concrete module an ``in_modules`` entry lists."""
    return entry.rstrip(".")


def _concrete(name):
    """A concrete dotted name for a table entry (``random.`` -> ``random.seed``)."""
    return name + "seed" if name.endswith(".") else name


def _disallowed_module(ban):
    return _module_of(ban.within[0]) + ".fake" if ban.within else "repro.core.fake"


def _cases(field):
    return [
        pytest.param(ban, _concrete(name), id=f"{ban.rule_id}:{name}")
        for ban in BANS
        for name in sorted(getattr(ban, field))
    ]


def _unrelated_cases():
    """``module.unrelated_helper`` for every module a row bans names of,
    unless the row bans that whole module (``random.``)."""
    return [
        pytest.param(ban, f"{module}.unrelated_helper", id=f"{ban.rule_id}:{module}")
        for ban in BANS
        for module in sorted({name.rpartition(".")[0] for name in ban.calls | ban.imports} - {""})
        if module + "." not in ban.calls | ban.imports
    ]


class TestBanTable:
    @pytest.mark.parametrize("ban,name", _cases("calls"))
    def test_call_flagged_outside_allowed_modules(self, ban, name):
        assert ban.rule_id in rules_hit(f"x = {name}(1)\n", module=_disallowed_module(ban))

    @pytest.mark.parametrize("ban,name", _cases("calls"))
    def test_call_allowed_in_allowed_modules(self, ban, name):
        for entry in ban.allowed:
            assert ban.rule_id not in rules_hit(f"x = {name}(1)\n", module=_module_of(entry))

    @pytest.mark.parametrize("ban,name", _cases("imports"))
    def test_smuggled_from_import_flagged(self, ban, name):
        module, _, attr = name.rpartition(".")
        source = f"from {module} import {attr} as alias\n"
        assert ban.rule_id in rules_hit(source, module=_disallowed_module(ban))
        for entry in ban.allowed:
            assert ban.rule_id not in rules_hit(source, module=_module_of(entry))

    @pytest.mark.parametrize("ban,name", _unrelated_cases())
    def test_unrelated_attribute_not_flagged(self, ban, name):
        module, _, attr = name.rpartition(".")
        source = f"x = {name}(1)\nfrom {module} import {attr}\n"
        assert ban.rule_id not in rules_hit(source, module=_disallowed_module(ban))

    @pytest.mark.parametrize("ban,name", _cases("modules"))
    def test_banned_module_import_flagged_in_every_spelling(self, ban, name):
        parent, _, last = name.rpartition(".")
        spellings = [
            f"import {name}\n",
            f"import {name}.sub as alias\n",
            f"from {name} import anything\n",
            f"from {name}.sub import anything\n",
        ] + ([f"from {parent} import {last}\n"] if parent else [])
        for source in spellings:
            assert ban.rule_id in rules_hit(source, module=_disallowed_module(ban)), source
            # outside the row's scope (tools, benchmarks) the import is fine
            assert ban.rule_id not in rules_hit(source, module="benchmarks.fake")

    def test_a_module_that_only_shares_a_prefix_is_not_banned(self):
        source = "import multiprocessing_extras\nfrom concurrent import other\n"
        assert "SEG013" not in rules_hit(source, module="repro.core.fake")

    def test_every_row_has_cases(self):
        # a row whose lists went empty would pass the matrix vacuously
        assert {ban.rule_id for ban in BANS} == {
            "SEG001", "SEG002", "SEG010", "SEG011", "SEG012", "SEG013"
        }
        assert all(ban.calls or ban.modules for ban in BANS)
        assert {p.values[0].rule_id for p in _unrelated_cases()} == {"SEG002", "SEG010", "SEG011", "SEG012"}
