"""The segugio-lint rule set (SEG001–SEG012).

Each rule protects a guarantee the runtime or the paper reproduction
relies on; the ``rationale`` string is surfaced by ``--list-rules`` and
documented in DESIGN.md §9. Scope notes:

* ``repro.obs`` is the ambient telemetry layer — it is *allowed* to read
  wall-clock time (it stamps logs and run ids) and is exempt from the
  telemetry-name rule because it forwards caller-supplied names.
* ``repro.runtime.retry`` owns backoff, the one sanctioned source of
  wall-clock sleep/jitter in the pipeline.
"""

from __future__ import annotations

import ast
import builtins
import re
from typing import Iterator, List, Optional, Set, Tuple

from tools.lint.engine import Finding, ModuleContext, Rule

#: modules whose job is wall-clock / entropy handling (SEG002 exempt)
DETERMINISM_EXEMPT_PREFIXES = ("repro.obs",)
DETERMINISM_EXEMPT_MODULES = frozenset({"repro.runtime.retry"})

#: the one module allowed to print: the CLI owns stdout
PRINT_ALLOWED_MODULES = frozenset({"repro.cli"})

#: packages that must never import presentation / evaluation layers
LAYERED_PACKAGES = frozenset({"repro.core", "repro.ml", "repro.dns"})
FORBIDDEN_FOR_LAYERED = ("repro.cli", "repro.eval", "repro.obs.run")

#: packages whose public functions must be fully annotated
ANNOTATED_PACKAGES = frozenset(
    {"repro.core", "repro.ml", "repro.runtime", "repro.dns", "repro.intel"}
)

#: the one module allowed to call process-kill primitives (SEG011): the
#: fault-injection layer kills workers *on purpose*; anywhere else a kill
#: is an unsupervised crash the degradation ladder cannot absorb
FAULT_PRIMITIVE_ALLOWED_MODULES = frozenset({"repro.runtime.faults"})

_FAULT_PRIMITIVE_CALLS = frozenset(
    {
        "os._exit",
        "os.kill",
        "os.killpg",
        "os.abort",
        "signal.raise_signal",
        "signal.pthread_kill",
    }
)

#: the one module allowed raw resource-accounting reads (SEG012): the
#: resource monitor normalizes platform quirks (ru_maxrss units, missing
#: /proc) once; a second reader would re-learn them wrong
RESOURCE_READ_ALLOWED_MODULES = frozenset({"repro.obs.resources"})

_RESOURCE_READ_CALLS = frozenset(
    {
        "resource.getrusage",
        "os.times",
        "tracemalloc.start",
        "tracemalloc.stop",
        "tracemalloc.get_traced_memory",
        "tracemalloc.take_snapshot",
        "tracemalloc.reset_peak",
        "tracemalloc.is_tracing",
    }
)

#: names whose bare ``from``-import smuggles a resource primitive past
#: the SEG012 dotted-call check, keyed by source module
_RESOURCE_SMUGGLED_NAMES = {
    "resource": frozenset({"getrusage"}),
    "os": frozenset({"times"}),
    "tracemalloc": frozenset(
        {
            "start",
            "stop",
            "get_traced_memory",
            "take_snapshot",
            "reset_peak",
            "is_tracing",
        }
    ),
}

#: the one repro.eval module allowed raw perf_counter reads (SEG010): the
#: benchmark harness measures best-of-N wall time *as its output*, and
#: routing it through a Stopwatch would add per-lap span bookkeeping to
#: the very path being measured
PERF_TIMING_EXEMPT_MODULES = frozenset({"repro.eval.bench"})

_PERF_TIMING_CALLS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

TELEMETRY_NAME_RE = re.compile(r"^segugio_[a-z0-9]+_[a-z0-9_]+$")

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random attributes that are deterministic constructors, not draws
#: from the hidden global-state RNG
_NP_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "BitGenerator", "PCG64", "PCG64DXSM", "SeedSequence", "Philox", "MT19937"}
)

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter", "OrderedDict"}
)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class NoPrintRule(Rule):
    """SEG001 — bare ``print()`` in library code.

    Absorbs ``tools/check_no_print.py``: library output must go through
    ``repro.obs.logs`` so ``segugio`` subcommands own their stdout.
    """

    rule_id = "SEG001"
    name = "no-print"
    rationale = (
        "library output must flow through repro.obs.logs; a stray print "
        "pollutes the stdout that segugio subcommands own"
    )
    node_types = (ast.Call,)

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and ctx.module not in PRINT_ALLOWED_MODULES
        ):
            yield self.finding(
                ctx,
                node,
                "bare print() in library code — use repro.obs.logs.get_logger instead",
            )


class DeterminismRule(Rule):
    """SEG002 — wall-clock reads and unseeded randomness.

    Detection results must be bit-identical run-to-run (checkpoint resume
    is verified byte-for-byte); any ambient entropy breaks that. Only
    ``repro.obs`` (timestamps) and ``repro.runtime.retry`` (backoff
    jitter/sleep) may touch the clock.
    """

    rule_id = "SEG002"
    name = "determinism"
    rationale = (
        "bit-identical reruns (checkpoint resume, run manifests) forbid "
        "wall-clock reads and unseeded RNGs outside repro.obs and "
        "repro.runtime.retry"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def _exempt(self, ctx: ModuleContext) -> bool:
        if ctx.module in DETERMINISM_EXEMPT_MODULES:
            return True
        return any(
            ctx.module == p or ctx.module.startswith(p + ".")
            for p in DETERMINISM_EXEMPT_PREFIXES
        )

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if self._exempt(ctx):
            return
        if isinstance(node, ast.ImportFrom):
            yield from self._check_import(node, ctx)
            return
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            return
        if name in _WALLCLOCK_CALLS:
            yield self.finding(
                ctx,
                node,
                f"wall-clock read {name}() breaks run-to-run reproducibility — "
                "take timestamps via repro.obs or thread them in as data",
            )
        elif name.startswith("random.") and name.count(".") == 1:
            yield self.finding(
                ctx,
                node,
                f"{name}() draws from the unseeded process-global RNG — "
                "use utils.rng.RngFactory / a seeded np.random.default_rng",
            )
        elif name in ("np.random.default_rng", "numpy.random.default_rng"):
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "np.random.default_rng() without a seed is entropy-seeded — "
                    "pass an explicit seed (utils.rng.RngFactory derives them)",
                )
        elif name.startswith(("np.random.", "numpy.random.")):
            attr = name.rsplit(".", 1)[1]
            if attr not in _NP_RANDOM_OK:
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() uses numpy's hidden global RNG state — "
                    "draw from an explicitly seeded Generator instead",
                )

    def _check_import(self, node: ast.ImportFrom, ctx: ModuleContext) -> Iterator[Finding]:
        if node.module == "random" and node.level == 0:
            yield self.finding(
                ctx,
                node,
                "importing from the stdlib random module pulls in the "
                "process-global RNG — use a seeded generator",
            )
        elif node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name in ("time", "time_ns"):
                    yield self.finding(
                        ctx,
                        node,
                        "from time import time smuggles a wall-clock read past "
                        "the determinism guard — import the module and go "
                        "through repro.obs",
                    )


class LayeringRule(Rule):
    """SEG003 — import layering between pipeline layers.

    ``repro.core`` / ``repro.ml`` / ``repro.dns`` are the algorithmic
    layers; importing the CLI, the evaluation harness, or the per-run
    telemetry bundle from them inverts the dependency direction and drags
    presentation concerns into checkpointed state. ``repro.obs`` must stay
    ambient and zero-dep: it may import nothing from ``repro.*`` outside
    itself, or instrumented code could recurse into its own telemetry.
    """

    rule_id = "SEG003"
    name = "layering"
    rationale = (
        "core/ml/dns must not depend on cli/eval/obs.run; repro.obs must "
        "import nothing from repro.* so instrumentation stays ambient"
    )
    node_types = (ast.Import, ast.ImportFrom)

    def _imported_modules(self, node: ast.AST, ctx: ModuleContext) -> List[str]:
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        assert isinstance(node, ast.ImportFrom)
        base = node.module or ""
        if node.level:  # resolve "from .x import y" against the current package
            parts = ctx.module.split(".")
            # level 1 = current package for __init__-style modules; for plain
            # modules the last component is the module itself.
            anchor = parts[: len(parts) - node.level]
            base = ".".join(anchor + ([base] if base else []))
        # `from repro.obs import run` imports repro.obs.run — include both the
        # base and each base.name candidate so submodule imports are caught.
        names = [base] if base else []
        for alias in node.names:
            if base and alias.name != "*":
                names.append(f"{base}.{alias.name}")
        return names

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        imported = self._imported_modules(node, ctx)
        if ctx.package in LAYERED_PACKAGES:
            for target in imported:
                for forbidden in FORBIDDEN_FOR_LAYERED:
                    if target == forbidden or target.startswith(forbidden + "."):
                        yield self.finding(
                            ctx,
                            node,
                            f"{ctx.package} must not import {forbidden} "
                            "(layering: algorithmic layers stay free of "
                            "presentation/evaluation/run-bundle code)",
                        )
                        break
        if ctx.module == "repro.obs" or ctx.module.startswith("repro.obs."):
            for target in imported:
                if target == "repro" or (
                    target.startswith("repro.") and not target.startswith("repro.obs")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"repro.obs must not import {target} — the telemetry "
                        "layer stays zero-dep and ambient",
                    )
                    break


class ExceptionHygieneRule(Rule):
    """SEG004 — bare ``except:`` and silent broad swallows.

    Blacklist-quality work (Zhao et al.) shows silent data-handling bugs
    corrupting ground truth; a swallowed exception in a feed loader is
    exactly that failure mode. Broad handlers must either re-raise or
    leave a structured-log trace.
    """

    rule_id = "SEG004"
    name = "exception-hygiene"
    rationale = (
        "silent swallows corrupt ground truth; broad handlers must "
        "re-raise or log through repro.obs.logs"
    )
    node_types = (ast.ExceptHandler,)

    _LOG_METHODS = frozenset({"debug", "info", "warning", "error", "exception", "critical"})

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare except: catches SystemExit/KeyboardInterrupt too — "
                "name the exception types (or BaseException + re-raise)",
            )
            return
        caught = dotted_name(node.type)
        if caught in ("Exception", "BaseException") and self._swallows(node):
            yield self.finding(
                ctx,
                node,
                f"except {caught}: swallows the error without logging — "
                "narrow the type, re-raise, or log via repro.obs.logs",
            )

    def _swallows(self, handler: ast.ExceptHandler) -> bool:
        for stmt in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(stmt, ast.Raise):
                return False
            if isinstance(stmt, ast.Call):
                func = stmt.func
                if isinstance(func, ast.Attribute) and func.attr in self._LOG_METHODS:
                    return False
        return True


class MutableDefaultRule(Rule):
    """SEG005 — mutable default arguments.

    A mutable default is shared across calls: accumulated state leaks
    between runs and silently breaks reproducibility of results built
    through repeated calls (exactly the tracker/ledger access pattern).
    """

    rule_id = "SEG005"
    name = "mutable-default"
    rationale = (
        "mutable defaults share state across calls, leaking data between "
        "runs and corrupting repeated-call results"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        args = node.args  # type: ignore[union-attr]
        for default in list(args.defaults) + [d for d in args.kw_defaults if d is not None]:
            reason = self._mutable(default)
            if reason:
                yield self.finding(
                    ctx,
                    default,
                    f"mutable default argument ({reason}) is shared across "
                    "calls — default to None and construct inside the body",
                )

    @staticmethod
    def _mutable(node: ast.AST) -> Optional[str]:
        if isinstance(node, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.rsplit(".", 1)[-1] in _MUTABLE_CALLS:
                return f"{name}()"
        return None


class TelemetryNameRule(Rule):
    """SEG006 — span names must be ``segugio_<area>_<name>`` literals.

    The run manifest pins per-day phase seconds by span name; a name
    computed at runtime (or off-convention) silently forks the telemetry
    namespace and breaks manifest diffing across runs.
    """

    rule_id = "SEG006"
    name = "telemetry-names"
    rationale = (
        "manifest diffing keys on telemetry names; they must be grep-able "
        "string literals in the segugio_<area>_<name> namespace"
    )
    node_types = (ast.Call,)

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        # repro.obs itself forwards caller-supplied names (Stopwatch shim,
        # Tracer internals) — the contract binds call sites, not the plumbing.
        if ctx.module == "repro.obs" or ctx.module.startswith("repro.obs."):
            return
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "span" and self._is_tracer(func.value):
            yield from self._check_name(node, ctx)

    @staticmethod
    def _is_tracer(receiver: ast.AST) -> bool:
        name = dotted_name(receiver)
        if name is not None:
            return name == "tracer" or name.endswith("_tracer") or name.endswith(".tracer")
        if isinstance(receiver, ast.Call):
            callee = dotted_name(receiver.func)
            return callee is not None and callee.split(".")[-1] == "current_tracer"
        return False

    def _check_name(self, node: ast.Call, ctx: ModuleContext) -> Iterator[Finding]:
        name_arg: Optional[ast.expr] = None
        if node.args:
            name_arg = node.args[0]
        else:
            for kw in node.keywords:
                if kw.arg == "name":
                    name_arg = kw.value
                    break
        if name_arg is None:
            return
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            yield self.finding(
                ctx,
                name_arg,
                "span name must be a string literal — computed names "
                "fork the telemetry namespace at runtime",
            )
            return
        if not TELEMETRY_NAME_RE.match(name_arg.value):
            yield self.finding(
                ctx,
                name_arg,
                f"span name {name_arg.value!r} does not match "
                "segugio_<area>_<name>",
            )


class AnnotationRule(Rule):
    """SEG007 — complete type annotations on public functions.

    ``repro.core`` / ``repro.ml`` / ``repro.runtime`` form the checkpointed
    surface: annotations there are load-bearing documentation for what
    crosses a checkpoint/manifest boundary, and keep the public API
    mechanically checkable.
    """

    rule_id = "SEG007"
    name = "public-annotations"
    rationale = (
        "core/ml/runtime public APIs cross checkpoint boundaries; complete "
        "annotations keep that surface mechanically checkable"
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if ctx.package not in ANNOTATED_PACKAGES:
            return
        if node.name.startswith("_"):
            return
        if ctx.enclosing(ast.FunctionDef, ast.AsyncFunctionDef) is not None:
            return  # nested helpers are not public API
        enclosing_class = ctx.enclosing(ast.ClassDef)
        if enclosing_class is not None and enclosing_class.name.startswith("_"):
            return
        missing: List[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(a.arg for a in args.kwonlyargs if a.annotation is None)
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append("*" + args.vararg.arg)
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append("**" + args.kwarg.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            yield self.finding(
                ctx,
                node,
                f"public function {node.name}() is missing annotations for: "
                + ", ".join(missing),
            )


class WhitespaceRule(Rule):
    """SEG008 — no tab indentation or trailing whitespace (raw-line rule).

    Keeps diffs reviewable: invisible whitespace churn shows up as changed
    lines with no semantic change.
    """

    rule_id = "SEG008"
    name = "whitespace"
    rationale = (
        "tab indents and trailing whitespace churn diffs with changes "
        "nobody can see"
    )
    wants_lines = True

    def check_line(self, lineno: int, text: str, ctx: ModuleContext) -> Iterator[Finding]:
        stripped = text[: len(text) - len(text.lstrip())]
        if "\t" in stripped:
            yield self.finding(
                ctx, (lineno, stripped.index("\t") + 1), "tab character in indentation"
            )
        if text != text.rstrip():
            yield self.finding(
                ctx, (lineno, len(text.rstrip()) + 1), "trailing whitespace"
            )


class AnnotationNameRule(Rule):
    """SEG009 — annotation names that are neither imported nor defined.

    Under ``from __future__ import annotations`` every annotation is a
    deferred string, so a missing import (``Optional[int]`` with only
    ``Iterable, Tuple`` imported) survives import, tests, and deployment —
    and only explodes when something calls ``typing.get_type_hints()``
    (runtime schema/validation passes, dataclass introspection).  This rule
    resolves annotation names statically against everything the module
    binds, making that whole bug class a lint failure instead of a latent
    crash.
    """

    rule_id = "SEG009"
    name = "annotation-names"
    rationale = (
        "from __future__ import annotations defers evaluation, so an "
        "unimported annotation name only crashes under get_type_hints(); "
        "resolve annotations statically instead"
    )

    _BUILTIN_NAMES = frozenset(dir(builtins))

    def finish_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        bound, has_star_import = self._bound_names(ctx.tree)
        if has_star_import:
            return  # a wildcard import can bind anything; stay silent
        known = bound | self._BUILTIN_NAMES
        for annotation in self._annotations(ctx.tree):
            yield from self._check_annotation(annotation, known, ctx)

    # -------------------------------------------------------------- #

    @staticmethod
    def _bound_names(tree: ast.AST) -> Tuple[Set[str], bool]:
        """Every name the module could bind, at any scope.

        Deliberately over-approximates (function-local bindings count):
        postponed evaluation means an annotation may legally reference a
        name bound later, and a false "undefined" on a real name would
        train people to distrust the rule.
        """
        bound: Set[str] = set()
        star = False
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        star = True
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(node, ast.arg):
                bound.add(node.arg)
        return bound, star

    @staticmethod
    def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                every = (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                    + [args.vararg, args.kwarg]
                )
                for arg in every:
                    if arg is not None and arg.annotation is not None:
                        yield arg.annotation
                if node.returns is not None:
                    yield node.returns
            elif isinstance(node, ast.AnnAssign):
                yield node.annotation

    def _check_annotation(
        self, annotation: ast.expr, known: Set[str], ctx: ModuleContext
    ) -> Iterator[Finding]:
        # A string as the *whole* annotation is an explicit forward
        # reference — parse and resolve it too.  Strings nested inside an
        # annotation are left alone: they may be Literal[...] values.
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                parsed = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return
            for name in self._undefined_names(parsed, known):
                yield self.finding(
                    ctx,
                    annotation,
                    f"annotation name {name!r} is neither imported nor "
                    "defined — invisible under from __future__ import "
                    "annotations until get_type_hints() runs",
                )
            return
        for node in ast.walk(annotation):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in known
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"annotation name {node.id!r} is neither imported nor "
                    "defined — invisible under from __future__ import "
                    "annotations until get_type_hints() runs",
                )

    @staticmethod
    def _undefined_names(expr: ast.expr, known: Set[str]) -> List[str]:
        return [
            node.id
            for node in ast.walk(expr)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in known
        ]


class PerfTimingRule(Rule):
    """SEG010 — bare perf-clock reads in the evaluation layer.

    ``repro.eval`` timings feed reports and manifests; a raw
    ``time.perf_counter()`` pair produces a number that bypasses the span
    tree, so ``segugio inspect`` cannot account for it and the trace
    disagrees with the report.  Evaluation code must time work through
    ``repro.obs.tracing`` (``Stopwatch`` phases or tracer spans), which
    yields the same float *and* lands in the manifest.  The benchmark
    harness (``repro.eval.bench``) is exempt: best-of-N lap timing is its
    output, and span bookkeeping inside the lap would skew the very
    measurement.
    """

    rule_id = "SEG010"
    name = "eval-perf-timing"
    rationale = (
        "repro.eval must time work through repro.obs.tracing spans/"
        "Stopwatch so manifests account for every reported second; bare "
        "perf-clock pairs bypass the trace"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def _in_scope(self, ctx: ModuleContext) -> bool:
        if ctx.module in PERF_TIMING_EXEMPT_MODULES:
            return False
        return ctx.module == "repro.eval" or ctx.module.startswith("repro.eval.")

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        if isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name in (
                        "perf_counter",
                        "perf_counter_ns",
                        "monotonic",
                        "monotonic_ns",
                        "process_time",
                        "process_time_ns",
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"from time import {alias.name} smuggles a bare "
                            "perf clock into repro.eval — time work through "
                            "repro.obs.tracing (Stopwatch/span)",
                        )
            return
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _PERF_TIMING_CALLS:
            yield self.finding(
                ctx,
                node,
                f"bare {name}() in repro.eval bypasses the span tree — "
                "time work through repro.obs.tracing (Stopwatch/span) so "
                "the manifest accounts for it",
            )


class FaultContainmentRule(Rule):
    """SEG011 — process-kill primitives outside the fault-injection layer.

    ``repro.runtime.faults`` kills pool workers *deliberately* so the
    supervisor's degradation ladder can be exercised; that is the one
    legitimate use.  Anywhere else, ``os._exit`` / ``os.kill`` /
    ``os.abort`` bypasses ``finally`` blocks, atexit handlers, and the
    atomic-write staging discipline — an un-absorbable crash dressed up as
    control flow.  Library code signals failure by raising; only the
    fault layer gets to pull the trigger.
    """

    rule_id = "SEG011"
    name = "fault-containment"
    rationale = (
        "process-kill primitives (os._exit, os.kill, os.abort, ...) are "
        "confined to repro.runtime.faults; elsewhere they are crashes the "
        "supervisor cannot absorb"
    )
    node_types = (ast.Call, ast.ImportFrom)

    _SMUGGLED_NAMES = frozenset(
        {"_exit", "kill", "killpg", "abort", "raise_signal", "pthread_kill"}
    )

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module in FAULT_PRIMITIVE_ALLOWED_MODULES:
            return
        if isinstance(node, ast.ImportFrom):
            if node.module in ("os", "signal") and node.level == 0:
                for alias in node.names:
                    if alias.name in self._SMUGGLED_NAMES:
                        yield self.finding(
                            ctx,
                            node,
                            f"from {node.module} import {alias.name} smuggles a "
                            "process-kill primitive past the fault-containment "
                            "guard — only repro.runtime.faults may kill processes",
                        )
            return
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _FAULT_PRIMITIVE_CALLS:
            yield self.finding(
                ctx,
                node,
                f"{name}() outside repro.runtime.faults is an unsupervised "
                "crash — raise an exception and let the supervisor's "
                "degradation ladder handle it",
            )


class ResourceReadContainmentRule(Rule):
    """SEG012 — raw resource-accounting reads outside the resource monitor.

    ``repro.obs.resources`` owns every platform quirk of resource
    accounting: ``ru_maxrss`` is KiB on Linux but bytes on macOS,
    ``/proc/self/io`` needs privileges some containers drop, and
    ``tracemalloc`` left running skews every later measurement.  A second
    call site re-learns those lessons wrong — and numbers that bypass the
    :class:`ResourceMonitor` never reach the manifest's ``resources`` key,
    so ``segugio inspect`` disagrees with whatever ad-hoc figure was
    printed.  Everyone else reads through the monitor (or its
    ``process_clock`` helper for worker self-timing).
    """

    rule_id = "SEG012"
    name = "resource-read-containment"
    rationale = (
        "raw resource reads (resource.getrusage, os.times, tracemalloc, "
        "/proc/self/*) are confined to repro.obs.resources; elsewhere "
        "they bypass the ResourceMonitor and its platform fallbacks"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module in RESOURCE_READ_ALLOWED_MODULES:
            return
        if isinstance(node, ast.ImportFrom):
            smuggled = _RESOURCE_SMUGGLED_NAMES.get(node.module or "")
            if smuggled and node.level == 0:
                for alias in node.names:
                    if alias.name in smuggled:
                        yield self.finding(
                            ctx,
                            node,
                            f"from {node.module} import {alias.name} smuggles a "
                            "raw resource read past the ResourceMonitor — go "
                            "through repro.obs.resources",
                        )
            return
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name in _RESOURCE_READ_CALLS:
            yield self.finding(
                ctx,
                node,
                f"{name}() outside repro.obs.resources bypasses the "
                "ResourceMonitor and its platform fallbacks — read through "
                "repro.obs.resources instead",
            )
            return
        if (
            name in ("open", "os.open", "io.open")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.startswith("/proc/")
        ):
            yield self.finding(
                ctx,
                node,
                f"reading {node.args[0].value} outside repro.obs.resources "
                "bypasses the ResourceMonitor — use its ResourceReader, "
                "which degrades gracefully when /proc is absent",
            )


def build_rules() -> Tuple[Rule, ...]:
    """One fresh instance of every shipped rule, in rule-id order."""
    return (
        NoPrintRule(),
        DeterminismRule(),
        LayeringRule(),
        ExceptionHygieneRule(),
        MutableDefaultRule(),
        TelemetryNameRule(),
        AnnotationRule(),
        WhitespaceRule(),
        AnnotationNameRule(),
        PerfTimingRule(),
        FaultContainmentRule(),
        ResourceReadContainmentRule(),
    )


ALL_RULE_IDS: Tuple[str, ...] = tuple(rule.rule_id for rule in build_rules())
