"""The segugio-lint per-file rule set.

Each rule protects a guarantee the runtime or the paper reproduction
relies on; the ``rationale`` string is surfaced by ``--list-rules`` and
documented in DESIGN.md §9.

Six of the rules are rows of one table, :data:`BANS`: a row names the
dotted calls (and the ``from M import name`` spellings of them), or the
modules, that only a few modules may use, and :class:`BannedCalls`
enforces every row with the same name resolution, smuggled-import and
exemption checks.
The rest (layering, exception hygiene, mutable defaults, annotations)
look at program structure rather than at a name, and stay classes.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from tools.lint.engine import Finding, ModuleContext, Rule

#: packages that must never import presentation / evaluation layers
LAYERED_PACKAGES = frozenset({"repro.core", "repro.ml", "repro.dns"})
FORBIDDEN_FOR_LAYERED = ("repro.cli", "repro.eval", "repro.obs.run")

#: packages whose public functions must be fully annotated
ANNOTATED_PACKAGES = frozenset(
    {"repro.core", "repro.ml", "repro.runtime", "repro.dns", "repro.intel"}
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


def in_modules(module: str, entries: Iterable[str]) -> bool:
    """``module`` is listed; an entry ending in ``.`` (``repro.obs.``)
    lists the package and every module under it."""
    return any(
        module == entry.rstrip(".") or (entry.endswith(".") and module.startswith(entry))
        for entry in entries
    )


def _banned(name: str, names: FrozenSet[str]) -> bool:
    """``name`` is listed, or a direct attribute of a listed ``module.``."""
    if name in names:
        return True
    module = name.rpartition(".")[0]
    return bool(module) and module + "." in names


def _unseeded_numpy(call: ast.Call, name: str) -> Optional[str]:
    """SEG002's numpy cases: an entropy-seeded ``default_rng()`` and the
    hidden global-state draws (``np.random.rand`` and friends)."""
    if name in ("np.random.default_rng", "numpy.random.default_rng"):
        if call.args or call.keywords:
            return None
        return (
            f"{name}() without a seed is entropy-seeded — pass an explicit "
            "seed (utils.rng.RngFactory derives them)"
        )
    if not name.startswith(("np.random.", "numpy.random.")):
        return None
    if name.rsplit(".", 1)[1] not in _NP_RANDOM_OK:
        return (
            f"{name}() uses numpy's hidden global RNG state — draw from an "
            "explicitly seeded Generator instead"
        )
    return None


def _proc_open(call: ast.Call, name: str) -> Optional[str]:
    """SEG012's literal ``open("/proc/...")``."""
    if name not in ("open", "os.open", "io.open") or not call.args:
        return None
    path = call.args[0]
    if not (isinstance(path, ast.Constant) and str(path.value).startswith("/proc/")):
        return None
    return (
        f"reading {path.value} outside repro.obs.resources bypasses the "
        "ResourceMonitor — use its ResourceReader, which degrades gracefully "
        "when /proc is absent"
    )


@dataclasses.dataclass(frozen=True)
class Ban:
    """One row of the call-ban table.

    ``calls`` and ``imports`` hold dotted names; an entry ending in ``.``
    (``random.``) bans every direct attribute of that module.  A
    ``from M import name`` is banned when ``M.name`` matches ``imports``.
    ``modules`` may not be imported at all, nor any module under them
    (``import M``, ``import M.sub``, ``from M import x``, ``from P import
    M``).  The ban binds the modules in ``within`` (everywhere when empty)
    except those in ``allowed``, both read by :func:`in_modules`.
    ``check``, when set, sees each call the name lists do not ban and
    returns a message or ``None``.
    """

    rule_id: str
    name: str
    rationale: str
    calls: FrozenSet[str]
    imports: FrozenSet[str]
    allowed: Tuple[str, ...]
    message: str
    within: Tuple[str, ...] = ()
    check: Optional[Callable[[ast.Call, str], Optional[str]]] = None
    modules: FrozenSet[str] = frozenset()


_WALLCLOCK = frozenset(
    {"time.time", "time.time_ns", "date.today", "datetime.date.today"}
    | {f"{cls}.{fn}" for cls in ("datetime", "datetime.datetime") for fn in ("now", "utcnow", "today")}
)

_PERF_CLOCKS = frozenset(
    f"time.{clock}{ns}"
    for clock in ("perf_counter", "monotonic", "process_time")
    for ns in ("", "_ns")
)

_KILLS = ("_exit", "kill", "killpg", "abort", "raise_signal", "pthread_kill")

_TRACEMALLOC = ("start", "stop", "get_traced_memory", "take_snapshot", "reset_peak", "is_tracing")
_RESOURCE_READS = frozenset({"resource.getrusage", "os.times"} | {"tracemalloc." + fn for fn in _TRACEMALLOC})

#: SEG002's row, also the scope of the whole-program seed taint (SEG101)
DETERMINISM = Ban(
    rule_id="SEG002",
    name="determinism",
    rationale=(
        "bit-identical reruns (checkpoint resume, run manifests) forbid "
        "wall-clock reads and unseeded RNGs outside repro.obs and "
        "repro.runtime.retry"
    ),
    calls=_WALLCLOCK | {"random."},
    imports=frozenset({"time.time", "time.time_ns", "random."}),
    allowed=("repro.obs.", "repro.runtime.retry"),
    message=(
        "a wall-clock read or a draw from the process-global RNG breaks "
        "run-to-run reproducibility — take timestamps via repro.obs and "
        "draw from a seeded generator (utils.rng.RngFactory)"
    ),
    check=_unseeded_numpy,
)

BANS: Tuple[Ban, ...] = (
    Ban(
        rule_id="SEG001",
        name="no-print",
        rationale=(
            "library output must flow through repro.obs.logs; a stray print "
            "pollutes the stdout that segugio subcommands own"
        ),
        calls=frozenset({"print"}),
        imports=frozenset(),
        allowed=("repro.cli",),
        message="library output goes through repro.obs.logs.get_logger; "
        "only repro.cli owns stdout",
    ),
    DETERMINISM,
    Ban(
        rule_id="SEG010",
        name="eval-perf-timing",
        rationale=(
            "repro.eval must time work through repro.obs.tracing spans so "
            "every reported second is a span's duration; bare perf-clock "
            "pairs bypass the trace"
        ),
        calls=_PERF_CLOCKS,
        imports=_PERF_CLOCKS,
        within=("repro.eval.",),
        # best-of-N lap timing is the benchmark harness's output; a span
        # inside the lap would skew the very measurement
        allowed=("repro.eval.bench",),
        message="a bare perf clock in repro.eval bypasses the span tree — "
        "time work with a repro.obs.tracing span and read its duration "
        "(Tracer.phase_totals for a phase's total)",
    ),
    Ban(
        rule_id="SEG011",
        name="fault-containment",
        rationale=(
            "process-kill primitives (os._exit, os.kill, os.abort, ...) are "
            "confined to repro.runtime.faults; elsewhere they are crashes the "
            "supervisor cannot absorb"
        ),
        calls=frozenset({"os." + kill for kill in _KILLS[:4]} | {"signal." + kill for kill in _KILLS[4:]}),
        # the os/signal cross product: a from-import is caught even when misspelled onto the other module
        imports=frozenset(m + "." + kill for m in ("os", "signal") for kill in _KILLS),
        allowed=("repro.runtime.faults",),
        message="only repro.runtime.faults may kill processes; elsewhere a "
        "kill is an unsupervised crash — raise an exception and let the "
        "supervisor's degradation ladder handle it",
    ),
    Ban(
        rule_id="SEG012",
        name="resource-read-containment",
        rationale=(
            "raw resource reads (resource.getrusage, os.times, tracemalloc, "
            "/proc/self/*) are confined to repro.obs.resources; elsewhere "
            "they bypass the ResourceMonitor and its platform fallbacks"
        ),
        calls=_RESOURCE_READS,
        imports=_RESOURCE_READS,
        allowed=("repro.obs.resources",),
        message="raw resource reads belong to repro.obs.resources; elsewhere "
        "they bypass the ResourceMonitor and its platform fallbacks",
        check=_proc_open,
    ),
    Ban(
        rule_id="SEG013",
        name="one-process",
        rationale=(
            "a day runs in one process — shards bound memory, not cores — "
            "so repro imports no process or thread pool machinery"
        ),
        calls=frozenset(),
        imports=frozenset(),
        modules=frozenset({"concurrent.futures", "multiprocessing"}),
        within=("repro.",),
        allowed=(),
        message="the day runs in one process: loop over shards and tree "
        "batches in order instead of fanning them out to workers",
    ),
)


def _in_module(name: str, modules: FrozenSet[str]) -> bool:
    """``name`` is one of *modules* or a module under one of them."""
    return any(name == module or name.startswith(module + ".") for module in modules)


class BannedCalls(Rule):
    """Enforce one :class:`Ban` row: its calls and their ``from`` imports,
    and its banned modules however imported."""

    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    def __init__(self, ban: Ban) -> None:
        self.ban = ban
        self.rule_id = ban.rule_id
        self.name = ban.name
        self.rationale = ban.rationale

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        ban = self.ban
        if ban.within and not in_modules(ctx.module, ban.within):
            return
        if in_modules(ctx.module, ban.allowed):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _in_module(alias.name, ban.modules):
                    yield self.finding(
                        ctx, node, f"import {alias.name}: {ban.message}"
                    )
            return
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    if _in_module(name, ban.modules):
                        yield self.finding(
                            ctx,
                            node,
                            f"from {node.module} import {alias.name}: "
                            f"{ban.message}",
                        )
                    elif _banned(name, ban.imports):
                        yield self.finding(
                            ctx,
                            node,
                            f"from {node.module} import {alias.name} smuggles "
                            f"{node.module}.{alias.name}() past the call "
                            f"check: {ban.message}",
                        )
            return
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            return
        if _banned(name, ban.calls):
            yield self.finding(ctx, node, f"{name}(): {ban.message}")
        elif ban.check is not None:
            message = ban.check(node, name)
            if message is not None:
                yield self.finding(ctx, node, message)


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
        if in_modules(ctx.module, ("repro.obs.",)):
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

    A swallowed exception in a feed loader silently corrupts ground truth
    (Zhao et al. on blacklist quality); broad handlers re-raise or log.
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
    """SEG005 — mutable default arguments, shared across calls, leak
    state between runs (the tracker/ledger repeated-call pattern)."""

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


class AnnotationRule(Rule):
    """SEG007 — complete type annotations on public functions of the
    packages whose values cross checkpoint and manifest boundaries."""

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


def build_rules() -> Tuple[Rule, ...]:
    """One fresh instance of every shipped rule, in rule-id order."""
    rules: List[Rule] = [BannedCalls(ban) for ban in BANS]
    rules += [LayeringRule(), ExceptionHygieneRule(), MutableDefaultRule(), AnnotationRule()]
    return tuple(sorted(rules, key=lambda rule: rule.rule_id))


ALL_RULE_IDS: Tuple[str, ...] = tuple(rule.rule_id for rule in build_rules())
