"""Phase 2 of the whole-program analyzer: interprocedural rules.

These rules run on the :class:`tools.lint.index.ProjectIndex` built by
phase 1 — never on raw source — so they see across file boundaries:

* **SEG101** — determinism taint: every RNG constructor's seed argument
  must flow (transitively, through helper calls and loop variables) from
  a parameter or config field whose name matches the seed allowlist, or
  from a constant.  Entropy sources (``os.urandom``, ``secrets.*``,
  ``uuid.uuid4``) as seeds are always findings.
* **SEG102** — pool-callable safety: every callable handed to
  ``supervised_map`` / ``ProcessPoolExecutor.submit`` must be a
  module-level function (picklable by construction) that neither writes
  ``global`` names nor mutates module-level state.
* **SEG103** — manifest contract: string keys written by the run
  manifest's producer (``repro.obs.run``) are checked against keys read
  by its one consumer, the reader in ``repro.obs.manifest`` (the edge
  store's own manifest is checked the same way inside
  ``repro.datasets.edgestore``).  A key read but never produced is an
  error; a key produced but never read is a warning (unless allowlisted
  as archival).
* **SEG104** — span-name registry: every ``span("segugio_*")`` literal
  must be declared in :data:`repro.obs.spans.SPAN_NAMES`, and outside
  ``repro.obs`` (which forwards its callers' names) every name handed to
  a tracer must be a literal, so it too is held to the registry;
  registry entries with no call site are warnings.
* **SEG105** — worker-telemetry isolation: code transitively reachable
  from a pool-submitted callable must not call the ambient telemetry
  getters (``current_tracer`` and friends).  Inside a worker those
  resolve to whatever :mod:`repro.obs.workerctx` installed — or, on the
  in-process serial floor, to the *parent's* tracer — so direct ambient
  emission either dodges the sidecar merge or double-counts into the
  parent span tree.  Worker-side telemetry goes through the worker
  context API (the one module allowlisted here).

Each finding carries a ``trace`` — the hop-by-hop flow path — printed
indented under the finding.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.lint.engine import Finding
from tools.lint.index import ProjectIndex
from tools.lint.rules import DETERMINISM, in_modules

#: parameter/attribute names allowed to carry seed material
SEED_NAME_RE = re.compile(r"(^|_)(seed|seeds|random_state|entropy)($|_)")

#: canonical (alias-resolved) names that construct an RNG; the value is
#: the position/keyword their seed argument arrives at
RNG_CONSTRUCTORS = {
    "numpy.random.default_rng": ("seed",),
    "numpy.random.Generator": ("bit_generator",),
    "numpy.random.PCG64": ("seed",),
    "numpy.random.SeedSequence": ("entropy",),
    "random.Random": ("x",),
    "repro.utils.rng.RngFactory": ("seed",),
}

#: canonical names that read the OS entropy pool — never a valid seed
ENTROPY_SOURCES = ("os.urandom", "secrets.", "uuid.uuid4")

#: pure pass-through callables a seed may flow through unchanged
_SEED_TRANSPARENT_CALLS = frozenset({"int", "abs", "round", "hash", "str"})
#: iteration wrappers whose elements carry their arguments' taint
_SEED_TRANSPARENT_ITERS = frozenset({"enumerate", "zip", "sorted", "list", "tuple", "reversed", "range"})
#: method/function suffixes that *derive* seeds (SeedSequence.spawn, RngFactory.stream_seed)
_SEED_DERIVERS = frozenset({"spawn", "child"})

_TAINT_DEPTH_LIMIT = 12

#: (module, function) entry points that ship their first argument to a
#: worker process
POOL_ENTRYPOINTS = frozenset({("repro.runtime.supervisor", "supervised_map")})

#: SEG103 contract endpoints: module -> receiver names that *are* the
#: manifest in that module.  Producers contribute written keys,
#: consumers contribute read keys; a module may be both.
MANIFEST_PRODUCERS: Dict[str, Tuple[str, ...]] = {
    "repro.obs.run": ("manifest",),
    "repro.datasets.edgestore": ("manifest",),
}
MANIFEST_CONSUMERS: Dict[str, Tuple[str, ...]] = {
    # the run manifest has one reader: TelemetryRun and load_manifest
    "repro.obs.manifest": ("manifest",),
    # the edge store reads back its own, separate manifest
    "repro.datasets.edgestore": ("manifest",),
}

#: produced keys that are deliberately write-only (archival record, not
#: a reader contract) — key -> documented reason
MANIFEST_ARCHIVAL_KEYS: Dict[str, str] = {
    "config": "full config archived verbatim for reproducibility; "
    "readers use config_sha256",
}

SPAN_REGISTRY_MODULE = "repro.obs.spans"
SPAN_REGISTRY_NAME = "SPAN_NAMES"

#: SEG105: the ambient telemetry getters — resolving one of these inside
#: a pool-callable's transitive closure is a finding
AMBIENT_GETTERS = frozenset(
    {
        ("repro.obs.tracing", "current_tracer"),
        ("repro.obs.events", "current_event_log"),
        ("repro.obs.resources", "current_monitor"),
        ("repro.obs.provenance", "current_decision_log"),
    }
)

#: SEG105: modules allowed to touch the ambient getters from worker
#: context — the sanctioned bridge that installs the worker stack
WORKER_TELEMETRY_MODULES = frozenset({"repro.obs.workerctx"})


class ProjectRule:
    """Base class for whole-program rules (phase 2)."""

    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        path: str,
        lineno: int,
        message: str,
        severity: str = "error",
        trace: Sequence[str] = (),
    ) -> Finding:
        return Finding(
            path=path,
            line=int(lineno),
            col=1,
            rule=self.rule_id,
            message=message,
            severity=severity,
            trace=tuple(trace),
        )


def canonical_name(name: str, imports: Dict[str, str]) -> str:
    """Alias-resolve a dotted call name: ``np.random.default_rng`` with
    ``import numpy as np`` becomes ``numpy.random.default_rng``."""
    head, sep, rest = name.partition(".")
    target = imports.get(head)
    if target is None:
        return name
    return f"{target}.{rest}" if sep else target


def _determinism_scoped(module: str) -> bool:
    return not in_modules(module, DETERMINISM.allowed)


class _Taint:
    """Verdict of a seed-flow trace: seeded, violated, or unknown."""

    SEEDED = "seeded"
    VIOLATION = "violation"

    def __init__(self, verdict: str, reason: str = "") -> None:
        self.verdict = verdict
        self.reason = reason

    @property
    def ok(self) -> bool:
        return self.verdict == self.SEEDED


class DeterminismTaintRule(ProjectRule):
    """SEG101 — RNG seeds must flow from the seed allowlist."""

    rule_id = "SEG101"
    name = "determinism-taint"
    rationale = (
        "bit-identical reruns require every RNG to be constructed from "
        "checkpointed seed material; the seed argument must trace back "
        "to an allowlisted parameter, config field, or constant"
    )

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        for module, summary in sorted(index.modules.items()):
            if not _determinism_scoped(module):
                continue
            imports: Dict[str, str] = summary["imports"]  # type: ignore[assignment]
            functions: Dict[str, Dict[str, object]] = summary["functions"]  # type: ignore[assignment]
            for qualname, info in sorted(functions.items()):
                for call in info["calls"]:  # type: ignore[union-attr]
                    fn = canonical_name(str(call["fn"]), imports)
                    spec = RNG_CONSTRUCTORS.get(fn)
                    if spec is None:
                        continue
                    trace = [
                        f"{summary['path']}:{call['lineno']}: "
                        f"{call['fn']}(...) in {module}:{qualname}"
                    ]
                    seed = self._seed_arg(call, spec)
                    if seed is None:
                        verdict = _Taint(
                            _Taint.VIOLATION,
                            f"{call['fn']}() called without a seed argument "
                            "— draws OS entropy at construction",
                        )
                    else:
                        verdict = self._taint(
                            index, module, info, seed, trace, set(), 0
                        )
                    if verdict.ok:
                        continue
                    lineno = int(call["lineno"])
                    yield self.finding(
                        str(summary["path"]),
                        lineno,
                        f"seed for {call['fn']}() does not flow from the "
                        f"seed allowlist: {verdict.reason}",
                        trace=trace,
                    )

    @staticmethod
    def _seed_arg(call: Dict[str, object], spec: Tuple[str, ...]) -> Optional[Dict[str, object]]:
        args: List[Dict[str, object]] = call["args"]  # type: ignore[assignment]
        kw: Dict[str, Dict[str, object]] = call["kw"]  # type: ignore[assignment]
        if args:
            return args[0]
        for name in spec + ("seed", "random_state"):
            if name in kw:
                return kw[name]
        return None

    def _taint(
        self,
        index: ProjectIndex,
        module: str,
        fn_info: Dict[str, object],
        expr: Dict[str, object],
        trace: List[str],
        visited: Set[Tuple[str, str, str]],
        depth: int,
    ) -> _Taint:
        if depth > _TAINT_DEPTH_LIMIT:
            return _Taint(_Taint.VIOLATION, "flow too deep to analyze")
        kind = expr.get("k")
        if kind == "const":
            if expr.get("v") is None:
                return _Taint(
                    _Taint.VIOLATION,
                    "explicit None seed draws OS entropy",
                )
            trace.append(f"  = constant {expr.get('v')!r} (seeded)")
            return _Taint(_Taint.SEEDED)
        if kind == "name":
            return self._taint_name(
                index, module, fn_info, str(expr["id"]), trace, visited, depth
            )
        if kind == "attr":
            chain = str(expr["dotted"])
            last = chain.rsplit(".", 1)[-1]
            if SEED_NAME_RE.search(last):
                trace.append(f"  = {chain} (allowlisted field name)")
                return _Taint(_Taint.SEEDED)
            return _Taint(
                _Taint.VIOLATION,
                f"attribute {chain!r} is not an allowlisted seed field",
            )
        if kind == "call":
            return self._taint_call(index, module, fn_info, expr, trace, visited, depth)
        if kind == "binop":
            left = self._taint(
                index, module, fn_info, expr["l"], trace, visited, depth + 1  # type: ignore[arg-type]
            )
            if not left.ok:
                return left
            return self._taint(
                index, module, fn_info, expr["r"], trace, visited, depth + 1  # type: ignore[arg-type]
            )
        if kind == "sub":
            trace.append("  = element of:")
            return self._taint(
                index, module, fn_info, expr["v"], trace, visited, depth + 1  # type: ignore[arg-type]
            )
        if kind == "unpack":
            return self._taint(
                index, module, fn_info, expr["v"], trace, visited, depth + 1  # type: ignore[arg-type]
            )
        if kind == "lambda":
            return _Taint(_Taint.VIOLATION, "seed computed by a lambda")
        return _Taint(_Taint.VIOLATION, "seed provenance is unanalyzable")

    def _taint_name(
        self,
        index: ProjectIndex,
        module: str,
        fn_info: Dict[str, object],
        name: str,
        trace: List[str],
        visited: Set[Tuple[str, str, str]],
        depth: int,
    ) -> _Taint:
        qualname = str(fn_info["qualname"])
        key = (module, qualname, name)
        if key in visited:
            trace.append(f"  = {name} (cycle; assumed seeded)")
            return _Taint(_Taint.SEEDED)
        visited.add(key)
        assigns: Dict[str, Dict[str, object]] = fn_info["assigns"]  # type: ignore[assignment]
        for_iters: Dict[str, Dict[str, object]] = fn_info["for_iters"]  # type: ignore[assignment]
        params: List[str] = fn_info["params"]  # type: ignore[assignment]
        if name in assigns:
            trace.append(f"  = local {name} assigned in {qualname}:")
            return self._taint(
                index, module, fn_info, assigns[name], trace, visited, depth + 1
            )
        if name in for_iters:
            trace.append(f"  = loop variable {name} iterating over:")
            return self._taint(
                index, module, fn_info, for_iters[name], trace, visited, depth + 1
            )
        if name in params:
            if SEED_NAME_RE.search(name):
                trace.append(
                    f"  = parameter {name!r} of {qualname} (allowlisted name)"
                )
                return _Taint(_Taint.SEEDED)
            return self._taint_param(
                index, module, fn_info, name, trace, visited, depth
            )
        summary = index.modules.get(module)
        if summary is not None:
            module_assigns: Dict[str, Dict[str, object]] = summary["module_assigns"]  # type: ignore[assignment]
            if name in module_assigns:
                trace.append(f"  = module-level {name}:")
                module_fn = index.function(module, "<module>")
                return self._taint(
                    index,
                    module,
                    module_fn if module_fn is not None else fn_info,
                    module_assigns[name],
                    trace,
                    visited,
                    depth + 1,
                )
        if SEED_NAME_RE.search(name):
            trace.append(f"  = {name} (allowlisted name, provenance unknown)")
            return _Taint(_Taint.SEEDED)
        return _Taint(
            _Taint.VIOLATION,
            f"name {name!r} in {qualname} has no seed provenance",
        )

    def _taint_param(
        self,
        index: ProjectIndex,
        module: str,
        fn_info: Dict[str, object],
        name: str,
        trace: List[str],
        visited: Set[Tuple[str, str, str]],
        depth: int,
    ) -> _Taint:
        """Trace a non-allowlisted parameter through every caller."""
        qualname = str(fn_info["qualname"])
        params: List[str] = fn_info["params"]  # type: ignore[assignment]
        position = params.index(name)
        if bool(fn_info.get("in_class")) and params and params[0] in ("self", "cls"):
            position -= 1  # callers do not pass self/cls explicitly
        callers = index.callers_of(module, qualname)
        if not callers:
            return _Taint(
                _Taint.VIOLATION,
                f"parameter {name!r} of {qualname} is not in the seed "
                "allowlist and has no analyzable caller",
            )
        for site in callers:
            call = site["call"]
            args: List[Dict[str, object]] = call["args"]  # type: ignore[index]
            kw: Dict[str, Dict[str, object]] = call["kw"]  # type: ignore[index]
            if name in kw:
                arg = kw[name]
            elif 0 <= position < len(args):
                arg = args[position]
            else:
                continue  # default value — defaults are module constants
            caller_fn = index.function(str(site["module"]), str(site["function"]))
            if caller_fn is None:
                continue
            trace.append(
                f"  <- passed as {name!r} from "
                f"{site['module']}:{site['function']} (line {call['lineno']}):"  # type: ignore[index]
            )
            verdict = self._taint(
                index,
                str(site["module"]),
                caller_fn,
                arg,
                trace,
                visited,
                depth + 1,
            )
            if not verdict.ok:
                return verdict
        trace.append(f"  (all callers of {qualname} pass seeded values)")
        return _Taint(_Taint.SEEDED)

    def _taint_call(
        self,
        index: ProjectIndex,
        module: str,
        fn_info: Dict[str, object],
        expr: Dict[str, object],
        trace: List[str],
        visited: Set[Tuple[str, str, str]],
        depth: int,
    ) -> _Taint:
        summary = index.modules.get(module)
        imports: Dict[str, str] = summary["imports"] if summary else {}  # type: ignore[assignment]
        fn = str(expr.get("fn", "<dynamic>"))
        canon = canonical_name(fn, imports)
        args: List[Dict[str, object]] = expr.get("args", [])  # type: ignore[assignment]
        for source in ENTROPY_SOURCES:
            if canon == source or (source.endswith(".") and canon.startswith(source)):
                return _Taint(
                    _Taint.VIOLATION,
                    f"seed drawn from entropy source {canon}()",
                )
        last = fn.rsplit(".", 1)[-1]
        if fn in _SEED_TRANSPARENT_CALLS and args:
            trace.append(f"  = {fn}(...) of:")
            return self._taint(
                index, module, fn_info, args[0], trace, visited, depth + 1
            )
        if fn in _SEED_TRANSPARENT_ITERS:
            for arg in args:
                verdict = self._taint(
                    index, module, fn_info, arg, trace, visited, depth + 1
                )
                if not verdict.ok:
                    return verdict
            trace.append(f"  = elements of {fn}(...) (seeded)")
            return _Taint(_Taint.SEEDED)
        spec = RNG_CONSTRUCTORS.get(canon)
        if spec is not None:
            inner = args[0] if args else None
            kw: Dict[str, Dict[str, object]] = expr.get("kw", {})  # type: ignore[assignment]
            if inner is None:
                for key in spec + ("seed", "random_state"):
                    if key in kw:
                        inner = kw[key]
                        break
            if inner is None:
                return _Taint(
                    _Taint.VIOLATION,
                    f"nested {fn}() constructed without a seed",
                )
            trace.append(f"  = nested {fn}(...) seeded by:")
            return self._taint(
                index, module, fn_info, inner, trace, visited, depth + 1
            )
        if SEED_NAME_RE.search(last) or last in _SEED_DERIVERS:
            trace.append(f"  = {fn}(...) (seed-deriving helper)")
            return _Taint(_Taint.SEEDED)
        resolved = index.resolve_call(module, fn)
        if resolved is not None:
            target = index.function(*resolved)
            if target is not None:
                returns: List[Dict[str, object]] = target["returns"]  # type: ignore[assignment]
                if returns:
                    trace.append(
                        f"  = return value of {resolved[0]}:{resolved[1]}:"
                    )
                    for ret in returns:
                        verdict = self._taint(
                            index,
                            resolved[0],
                            target,
                            ret,
                            trace,
                            visited,
                            depth + 1,
                        )
                        if not verdict.ok:
                            return verdict
                    return _Taint(_Taint.SEEDED)
        return _Taint(
            _Taint.VIOLATION,
            f"seed produced by unanalyzable call {fn}()",
        )


def pool_submitted_callable(
    index: ProjectIndex,
    module: str,
    fn_info: Dict[str, object],
    fn: str,
    call: Dict[str, object],
) -> Optional[Dict[str, object]]:
    """The esum of the callable argument, if this call ships one to a
    worker process; ``None`` otherwise.  Shared by SEG102 and SEG105."""
    args: List[Dict[str, object]] = call["args"]  # type: ignore[assignment]
    if not args:
        return None
    resolved = index.resolve_call(module, fn)
    if resolved in POOL_ENTRYPOINTS:
        return args[0]
    head, _, method = fn.rpartition(".")
    if method == "submit" and head:
        receiver = head.split(".")[0]
        assigns: Dict[str, Dict[str, object]] = fn_info["assigns"]  # type: ignore[assignment]
        origin = assigns.get(receiver)
        if origin is not None and origin.get("k") == "call":
            origin_fn = str(origin.get("fn", ""))
            if origin_fn.rsplit(".", 1)[-1] == "ProcessPoolExecutor":
                return args[0]
        if receiver in ("pool", "executor"):
            return args[0]
    return None


class PoolCallableRule(ProjectRule):
    """SEG102 — callables crossing the process-pool boundary."""

    rule_id = "SEG102"
    name = "pool-callable-safety"
    rationale = (
        "the supervised pool pickles its callable into worker processes; "
        "lambdas, nested functions, and bound methods fail (or worse, "
        "silently fork state), and module-global mutation in a worker "
        "never propagates back"
    )

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        for module, summary in sorted(index.modules.items()):
            imports: Dict[str, str] = summary["imports"]  # type: ignore[assignment]
            functions: Dict[str, Dict[str, object]] = summary["functions"]  # type: ignore[assignment]
            for qualname, info in sorted(functions.items()):
                for call in info["calls"]:  # type: ignore[union-attr]
                    fn = str(call["fn"])
                    submitted = self._submitted_callable(
                        index, module, info, fn, call
                    )
                    if submitted is None:
                        continue
                    lineno = int(call["lineno"])
                    path = str(summary["path"])
                    trace = [
                        f"{path}:{lineno}: {fn}(...) in {module}:{qualname}"
                    ]
                    for problem in self._check_callable(
                        index, module, info, submitted, trace, set(), 0
                    ):
                        yield self.finding(
                            path, lineno, problem, trace=trace
                        )

    def _submitted_callable(
        self,
        index: ProjectIndex,
        module: str,
        fn_info: Dict[str, object],
        fn: str,
        call: Dict[str, object],
    ) -> Optional[Dict[str, object]]:
        return pool_submitted_callable(index, module, fn_info, fn, call)

    def _check_callable(
        self,
        index: ProjectIndex,
        module: str,
        fn_info: Dict[str, object],
        expr: Dict[str, object],
        trace: List[str],
        visited: Set[Tuple[str, str, str]],
        depth: int,
    ) -> List[str]:
        if depth > _TAINT_DEPTH_LIMIT:
            return []
        kind = expr.get("k")
        if kind == "lambda":
            return [
                "lambda submitted to the process pool — lambdas are not "
                "picklable; define a module-level function"
            ]
        if kind == "attr":
            chain = str(expr["dotted"])
            if chain.startswith("self.") or chain.startswith("cls."):
                return [
                    f"bound method {chain} submitted to the process pool — "
                    "pickling drags the whole instance into every worker; "
                    "use a module-level function"
                ]
            # mod.fn via an import alias: resolve and inspect
            resolved = index.resolve_call(module, chain)
            if resolved is not None:
                return self._check_resolved(index, resolved, trace)
            return []
        if kind == "call":
            fn = str(expr.get("fn", ""))
            if fn.rsplit(".", 1)[-1] == "partial":
                args: List[Dict[str, object]] = expr.get("args", [])  # type: ignore[assignment]
                if args:
                    trace.append("  = functools.partial wrapping:")
                    return self._check_callable(
                        index, module, fn_info, args[0], trace, visited, depth + 1
                    )
            return []
        if kind != "name":
            return []
        name = str(expr["id"])
        qualname = str(fn_info["qualname"])
        key = (module, qualname, name)
        if key in visited:
            return []
        visited.add(key)
        assigns: Dict[str, Dict[str, object]] = fn_info["assigns"]  # type: ignore[assignment]
        params: List[str] = fn_info["params"]  # type: ignore[assignment]
        if name in assigns:
            trace.append(f"  = local {name} assigned in {qualname}:")
            return self._check_callable(
                index, module, fn_info, assigns[name], trace, visited, depth + 1
            )
        if name in params:
            problems: List[str] = []
            position = params.index(name)
            if bool(fn_info.get("in_class")) and params and params[0] in ("self", "cls"):
                position -= 1
            for site in index.callers_of(module, qualname):
                call = site["call"]
                cargs: List[Dict[str, object]] = call["args"]  # type: ignore[index]
                ckw: Dict[str, Dict[str, object]] = call["kw"]  # type: ignore[index]
                if name in ckw:
                    arg = ckw[name]
                elif 0 <= position < len(cargs):
                    arg = cargs[position]
                else:
                    continue
                caller_fn = index.function(
                    str(site["module"]), str(site["function"])
                )
                if caller_fn is None:
                    continue
                trace.append(
                    f"  <- passed as {name!r} from "
                    f"{site['module']}:{site['function']}:"
                )
                problems.extend(
                    self._check_callable(
                        index,
                        str(site["module"]),
                        caller_fn,
                        arg,
                        trace,
                        visited,
                        depth + 1,
                    )
                )
            return problems
        # a nested def shadows nothing the resolver sees: look for it under
        # the enclosing function's qualname first
        summary = index.modules.get(module)
        if summary is not None:
            nested_qualname = f"{qualname}.{name}"
            functions: Dict[str, object] = summary["functions"]  # type: ignore[assignment]
            if nested_qualname in functions:
                trace.append(f"  = {module}:{nested_qualname}")
                return self._check_resolved(
                    index, (module, nested_qualname), trace
                )
        resolved = index.resolve_call(module, name)
        if resolved is not None:
            trace.append(f"  = {resolved[0]}:{resolved[1]}")
            return self._check_resolved(index, resolved, trace)
        return []

    def _check_resolved(
        self,
        index: ProjectIndex,
        resolved: Tuple[str, str],
        trace: List[str],
    ) -> List[str]:
        target = index.function(*resolved)
        if target is None:
            return []
        problems: List[str] = []
        label = f"{resolved[0]}:{resolved[1]}"
        if bool(target.get("nested")):
            problems.append(
                f"pool callable {label} is a nested function — not "
                "picklable; hoist it to module level"
            )
        if bool(target.get("in_class")):
            problems.append(
                f"pool callable {label} is defined inside a class — "
                "submit a module-level function instead"
            )
        global_writes: List[str] = target.get("global_writes", [])  # type: ignore[assignment]
        for name in global_writes:
            problems.append(
                f"pool callable {label} declares `global {name}` — "
                "worker-side writes to module globals never propagate "
                "back to the parent process"
            )
        mutations: List[Dict[str, object]] = target.get("mutations", [])  # type: ignore[assignment]
        for mutation in mutations:
            problems.append(
                f"pool callable {label} mutates module-level "
                f"{mutation['name']!r} ({mutation['how']}, line "
                f"{mutation['lineno']}) — worker-side state diverges "
                "silently from the parent"
            )
        if problems:
            trace.append(f"  ! {label} fails picklable-by-construction checks")
        return problems


class ManifestContractRule(ProjectRule):
    """SEG103 — manifest keys: every read produced, every write read."""

    rule_id = "SEG103"
    name = "manifest-contract"
    rationale = (
        "the manifest is the only interface between a run and every "
        "later view of it (all through the one reader); a key read but never "
        "produced renders 'n/a' forever, a key produced but never read "
        "is dead weight in every run artifact"
    )

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        produced: Dict[str, Tuple[str, int]] = {}
        for module, receivers in MANIFEST_PRODUCERS.items():
            summary = index.modules.get(module)
            if summary is None:
                continue
            path = str(summary["path"])
            for entry in summary["dict_literals"]:  # type: ignore[union-attr]
                if entry["recv"] in receivers:
                    produced.setdefault(
                        str(entry["key"]), (path, int(entry["lineno"]))
                    )
            for entry in summary["key_writes"]:  # type: ignore[union-attr]
                if entry["recv"] in receivers:
                    produced.setdefault(
                        str(entry["key"]), (path, int(entry["lineno"]))
                    )
        consumed: Dict[str, Tuple[str, int]] = {}
        for module, receivers in MANIFEST_CONSUMERS.items():
            summary = index.modules.get(module)
            if summary is None:
                continue
            path = str(summary["path"])
            for entry in summary["key_reads"]:  # type: ignore[union-attr]
                if entry["recv"] in receivers:
                    consumed.setdefault(
                        str(entry["key"]), (path, int(entry["lineno"]))
                    )
        if not produced:
            return  # producers absent (partial checkout) — nothing to check
        for key in sorted(consumed):
            if key in produced:
                continue
            path, lineno = consumed[key]
            yield self.finding(
                path,
                lineno,
                f"manifest key {key!r} is read here but never produced by "
                f"{' or '.join(sorted(MANIFEST_PRODUCERS))} — consumers "
                "will see 'n/a' on every run",
                trace=(
                    f"read at {path}:{lineno}",
                    f"produced keys: {', '.join(sorted(produced))}",
                ),
            )
        for key in sorted(produced):
            if key in consumed:
                continue
            if key in MANIFEST_ARCHIVAL_KEYS:
                continue
            path, lineno = produced[key]
            yield self.finding(
                path,
                lineno,
                f"manifest key {key!r} is produced here but no consumer "
                "reads it — wire it into a reader or add it to the "
                "archival allowlist with a reason",
                severity="warning",
                trace=(
                    f"written at {path}:{lineno}",
                    f"consumed keys: {', '.join(sorted(consumed))}",
                ),
            )


class SpanRegistryRule(ProjectRule):
    """SEG104 — span names are literals found in the central registry."""

    rule_id = "SEG104"
    name = "span-registry"
    rationale = (
        "the manifest and dashboards key on span names; literal names in "
        "one central registry (repro.obs.spans.SPAN_NAMES) make renames "
        "reviewable diffs instead of silent telemetry forks"
    )

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        sites = index.span_sites()
        for path, summary in sorted(index.files.items()):
            if in_modules(str(summary["module"]), ("repro.obs.",)):
                continue  # the telemetry layer forwards its callers' names
            for site in summary["other_spans"]:  # type: ignore[union-attr]
                if site["name"] is None:
                    yield self.finding(
                        path,
                        int(site["lineno"]),
                        "span name must be a string literal — a computed "
                        "name forks the telemetry namespace at runtime and "
                        "no registry can hold it",
                    )
                else:
                    sites.append((path, str(site["name"]), int(site["lineno"])))
        registry = index.modules.get(SPAN_REGISTRY_MODULE)
        if registry is None:
            if sites:
                path, _, lineno = sites[0]
                yield self.finding(
                    path,
                    lineno,
                    f"span registry module {SPAN_REGISTRY_MODULE} is missing "
                    f"— declare {SPAN_REGISTRY_NAME} there and register "
                    "every segugio_* span name",
                )
            return
        names = self._registry_names(registry)
        registry_path = str(registry["path"])
        if names is None:
            yield self.finding(
                registry_path,
                1,
                f"{SPAN_REGISTRY_MODULE}.{SPAN_REGISTRY_NAME} must be a "
                "frozenset/set/tuple of string literals",
            )
            return
        used: Set[str] = set()
        for path, name, lineno in sites:
            if path == registry_path:
                continue
            used.add(name)
            if name in names:
                continue
            yield self.finding(
                path,
                lineno,
                f"span name {name!r} is not declared in "
                f"{SPAN_REGISTRY_MODULE}.{SPAN_REGISTRY_NAME} — register it "
                "in the same change that adds the call site",
                trace=(
                    f"span literal at {path}:{lineno}",
                    f"registry: {registry_path}",
                ),
            )
        for name in sorted(names - used):
            lineno = self._registry_line(registry_path, name)
            yield self.finding(
                registry_path,
                lineno,
                f"registered span name {name!r} has no call site — remove "
                "it from the registry or restore the span",
                severity="warning",
                trace=(f"declared in {registry_path}",),
            )

    @staticmethod
    def _registry_names(summary: Dict[str, object]) -> Optional[Set[str]]:
        assigns: Dict[str, Dict[str, object]] = summary["module_assigns"]  # type: ignore[assignment]
        esum = assigns.get(SPAN_REGISTRY_NAME)
        if esum is None:
            return None
        if esum.get("k") == "strs":
            return set(esum["v"])  # type: ignore[arg-type]
        if esum.get("k") == "call" and esum.get("fn") in ("frozenset", "set", "tuple"):
            args: List[Dict[str, object]] = esum.get("args", [])  # type: ignore[assignment]
            if args and args[0].get("k") == "strs":
                return set(args[0]["v"])  # type: ignore[arg-type]
        return None

    def _registry_line(self, path: str, name: str) -> int:
        """Line of the registry entry (for precise warnings)."""
        lineno = 1
        needle = f'"{name}"'
        try:
            with open(path, "r", encoding="utf-8") as stream:
                for i, text in enumerate(stream, start=1):
                    if needle in text:
                        return i
        except OSError:
            pass
        return lineno


class WorkerTelemetryRule(ProjectRule):
    """SEG105 — no ambient telemetry getters inside pool-callable code."""

    rule_id = "SEG105"
    name = "worker-telemetry-isolation"
    rationale = (
        "pool-callable code runs both in forked workers (where the "
        "ambient getters resolve to the stack repro.obs.workerctx "
        "installed) and on the in-process serial floor (where they "
        "resolve to the parent's tracer); emitting through them directly "
        "either dodges the sidecar merge or double-counts into the "
        "parent span tree — worker telemetry must flow through the "
        "worker context API"
    )

    def run(self, index: ProjectIndex) -> Iterator[Finding]:
        reported: Set[Tuple[str, int, str]] = set()
        for module, summary in sorted(index.modules.items()):
            functions: Dict[str, Dict[str, object]] = summary["functions"]  # type: ignore[assignment]
            for qualname, info in sorted(functions.items()):
                for call in info["calls"]:  # type: ignore[union-attr]
                    fn = str(call["fn"])
                    submitted = pool_submitted_callable(
                        index, module, info, fn, call
                    )
                    if submitted is None:
                        continue
                    submit_site = (
                        f"{summary['path']}:{call['lineno']}: "
                        f"{fn}(...) in {module}:{qualname}"
                    )
                    for root in self._roots(index, module, info, submitted):
                        yield from self._walk(
                            index, root, submit_site, reported
                        )

    def _roots(
        self,
        index: ProjectIndex,
        module: str,
        fn_info: Dict[str, object],
        expr: Dict[str, object],
    ) -> List[Tuple[str, str]]:
        """Resolve the submitted-callable esum to closure entry points."""
        kind = expr.get("k")
        if kind == "name":
            name = str(expr["id"])
            summary = index.modules.get(module)
            if summary is not None:
                nested = f"{fn_info['qualname']}.{name}"
                if nested in summary["functions"]:  # type: ignore[operator]
                    return [(module, nested)]
            resolved = index.resolve_call(module, name)
            return [resolved] if resolved is not None else []
        if kind == "attr":
            resolved = index.resolve_call(module, str(expr["dotted"]))
            return [resolved] if resolved is not None else []
        if kind == "call":
            fn = str(expr.get("fn", ""))
            if fn.rsplit(".", 1)[-1] == "partial":
                args: List[Dict[str, object]] = expr.get("args", [])  # type: ignore[assignment]
                if args:
                    return self._roots(index, module, fn_info, args[0])
        return []

    def _walk(
        self,
        index: ProjectIndex,
        root: Tuple[str, str],
        submit_site: str,
        reported: Set[Tuple[str, int, str]],
    ) -> Iterator[Finding]:
        """BFS the resolved call graph from *root*, flagging getters."""
        if root[0] in WORKER_TELEMETRY_MODULES:
            return
        seen: Set[Tuple[str, str]] = {root}
        # each queue entry carries the hop chain that reached it
        queue: List[Tuple[Tuple[str, str], List[str]]] = [
            (root, [f"  -> pool callable {root[0]}:{root[1]}"])
        ]
        while queue:
            (module, qualname), chain = queue.pop(0)
            info = index.function(module, qualname)
            if info is None:
                continue
            summary = index.modules.get(module)
            path = str(summary["path"]) if summary is not None else ""
            for call in info["calls"]:  # type: ignore[union-attr]
                resolved = index.resolve_call(module, str(call["fn"]))
                if resolved is None:
                    continue
                lineno = int(call["lineno"])
                if resolved in AMBIENT_GETTERS:
                    key = (path, lineno, f"{resolved[0]}:{resolved[1]}")
                    if key in reported:
                        continue
                    reported.add(key)
                    yield self.finding(
                        path,
                        lineno,
                        f"{call['fn']}() called inside pool-callable code "
                        f"({module}:{qualname}, reachable from the process-"
                        "pool boundary) — worker telemetry must go through "
                        "the worker context API (repro.obs.workerctx), "
                        "never the ambient getters",
                        trace=[submit_site]
                        + chain
                        + [f"  ! {module}:{qualname} line {lineno} calls "
                           f"{resolved[0]}:{resolved[1]}"],
                    )
                    continue
                if (
                    resolved not in seen
                    and resolved[0] not in WORKER_TELEMETRY_MODULES
                ):
                    seen.add(resolved)
                    queue.append(
                        (
                            resolved,
                            chain
                            + [f"  -> {resolved[0]}:{resolved[1]} "
                               f"(line {lineno})"],
                        )
                    )


def build_project_rules() -> Tuple[ProjectRule, ...]:
    return (
        DeterminismTaintRule(),
        PoolCallableRule(),
        ManifestContractRule(),
        SpanRegistryRule(),
        WorkerTelemetryRule(),
    )


PROJECT_RULE_IDS = tuple(r.rule_id for r in build_project_rules())


def run_project_rules(index: ProjectIndex) -> List[Finding]:
    """Run every phase-2 rule over the index."""
    findings: List[Finding] = []
    for rule in build_project_rules():
        findings.extend(rule.run(index))
    findings.sort(key=Finding.sort_key)
    return findings
