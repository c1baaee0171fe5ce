"""Phase 2 of the whole-program analyzer: interprocedural rules.

These rules run on the :class:`tools.lint.index.ProjectIndex` built by
phase 1 — never on raw source — so they see across file boundaries:

* **SEG101** — determinism taint: every RNG constructor's seed argument
  must flow (transitively, through helper calls and loop variables) from
  a parameter or config field whose name matches the seed allowlist, or
  from a constant.  Entropy sources (``os.urandom``, ``secrets.*``,
  ``uuid.uuid4``) as seeds are always findings.
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


def build_project_rules() -> Tuple[ProjectRule, ...]:
    return (
        DeterminismTaintRule(),
        ManifestContractRule(),
        SpanRegistryRule(),
    )


PROJECT_RULE_IDS = tuple(r.rule_id for r in build_project_rules())


def run_project_rules(index: ProjectIndex) -> List[Finding]:
    """Run every phase-2 rule over the index."""
    findings: List[Finding] = []
    for rule in build_project_rules():
        findings.extend(rule.run(index))
    findings.sort(key=Finding.sort_key)
    return findings
