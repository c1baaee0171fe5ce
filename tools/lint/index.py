"""Phase 1 of the whole-program analyzer: the project index.

One pass over every Python file under the index roots (``src`` + ``tools``
+ ``benchmarks``) extracts a compact *module summary*: the import table,
every function with its parameters / call sites / assignment provenance,
span-name literals, and manifest key reads and writes.  Phase 2 (the
SEG101–SEG105 project rules in :mod:`tools.lint.project_rules`) runs
entirely on these summaries — it never re-reads source.  The index is
built in memory on every run.

Expression provenance is recorded as bounded-depth "expression summaries"
(dicts with a ``k`` kind tag) — enough structure for the determinism
taint and pool-safety rules to trace a seed or a callable across function
boundaries, without keeping ASTs.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from tools.lint.engine import module_name_for

#: trees the whole-program index covers (package_root applies to ``src``)
INDEX_ROOTS = ("src", "tools", "benchmarks")

_EXPR_DEPTH_LIMIT = 4

#: dict/set/list methods that mutate the receiver in place
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "extend",
        "insert",
        "sort",
    }
)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def summarize_expr(node: ast.AST, depth: int = 0) -> Dict[str, object]:
    """Bounded-depth provenance summary of an expression.

    Kinds: ``const`` (literal), ``name``, ``attr`` (dotted chain),
    ``call`` (callee + summarized args), ``lambda``, ``binop``, ``sub``
    (subscript of a value), ``unpack`` is produced by the for-loop walker,
    ``other`` for everything else.
    """
    if depth >= _EXPR_DEPTH_LIMIT:
        return {"k": "other"}
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, (int, float, str, bool)) or value is None:
            return {"k": "const", "v": value}
        return {"k": "const", "v": repr(value)}
    if isinstance(node, ast.Name):
        return {"k": "name", "id": node.id}
    if isinstance(node, ast.Attribute):
        chain = dotted(node)
        if chain is not None:
            return {"k": "attr", "dotted": chain}
        return {"k": "other"}
    if isinstance(node, ast.Lambda):
        return {"k": "lambda"}
    if isinstance(node, ast.Call):
        fn = dotted(node.func)
        return {
            "k": "call",
            "fn": fn if fn is not None else "<dynamic>",
            "args": [summarize_expr(a, depth + 1) for a in node.args[:4]],
            "kw": {
                kw.arg: summarize_expr(kw.value, depth + 1)
                for kw in node.keywords
                if kw.arg is not None
            },
        }
    if isinstance(node, ast.BinOp):
        return {
            "k": "binop",
            "l": summarize_expr(node.left, depth + 1),
            "r": summarize_expr(node.right, depth + 1),
        }
    if isinstance(node, ast.UnaryOp):
        return summarize_expr(node.operand, depth + 1)
    if isinstance(node, ast.Subscript):
        return {"k": "sub", "v": summarize_expr(node.value, depth + 1)}
    if isinstance(node, ast.IfExp):
        return {
            "k": "binop",  # either branch may flow through; treat like a join
            "l": summarize_expr(node.body, depth + 1),
            "r": summarize_expr(node.orelse, depth + 1),
        }
    if isinstance(node, ast.Starred):
        return summarize_expr(node.value, depth + 1)
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)) and node.elts:
        if all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts
        ):
            return {"k": "strs", "v": [e.value for e in node.elts]}  # type: ignore[union-attr]
    return {"k": "other"}


class _ModuleWalker(ast.NodeVisitor):
    """Single AST pass building one module summary."""

    def __init__(self, module: str, path: str) -> None:
        self.module = module
        self.path = path
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, Dict[str, object]] = {}
        self.module_assigns: Dict[str, Dict[str, object]] = {}
        self.span_literals: List[Dict[str, object]] = []
        self.key_reads: List[Dict[str, object]] = []
        self.key_writes: List[Dict[str, object]] = []
        self._scope: List[str] = []
        self._fn_stack: List[Dict[str, object]] = []
        self._class_depth = 0
        # module-level code is recorded as the pseudo-function "<module>"
        self._module_fn = self._new_function("<module>", 1, [], nested=False)
        self.functions["<module>"] = self._module_fn

    # ---------------------------------------------------------------- #

    @staticmethod
    def _new_function(
        qualname: str, lineno: int, params: List[str], nested: bool
    ) -> Dict[str, object]:
        return {
            "qualname": qualname,
            "lineno": lineno,
            "params": params,
            "nested": nested,
            "in_class": False,
            "calls": [],
            "assigns": {},
            "for_iters": {},
            "returns": [],
            "global_writes": [],
            "mutations": [],
        }

    def _current(self) -> Dict[str, object]:
        return self._fn_stack[-1] if self._fn_stack else self._module_fn

    def _qualname(self, name: str) -> str:
        return ".".join(self._scope + [name]) if self._scope else name

    # ------------------------------ imports ------------------------- #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            parts = self.module.split(".")
            anchor = parts[: len(parts) - node.level]
            base = ".".join(anchor + ([base] if base else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}" if base else alias.name
            self.imports[alias.asname or alias.name] = target
        self.generic_visit(node)

    # ------------------------------ scopes -------------------------- #

    def _visit_function(self, node) -> None:
        qualname = self._qualname(node.name)
        args = node.args
        params = [
            a.arg
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        info = self._new_function(
            qualname, node.lineno, params, nested=bool(self._fn_stack)
        )
        info["in_class"] = self._class_depth > 0 and not self._fn_stack
        self.functions[qualname] = info
        self._scope.append(node.name)
        self._fn_stack.append(info)
        for child in node.body:
            self.visit(child)
        self._fn_stack.pop()
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self._class_depth += 1
        for child in node.body:
            self.visit(child)
        self._class_depth -= 1
        self._scope.pop()

    # ------------------------------ statements ----------------------- #

    def visit_Assign(self, node: ast.Assign) -> None:
        summary = summarize_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._record_assign(target.id, summary)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self._record_assign(elt.id, {"k": "unpack", "v": summary})
            elif isinstance(target, ast.Subscript):
                self._record_key_write(target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            self._record_assign(node.target.id, summarize_expr(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name):
            name = node.target.id
            fn = self._current()
            if self._fn_stack and name in self.module_assigns and (
                name not in fn["params"]  # type: ignore[operator]
                and name not in fn["assigns"]  # type: ignore[operator]
            ):
                fn["mutations"].append(  # type: ignore[union-attr]
                    {"name": name, "lineno": node.lineno, "how": "augmented assignment"}
                )
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        fn = self._current()
        for name in node.names:
            if name not in fn["global_writes"]:  # type: ignore[operator]
                fn["global_writes"].append(name)  # type: ignore[union-attr]
        self.generic_visit(node)

    def _record_loop_targets(self, target: ast.AST, iter_node: ast.AST) -> None:
        summary = summarize_expr(iter_node)
        targets = (
            target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
        )
        for item in targets:
            if isinstance(item, ast.Name):
                self._current()["for_iters"][item.id] = summary  # type: ignore[index]

    def visit_For(self, node: ast.For) -> None:
        self._record_loop_targets(node.target, node.iter)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._record_loop_targets(node.target, node.iter)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._current()["returns"].append(summarize_expr(node.value))  # type: ignore[union-attr]
        self.generic_visit(node)

    def _record_assign(self, name: str, summary: Dict[str, object]) -> None:
        self._current()["assigns"][name] = summary  # type: ignore[index]
        if not self._fn_stack:
            self.module_assigns[name] = summary

    # ------------------------------ expressions ---------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        fn_name = dotted(node.func)
        record = {
            "fn": fn_name if fn_name is not None else "<dynamic>",
            "lineno": node.lineno,
            "args": [summarize_expr(a) for a in node.args[:6]],
            "kw": {
                kw.arg: summarize_expr(kw.value)
                for kw in node.keywords
                if kw.arg is not None
            },
        }
        self._current()["calls"].append(record)  # type: ignore[union-attr]
        func = node.func
        span_call = (isinstance(func, ast.Attribute) and func.attr == "span") or (
            isinstance(func, ast.Name) and func.id == "span"
        )
        if (
            span_call
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.startswith("segugio_")
        ):
            self.span_literals.append(
                {"name": node.args[0].value, "lineno": node.lineno}
            )
        if isinstance(func, ast.Attribute):
            receiver = dotted(func.value)
            if (
                func.attr in ("get", "setdefault")
                and receiver is not None
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                entry = {
                    "recv": receiver,
                    "key": node.args[0].value,
                    "lineno": node.lineno,
                }
                if func.attr == "get":
                    self.key_reads.append(entry)
                else:
                    self.key_writes.append(entry)
            if (
                func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
                and self._fn_stack
            ):
                name = func.value.id
                fn = self._current()
                if name in self.module_assigns and (
                    name not in fn["params"]  # type: ignore[operator]
                    and name not in fn["assigns"]  # type: ignore[operator]
                ):
                    fn["mutations"].append(  # type: ignore[union-attr]
                        {
                            "name": name,
                            "lineno": node.lineno,
                            "how": f".{func.attr}() call",
                        }
                    )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            receiver = dotted(node.value)
            if receiver is not None:
                self.key_reads.append(
                    {"recv": receiver, "key": node.slice.value, "lineno": node.lineno}
                )
        self.generic_visit(node)

    def _record_key_write(self, target: ast.Subscript, lineno: int) -> None:
        if isinstance(target.slice, ast.Constant) and isinstance(
            target.slice.value, str
        ):
            receiver = dotted(target.value)
            if receiver is not None:
                self.key_writes.append(
                    {"recv": receiver, "key": target.slice.value, "lineno": lineno}
                )
        # a subscript-store on a module global is a mutation whatever the key
        if (
            isinstance(target.value, ast.Name)
            and self._fn_stack
            and target.value.id in self.module_assigns
        ):
            fn = self._current()
            if target.value.id not in fn["params"] and (  # type: ignore[operator]
                target.value.id not in fn["assigns"]  # type: ignore[operator]
            ):
                fn["mutations"].append(  # type: ignore[union-attr]
                    {
                        "name": target.value.id,
                        "lineno": lineno,
                        "how": "subscript store",
                    }
                )


def _dict_literal_keys(tree: ast.AST) -> Iterator[Tuple[str, str, int]]:
    """(bound name, key, line) for every all-string-key dict literal bound
    to a simple name or returned — the manifest-producer shape."""
    for node in ast.walk(tree):
        value: Optional[ast.AST] = None
        recv: Optional[str] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                recv, value = target.id, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            recv, value = node.target.id, node.value
        elif isinstance(node, ast.Return):
            recv, value = "<return>", node.value
        if not isinstance(value, ast.Dict) or not value.keys:
            continue
        keys = [
            k.value
            for k in value.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        ]
        if len(keys) != len(value.keys):
            continue
        for key in keys:
            yield recv or "<return>", key, value.lineno


def summarize_module(source: str, path: str, module: str) -> Dict[str, object]:
    """Build one module summary; a syntax error yields a stub summary."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return {
            "module": module,
            "path": path,
            "parse_error": True,
            "imports": {},
            "functions": {},
            "module_assigns": {},
            "span_literals": [],
            "key_reads": [],
            "key_writes": [],
            "dict_literals": [],
        }
    walker = _ModuleWalker(module, path)
    walker.visit(tree)
    return {
        "module": module,
        "path": path,
        "parse_error": False,
        "imports": walker.imports,
        "functions": walker.functions,
        "module_assigns": walker.module_assigns,
        "span_literals": walker.span_literals,
        "key_reads": walker.key_reads,
        "key_writes": walker.key_writes,
        "dict_literals": [
            {"recv": recv, "key": key, "lineno": lineno}
            for recv, key, lineno in _dict_literal_keys(tree)
        ],
    }


# -------------------------------------------------------------------- #
# the index
# -------------------------------------------------------------------- #


class ProjectIndex:
    """All module summaries plus the derived graphs and lookups."""

    def __init__(self, summaries: Dict[str, Dict[str, object]]) -> None:
        #: path -> summary
        self.files = summaries
        #: dotted module -> summary
        self.modules: Dict[str, Dict[str, object]] = {}
        for summary in summaries.values():
            module = str(summary.get("module") or "")
            if module:
                self.modules[module] = summary
        self._reverse_calls: Optional[Dict[Tuple[str, str], List[Dict[str, object]]]] = None

    # ------------------------------ resolution ----------------------- #

    def resolve_call(
        self, module: str, call_name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve a call-site name to ``(defining module, function)``.

        Handles local top-level functions, ``from x import f`` aliases,
        and ``mod.f`` via an ``import mod`` alias.  Returns ``None`` for
        builtins, methods, and anything outside the index.
        """
        summary = self.modules.get(module)
        if summary is None or call_name == "<dynamic>":
            return None
        imports: Dict[str, str] = summary["imports"]  # type: ignore[assignment]
        head, _, rest = call_name.partition(".")
        if not rest:
            functions: Dict[str, object] = summary["functions"]  # type: ignore[assignment]
            if call_name in functions:
                return (module, call_name)
            target = imports.get(call_name)
            if target is not None:
                target_module, _, target_name = target.rpartition(".")
                if target_module in self.modules and target_name in self.modules[
                    target_module
                ]["functions"]:  # type: ignore[operator]
                    return (target_module, target_name)
            return None
        target = imports.get(head)
        if target is None:
            return None
        # "np.random.default_rng" -> module numpy (not indexed) -> None;
        # "supervisor.supervised_map" with import repro.runtime.supervisor
        if target in self.modules:
            candidate = rest
            if candidate in self.modules[target]["functions"]:  # type: ignore[operator]
                return (target, candidate)
        return None

    def callers_of(self, module: str, function: str) -> List[Dict[str, object]]:
        """Call sites (with caller context) resolving to ``module:function``.

        Each record: ``{"module", "function" (caller qualname), "call"}``.
        """
        if self._reverse_calls is None:
            table: Dict[Tuple[str, str], List[Dict[str, object]]] = {}
            for mod_name, summary in self.modules.items():
                functions: Dict[str, Dict[str, object]] = summary["functions"]  # type: ignore[assignment]
                for qualname, info in functions.items():
                    for call in info["calls"]:  # type: ignore[union-attr]
                        resolved = self.resolve_call(mod_name, str(call["fn"]))
                        if resolved is None:
                            continue
                        table.setdefault(resolved, []).append(
                            {"module": mod_name, "function": qualname, "call": call}
                        )
            self._reverse_calls = table
        return self._reverse_calls.get((module, function), [])

    def function(self, module: str, qualname: str) -> Optional[Dict[str, object]]:
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary["functions"].get(qualname)  # type: ignore[union-attr]

    def span_sites(self) -> List[Tuple[str, str, int]]:
        """Every ``span("segugio_*")`` literal as ``(path, name, line)``."""
        sites: List[Tuple[str, str, int]] = []
        for path, summary in sorted(self.files.items()):
            for literal in summary["span_literals"]:  # type: ignore[union-attr]
                sites.append((path, str(literal["name"]), int(literal["lineno"])))
        return sites


# -------------------------------------------------------------------- #
# building
# -------------------------------------------------------------------- #


def _iter_python_files(root: str) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def build_index(
    roots: Sequence[str] = INDEX_ROOTS,
    relative_to: Optional[str] = None,
    package_root: str = "src",
) -> ProjectIndex:
    """Summarize every Python file under ``roots`` into a project index."""
    relative_to = relative_to or os.getcwd()
    summaries: Dict[str, Dict[str, object]] = {}
    for root in roots:
        root_abs = os.path.join(relative_to, root)
        if not os.path.isdir(root_abs):
            continue
        anchor = (
            os.path.join(relative_to, package_root)
            if root == package_root
            else relative_to
        )
        for path in _iter_python_files(root_abs):
            report_path = os.path.relpath(path, relative_to).replace(os.sep, "/")
            try:
                with open(path, "rb") as stream:
                    source = stream.read().decode("utf-8", errors="replace")
            except OSError:
                continue
            module = module_name_for(path, anchor)
            if not module:
                module = report_path[: -len(".py")].replace("/", ".")
            summaries[report_path] = summarize_module(source, report_path, module)
    return ProjectIndex(summaries)
