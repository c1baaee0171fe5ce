"""segugio-lint rule engine.

A single pass over every Python file under a target tree:

1. the file is read and parsed **once** into an AST;
2. every AST node is dispatched to each rule that registered interest in
   that node type (``Rule.node_types``), with the ancestor stack available
   on the :class:`ModuleContext` for structural rules.

Rules are plain classes; the engine owns traversal so each rule stays a
few lines of "what is wrong", not "how to walk". Parse failures are
reported as rule ``SEG000`` findings rather than crashing the run, so one
broken file cannot hide findings in the rest of the tree.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

PARSE_ERROR_RULE = "SEG000"


class LintConfigError(Exception):
    """Bad engine configuration or an unknown rule id."""


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at ``path:line:col``.

    ``severity`` is ``"error"`` (fails the run) or ``"warning"``
    (reported, annotated in CI, but exit-code neutral — used by the
    contract rules for "produced but never consumed" findings).
    ``trace`` is the interprocedural flow path behind a whole-program
    finding, one hop per line, printed indented under the finding.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"
    trace: Tuple[str, ...] = ()

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class ModuleContext:
    """Everything a rule may ask about the file being linted."""

    def __init__(self, path: str, module: str) -> None:
        self.path = path
        self.module = module
        #: ancestor nodes of the node currently being dispatched (outermost
        #: first, excluding the node itself); maintained by the engine walk.
        self.stack: List[ast.AST] = []

    @property
    def package(self) -> str:
        """Top-two dotted segments (``repro.core``) — the layering unit."""
        parts = self.module.split(".")
        return ".".join(parts[:2])

    def enclosing(self, *types: type) -> Optional[ast.AST]:
        """Innermost ancestor that is an instance of ``types``, if any."""
        for node in reversed(self.stack):
            if isinstance(node, types):
                return node
        return None


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``name``/``rationale`` and ``node_types``
    and implement :meth:`check_node`. The engine instantiates one rule
    object per run and reuses it across files, so rules keep no per-file
    state.
    """

    rule_id: str = ""
    name: str = ""
    #: one-line statement of which runtime/paper guarantee the rule protects
    rationale: str = ""
    #: AST node classes this rule wants dispatched to :meth:`check_node`
    node_types: Tuple[Type[ast.AST], ...] = ()

    def check_node(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            message=message,
        )


def module_name_for(path: str, package_root: str) -> str:
    """Dotted module name of ``path`` relative to ``package_root``.

    ``src/repro/core/graph.py`` under root ``src`` → ``repro.core.graph``;
    package ``__init__.py`` files map to the package name itself. Returns
    ``""`` when the file does not live under the root.
    """
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(package_root))
    if rel.startswith(".."):
        return ""
    parts = rel.replace(os.sep, "/").split("/")
    if not parts or not parts[-1].endswith(".py"):
        return ""
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


class Engine:
    """Walks a tree of Python files once, dispatching to pluggable rules."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        seen: Dict[str, Rule] = {}
        for rule in rules:
            if not rule.rule_id:
                raise LintConfigError(f"rule {type(rule).__name__} has no rule_id")
            if rule.rule_id in seen:
                raise LintConfigError(f"duplicate rule id {rule.rule_id}")
            seen[rule.rule_id] = rule
        self.rules: Tuple[Rule, ...] = tuple(rules)
        self._node_rules: List[Tuple[Tuple[Type[ast.AST], ...], Rule]] = [
            (rule.node_types, rule) for rule in self.rules if rule.node_types
        ]

    # ------------------------------------------------------------------ #

    def lint_source(self, source: str, path: str, module: str = "") -> List[Finding]:
        """Lint one in-memory module; ``path`` is used verbatim in findings."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            line = error.lineno or 1
            col = (error.offset or 1)
            return [
                Finding(
                    path=path,
                    line=line,
                    col=col,
                    rule=PARSE_ERROR_RULE,
                    message=f"file does not parse: {error.msg}",
                )
            ]
        findings: List[Finding] = []
        self._walk(tree, ModuleContext(path=path, module=module), findings)
        findings.sort(key=Finding.sort_key)
        return findings

    def lint_file(self, path: str, package_root: str, report_path: str) -> List[Finding]:
        with open(path, "r", encoding="utf-8") as stream:
            source = stream.read()
        module = module_name_for(path, package_root)
        return self.lint_source(source, path=report_path, module=module)

    def lint_tree(
        self, root: str, package_root: Optional[str] = None, relative_to: Optional[str] = None
    ) -> Tuple[List[Finding], int]:
        """Lint every ``*.py`` under ``root``; returns (findings, files seen).

        ``package_root`` anchors dotted module names (defaults to ``root``);
        ``relative_to`` anchors the paths used in findings (defaults to the
        current directory), so reports stay stable across machines.
        """
        package_root = package_root or root
        relative_to = relative_to or os.getcwd()
        findings: List[Finding] = []
        count = 0
        for dirpath, dirnames, filenames in os.walk(root):
            # prune in place (so the walk never descends) and sort for a
            # deterministic traversal order
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                report_path = os.path.relpath(path, relative_to).replace(os.sep, "/")
                findings.extend(self.lint_file(path, package_root, report_path))
                count += 1
        findings.sort(key=Finding.sort_key)
        return findings, count

    # ------------------------------------------------------------------ #

    def _walk(self, node: ast.AST, ctx: ModuleContext, findings: List[Finding]) -> None:
        for child in ast.iter_child_nodes(node):
            for node_types, rule in self._node_rules:
                if isinstance(child, node_types):
                    findings.extend(rule.check_node(child, ctx))
            ctx.stack.append(child)
            self._walk(child, ctx, findings)
            ctx.stack.pop()
