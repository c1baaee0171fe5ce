"""segugio-lint: AST-based static analysis enforcing the repo's contracts.

Runnable as ``python -m tools.lint`` from the repository root (zero
dependencies, stdlib only). Two phases: per-file rules (SEG001–SEG012)
machine-check the determinism, layering, exception-hygiene, and
telemetry-naming invariants; whole-program rules (SEG101–SEG105) run on
a project index (import table + call sites + symbol summaries, built in
memory on every run) and check interprocedural contracts — seed taint,
pool-callable picklability, the manifest producer/consumer contract, the
span-name registry, and worker-telemetry isolation. There is no
suppression mechanism: a false positive is fixed in the rule's scope.
See DESIGN.md §9 for the rule catalogue.
"""

from tools.lint.engine import (
    Engine,
    Finding,
    LintConfigError,
    ModuleContext,
    Rule,
    module_name_for,
)
from tools.lint.index import ProjectIndex, build_index
from tools.lint.project_rules import (
    PROJECT_RULE_IDS,
    ProjectRule,
    build_project_rules,
    run_project_rules,
)
from tools.lint.reporting import FORMATS, render
from tools.lint.rules import ALL_RULE_IDS, build_rules

__all__ = [
    "ALL_RULE_IDS",
    "Engine",
    "FORMATS",
    "Finding",
    "LintConfigError",
    "ModuleContext",
    "PROJECT_RULE_IDS",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "build_index",
    "build_project_rules",
    "build_rules",
    "module_name_for",
    "render",
    "run_project_rules",
]
