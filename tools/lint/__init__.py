"""segugio-lint: AST-based static analysis enforcing the repo's contracts.

Runnable as ``python -m tools.lint`` from the repository root (zero
dependencies, stdlib only). Two phases. The per-file rules
(:mod:`tools.lint.rules`) hold the determinism, layering, exception
hygiene and annotation invariants; five of them (SEG001, SEG002,
SEG010, SEG011, SEG012) are rows of one call-ban table. The
whole-program rules (SEG101–SEG105, :mod:`tools.lint.project_rules`)
run on a project index (import table + call sites + symbol summaries,
built in memory on every run) and check interprocedural contracts —
seed taint, pool-callable picklability, the manifest producer/consumer
contract, literal span names in one registry, and worker-telemetry
isolation. There is no suppression mechanism: a false positive is fixed
in the rule's scope. See DESIGN.md §9 for the rule catalogue.
"""
