"""segugio-lint: AST-based static analysis enforcing the repo's contracts.

Runnable as ``python -m tools.lint`` from the repository root (zero
dependencies, stdlib only). Two phases. The per-file rules
(:mod:`tools.lint.rules`) hold the determinism, layering, exception
hygiene and annotation invariants; six of them (SEG001, SEG002,
SEG010, SEG011, SEG012, SEG013) are rows of one call-ban table. The
whole-program rules (SEG101, SEG103, SEG104,
:mod:`tools.lint.project_rules`) run on a project index (import table +
call sites + symbol summaries, built in memory on every run) and check
interprocedural contracts — seed taint, the manifest producer/consumer
contract, and literal span names in one registry. SEG013 keeps the
process-pool modules out of the package, so every day runs in one
process. There is no suppression mechanism: a false positive is fixed
in the rule's scope. See DESIGN.md §9 for the rule catalogue.
"""
