"""Pipeline-wide observability: span tracing and structured logging.

Two coordinated zero-dependency layers (stdlib only):

* :mod:`repro.obs.tracing` — nested, timed spans over the pipeline's call
  tree, exported as a span tree and a per-run ``trace.jsonl``;
* :mod:`repro.obs.logs` — ``get_logger(component)`` emitting JSON records
  with run-id / day / phase context variables.

:mod:`repro.obs.provenance` adds the *detector*-observability layer on the
same ambient pattern: a per-run :class:`DecisionLog` of schema-versioned
decision records (one per classified domain) written as ``decisions.jsonl``
and replayed by ``segugio explain``.  :mod:`repro.obs.monitor` evaluates
declarative SLO alert rules over the tracker's day-over-day drift
summaries into ``ok``/``warn``/``alert`` health verdicts.

:mod:`repro.obs.run` bundles them into a per-run :class:`RunTelemetry`
whose output is a telemetry directory: run manifest, span trace, decision
records.  :mod:`repro.obs.manifest` owns that on-disk format in both
directions — the writer and :class:`TelemetryRun`, the one reader behind
``segugio inspect``, ``segugio explain --telemetry-dir`` and the
bench/chaos gates.

Both layers are **ambient and off by default**: library code instruments
unconditionally against :func:`current_tracer` / :func:`get_logger`, and
pays (only) a context-variable lookup per site until a run activates
telemetry.
"""

from repro.obs.events import (
    RuntimeEventLog,
    current_event_log,
    use_event_log,
)
from repro.obs.logs import StructuredLogger, bound, configure, get_logger
from repro.obs.manifest import (
    MANIFEST_FILENAME,
    MANIFEST_VERSION,
    TRACE_FILENAME,
    ManifestError,
    TelemetryError,
    TelemetryRun,
    config_hash,
    load_manifest,
    write_manifest,
)
from repro.obs.monitor import (
    DEFAULT_ALERT_RULES,
    AlertRule,
    AlertRuleError,
    evaluate_health,
    load_alert_rules,
    run_health,
    rules_from_dicts,
    worst_status,
)
from repro.obs.provenance import (
    DECISION_SCHEMA_VERSION,
    DECISIONS_FILENAME,
    DecisionLog,
    ProvenanceError,
    current_decision_log,
    decisions_for_domain,
    load_decisions,
    render_decision,
    use_decision_log,
)
from repro.obs.spans import SPAN_NAMES
from repro.obs.resources import (
    RESOURCES_SCHEMA_VERSION,
    ResourceBudget,
    ResourceBudgetError,
    ResourceMonitor,
    ResourceReader,
    count_units,
    current_monitor,
    derive_throughput,
    evaluate_budgets,
    load_resource_budgets,
    use_monitor,
)
from repro.obs.run import RunTelemetry
from repro.obs.tracing import (
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "AlertRule",
    "AlertRuleError",
    "DECISIONS_FILENAME",
    "DECISION_SCHEMA_VERSION",
    "DEFAULT_ALERT_RULES",
    "DecisionLog",
    "MANIFEST_FILENAME",
    "MANIFEST_VERSION",
    "ManifestError",
    "ProvenanceError",
    "RESOURCES_SCHEMA_VERSION",
    "ResourceBudget",
    "ResourceBudgetError",
    "ResourceMonitor",
    "ResourceReader",
    "RunTelemetry",
    "RuntimeEventLog",
    "SPAN_NAMES",
    "Span",
    "StructuredLogger",
    "TRACE_FILENAME",
    "TelemetryError",
    "TelemetryRun",
    "Tracer",
    "bound",
    "config_hash",
    "configure",
    "count_units",
    "current_decision_log",
    "current_event_log",
    "current_monitor",
    "current_tracer",
    "decisions_for_domain",
    "derive_throughput",
    "evaluate_budgets",
    "evaluate_health",
    "get_logger",
    "load_alert_rules",
    "load_decisions",
    "load_manifest",
    "load_resource_budgets",
    "render_decision",
    "rules_from_dicts",
    "run_health",
    "use_decision_log",
    "use_event_log",
    "use_monitor",
    "use_tracer",
    "worst_status",
    "write_manifest",
]
