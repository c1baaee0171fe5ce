"""Central registry of every ``segugio_*`` span name in the codebase.

The run manifest keys per-phase timings, resource attribution, and the
paper's §IV-G efficiency table on span names, so a name typo'd at one
call site silently forks the telemetry namespace: old dashboards stop
matching, baselines pin stale names, and manifest diffs across runs go
quiet instead of loud.  Every ``span("segugio_...")`` literal must be
declared here — the whole-program lint rule SEG104 cross-checks call
sites against this registry (an unregistered literal is an error, an
unused registry entry is a warning), replacing the earlier practice of
pinning renamed span names in the lint baseline.

Keep the set sorted and grouped by subsystem; add the new name here in
the same change that introduces the call site.
"""

from __future__ import annotations

#: every span name the tracer may emit, grouped by owning subsystem
SPAN_NAMES = frozenset(
    {
        # run loop (repro.obs.run)
        "segugio_run_day",
        # runtime: ingest, checkpointing
        "segugio_ingest_load_observation",
        "segugio_checkpoint_save",
        "segugio_checkpoint_resume",
        # out-of-core sharded graph build (repro.core.sharded)
        "segugio_sharded_build",
        # core tracker phases (the paper's daily loop)
        "segugio_tracker_health_check",
        "segugio_tracker_prepare",
        "segugio_tracker_fit",
        "segugio_tracker_calibrate",
        "segugio_tracker_classify",
        "segugio_tracker_quality_check",
        "segugio_tracker_ledger_update",
        # feature measurement (paper §IV-B feature families)
        "segugio_features_f1_machine",
        "segugio_features_f2_activity",
        "segugio_features_f3_ip",
        # ML layer
        "segugio_forest_fit",
        "segugio_forest_predict",
        # decision provenance
        "segugio_decisions_emit",
        "segugio_decisions_flush",
        # evaluation harness
        "segugio_experiment_select_split",
        "segugio_experiment_fit",
        "segugio_experiment_classify",
    }
)
