"""End-to-end profiling gate behind ``segugio bench`` (``BENCH_e2e.json``).

Runs one pinned tracking campaign with profiling off, with profiling on,
and with profiling on over a sharded edge store, and gates on what only
this comparison can show: the three runs' ledgers and ``decisions.jsonl``
are byte-identical, every supervised pool task contributed its worker
span, and profiling costs under :data:`E2E_OVERHEAD_GATE_PCT` of wall.
Per-layer cost is not measured here — ``python3 benchmarks/segbench/run.py``
is the benchmark.  Timings use ``time.perf_counter`` (durations, not
wall-clock identity; same policy as the stopwatch).
"""

from __future__ import annotations

import io
import json
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.pipeline import SegugioConfig
from repro.datasets.edgestore import resharded
from repro.obs.manifest import TelemetryRun
from repro.runtime.supervisor import world_days
from repro.synth.scenario import Scenario

#: schema of the ``BENCH_e2e.json`` payload emitted by ``segugio bench``
E2E_SCHEMA_VERSION = 3

#: regression gate: profiling overhead above this trips ``segugio bench``
E2E_OVERHEAD_GATE_PCT = 3.0

#: minimum rounds feeding the median per-round overhead estimate — a
#: median of fewer pairs is just a noisy point estimate
E2E_MIN_ROUNDS = 3

#: hard cap on e2e rounds (each round is one baseline + one profiled +
#: one sharded campaign).  Generous on purpose: co-tenant contention
#: bursts can inflate whole rounds for tens of seconds, and the median
#: needs enough clean rounds to outvote them — a quiet box converges
#: and exits after max(repeats, E2E_MIN_ROUNDS) rounds regardless
E2E_MAX_ROUNDS = 20


def _profiled_leg(manifest: Mapping[str, object]) -> Dict[str, object]:
    """What one profiled campaign's manifest contributes to the payload.

    Throughput headlines and peak RSS from its ``resources`` summary, and
    worker-span coverage: ``complete`` is True when every supervised pool
    task contributed exactly one merged ``segugio_worker_task`` span and
    nothing was quarantined or went missing (DESIGN.md §15) — the
    cross-process tracing analogue of the bit-identity checks.
    """
    run = TelemetryRun(manifest)
    resources = run.resources or {"throughput": {}, "units": {}, "process": {}}
    counts = run.worker_accounting()
    return {
        "throughput": {
            key: resources["throughput"].get(key)
            for key in (
                "trace_rows_per_s",
                "graph_edges_per_s",
                "domains_scored_per_s",
            )
        },
        "units": dict(resources["units"]),
        "peak_rss_mb": resources["process"].get("peak_rss_mb"),
        "worker_tracing": {
            "n_worker_spans": counts["n_worker_spans"],
            "n_pool_tasks": counts["n_pool_tasks"],
            "n_quarantined": counts["n_quarantined"],
            "n_missing": counts["n_missing"],
            "complete": (
                counts["n_worker_spans"]
                == counts["n_merged"]
                == counts["n_pool_tasks"]
                and counts["n_quarantined"] == 0
                and counts["n_missing"] == 0
            ),
        },
    }


def _tracked_campaign(
    contexts,
    config: SegugioConfig,
    fp_target: float,
    profile: bool,
    tag: Optional[str] = None,
) -> Tuple[float, str, str, Dict[str, object]]:
    """One timed run of the pinned tracking campaign.

    Returns ``(seconds, decisions_jsonl, ledger_json, manifest)``.  The
    campaign is fully deterministic, so the artifacts are identical
    across repeats — only the wall-clock varies.
    """
    from repro.core.tracker import DomainTracker
    from repro.obs.run import RunTelemetry

    if tag is None:
        tag = "profiled" if profile else "baseline"
    telemetry = RunTelemetry(
        command="bench-e2e",
        run_id=f"bench-e2e-{tag}",
        profile=profile,
    )
    tracker = DomainTracker(
        config, fp_target=fp_target, telemetry=telemetry
    )
    start = time.perf_counter()
    for context in contexts:
        tracker.process_day(context)
    seconds = time.perf_counter() - start
    buffer = io.StringIO()
    telemetry.decisions.write_jsonl(buffer)
    decisions_jsonl = buffer.getvalue()
    ledger_json = json.dumps(tracker.state_dict(), sort_keys=True)
    manifest = telemetry.build_manifest()
    return seconds, decisions_jsonl, ledger_json, manifest


def run_e2e_bench(
    scale: str = "small",
    seed: int = 7,
    n_jobs: int = 1,
    repeats: int = 2,
    isp: str = "isp1",
    n_days: int = 2,
    fp_target: float = 0.01,
    config: Optional[SegugioConfig] = None,
    n_shards: int = 2,
    batch_size: Optional[int] = None,
    max_rounds: Optional[int] = None,
) -> Dict[str, object]:
    """The end-to-end baseline behind ``segugio bench``.

    Runs the same pinned tracking campaign three times — profiling off
    (baseline), profiling on, and profiling on over *n_shards* out-of-core
    edge stores (the streaming ingestion path) — and reports:

    * throughput headlines from the profiled run's ``resources`` summary
      (trace rows/s, graph edges/s, domains scored/s) plus its peak RSS;
    * the profiling **overhead** in percent of baseline wall-clock —
      the lower of two independent estimators over interleaved rounds
      after an untimed warm-up: the *median of per-round ratios* (the
      two legs of a round run back to back, so a burst spanning the
      round cancels in the ratio) and the *best-of floor delta* (exact
      whenever each leg caught one quiet window).  Contention noise
      corrupts the two through different mechanisms — sub-leg bursts
      skew the median, misaligned quiet windows skew the floors (13%
      phantom overhead observed on a steal-heavy single-core guest,
      where even CPU-time accounting absorbs stolen ticks) — so
      requiring both to exceed the gate suppresses false failures,
      while a real regression inflates every profiled sample, drives
      both estimators to the true value, and still fails.  At least
      max(*repeats*, :data:`E2E_MIN_ROUNDS`) rounds run; rounds then
      continue until the estimate drops below the gate (capped at
      :data:`E2E_MAX_ROUNDS`).  Profiled runs carry the full
      worker-side tracing stack (sidecar spill + merge, DESIGN.md §15),
      so the overhead gate prices that in too;
    * whether the decision ledger and ``decisions.jsonl`` stream are
      **bit-identical** across all three runs — the observation-only
      guarantee of :mod:`repro.obs.resources` and the determinism
      contract of :mod:`repro.core.sharded`, measured, not assumed; and
    * **worker-span coverage**: every supervised pool task of the
      profiled runs must have contributed exactly one merged worker
      span, none quarantined or missing.

    ``gate.passed`` is False when any outputs diverge, worker-span
    coverage is incomplete, or overhead reaches
    :data:`E2E_OVERHEAD_GATE_PCT`; the CLI turns that into a non-zero
    exit, making this the regression gate for the profiling layer, the
    cross-process tracing layer, and the sharded execution path.  When
    *max_rounds* caps the run below :data:`E2E_MIN_ROUNDS` (the CLI's
    ``--quick`` smoke mode runs a single round), the overhead term is
    advisory — still reported, but a lone noisy sample cannot fail the
    gate; ``gate.overhead_gated`` records which regime applied.
    """
    import tempfile

    from repro.dns.trace import DEFAULT_BATCH_SIZE

    if config is None:
        config = SegugioConfig(n_jobs=n_jobs)
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    # the pinned days every leg replays, built (and resharded) untimed
    contexts = list(world_days(Scenario.at_scale(scale, seed), n_days, isp=isp))
    round_cap = (
        E2E_MAX_ROUNDS
        if max_rounds is None
        else max(max(1, repeats), int(max_rounds))
    )
    _tracked_campaign(contexts, config, fp_target, False)  # warm-up, untimed
    base_s = prof_s = shard_s = float("inf")
    base_decisions = base_ledger = prof_decisions = prof_ledger = ""
    shard_decisions = shard_ledger = ""
    manifest: Dict[str, object] = {}
    shard_manifest: Dict[str, object] = {}
    n_rounds = 0
    pairs: List[Tuple[float, float]] = []

    def overhead_estimate() -> float:
        # The lower of two independent estimators.  Median of per-round
        # ratios: each pair ran back to back inside one round, so a
        # contention burst spanning the round hits both legs and cancels
        # — but sub-leg bursts land on one leg and leave the median with
        # a standard error of several percent on a steal-heavy box.
        # Best-of floors: exact on a box with quiet windows, but phantom
        # when the two legs' quiet windows never align.  Noise inflates
        # the two estimators through different mechanisms, so requiring
        # BOTH to exceed the gate suppresses false failures; a real
        # regression raises profiled wall-clock in every sample, drives
        # both estimators to the true value, and still fails.
        deltas = sorted(
            (prof - base) / base * 100.0 for base, prof in pairs if base > 0
        )
        if not deltas:
            return 0.0
        mid = len(deltas) // 2
        median = (
            deltas[mid]
            if len(deltas) % 2
            else (deltas[mid - 1] + deltas[mid]) / 2.0
        )
        if base_s > 0 and prof_s != float("inf"):
            return min(median, (prof_s - base_s) / base_s * 100.0)
        return median

    min_rounds = max(
        1,
        repeats if max_rounds is not None else max(repeats, E2E_MIN_ROUNDS),
    )
    with tempfile.TemporaryDirectory(prefix="segugio-bench-shards-") as root:
        sharded = list(
            resharded(contexts, root, n_shards=n_shards, batch_size=batch_size)
        )
        while n_rounds < min_rounds or (
            overhead_estimate() >= E2E_OVERHEAD_GATE_PCT
            and n_rounds < round_cap
        ):
            round_base = round_prof = 0.0
            # Alternate baseline/profiled order each round: contention
            # bursts have onsets and decays, and a fixed order would let
            # a burst edge land on the same leg every round.
            legs = [False, True] if n_rounds % 2 == 0 else [True, False]
            for profile in legs:
                if profile:
                    s, prof_decisions, prof_ledger, manifest = (
                        _tracked_campaign(contexts, config, fp_target, True)
                    )
                    round_prof = s
                    prof_s = min(prof_s, s)
                else:
                    s, base_decisions, base_ledger, _ = _tracked_campaign(
                        contexts, config, fp_target, False
                    )
                    round_base = s
                    base_s = min(base_s, s)
            pairs.append((round_base, round_prof))
            s, shard_decisions, shard_ledger, shard_manifest = (
                _tracked_campaign(
                    sharded, config, fp_target, True, tag="sharded"
                )
            )
            shard_s = min(shard_s, s)
            n_rounds += 1
    identical = (
        base_decisions == prof_decisions and base_ledger == prof_ledger
    )
    shard_identical = (
        base_decisions == shard_decisions and base_ledger == shard_ledger
    )
    overhead_pct = overhead_estimate()
    leg, shard_leg = _profiled_leg(manifest), _profiled_leg(shard_manifest)
    # Quick mode (max_rounds=repeats=1) collects a single base/profiled
    # pair, which on a steal-prone box is pure noise — one sample of a
    # distribution whose stdev we've measured at ~13 points.  The overhead
    # term only gates when the round count reaches the statistical minimum;
    # below that it is advisory (reported in the payload, ignored by
    # ``passed``).  Correctness terms always gate.
    overhead_gated = n_rounds >= E2E_MIN_ROUNDS
    passed = (
        identical
        and shard_identical
        and (overhead_pct < E2E_OVERHEAD_GATE_PCT or not overhead_gated)
        and leg["worker_tracing"]["complete"]
        and shard_leg["worker_tracing"]["complete"]
    )
    return {
        "schema_version": E2E_SCHEMA_VERSION,
        "params": {
            "scale": scale,
            "seed": int(seed),
            "isp": isp,
            "n_jobs": int(n_jobs),
            "repeats": int(repeats),
            "n_days": int(n_days),
            "fp_target": float(fp_target),
            "n_estimators": int(config.n_estimators),
            "n_shards": int(n_shards),
            "batch_size": int(batch_size),
            "n_rounds": int(n_rounds),
        },
        "baseline": {"seconds": base_s},
        "profiled": {"seconds": prof_s},
        **leg,
        "sharded": {
            "n_shards": int(n_shards),
            "batch_size": int(batch_size),
            "seconds": shard_s,
            "outputs_bit_identical": shard_identical,
            **shard_leg,
        },
        "profiling": {
            "overhead_pct": overhead_pct,
            "outputs_bit_identical": identical,
            "n_decision_records": base_decisions.count("\n"),
        },
        "gate": {
            "max_overhead_pct": E2E_OVERHEAD_GATE_PCT,
            "overhead_gated": overhead_gated,
            "passed": passed,
        },
    }


def render_e2e_bench(payload: Mapping[str, Any]) -> str:
    """Human-readable summary of a ``BENCH_e2e.json`` payload."""
    params = payload["params"]
    profiling = payload["profiling"]
    gate = payload["gate"]

    def per_s(leg: Mapping[str, Any], key: str) -> str:
        value = leg["throughput"][key]
        return f"{float(value):.0f}/s" if value is not None else "n/a"

    peak = payload["peak_rss_mb"]
    lines = [
        f"end-to-end benchmark (scale={params['scale']}, "
        f"seed={params['seed']}, days={params['n_days']}, "
        f"jobs={params['n_jobs']}, repeats={params['repeats']})",
        f"  baseline: {payload['baseline']['seconds']:.3f}s, "
        f"profiled: {payload['profiled']['seconds']:.3f}s "
        f"(overhead {profiling['overhead_pct']:+.2f}%)",
        f"  throughput: trace rows {per_s(payload, 'trace_rows_per_s')}, "
        f"graph edges {per_s(payload, 'graph_edges_per_s')}, "
        f"domains scored {per_s(payload, 'domains_scored_per_s')}",
        f"  peak rss: "
        + (f"{float(peak):.1f} MB" if peak is not None else "n/a"),
        f"  outputs bit-identical with profiling: "
        f"{profiling['outputs_bit_identical']} "
        f"({profiling['n_decision_records']} decision records)",
    ]
    worker_tracing = payload["worker_tracing"]
    sharded = payload["sharded"]
    sh_peak = sharded["peak_rss_mb"]
    lines += [
        f"  worker tracing: {worker_tracing['n_worker_spans']} span(s) "
        f"merged for {worker_tracing['n_pool_tasks']} pool task(s), "
        f"{worker_tracing['n_quarantined']} quarantined, "
        f"{worker_tracing['n_missing']} missing "
        f"(complete: {worker_tracing['complete']})",
        f"  sharded ({sharded['n_shards']} shards, "
        f"batch {sharded['batch_size']}): "
        f"{float(sharded['seconds']):.3f}s, "
        f"trace rows {per_s(sharded, 'trace_rows_per_s')}, "
        f"graph edges {per_s(sharded, 'graph_edges_per_s')}, "
        f"domains scored {per_s(sharded, 'domains_scored_per_s')}, "
        f"peak rss "
        + (f"{float(sh_peak):.1f} MB" if sh_peak is not None else "n/a"),
        f"  outputs bit-identical with sharding: "
        f"{sharded['outputs_bit_identical']}",
    ]
    overhead_term = (
        f"overhead < {gate['max_overhead_pct']:.0f}%"
        if gate["overhead_gated"]
        else "overhead advisory"
    )
    lines.append(
        f"  gate ({overhead_term}, "
        f"bit-identical, worker spans complete): "
        f"{'PASS' if gate['passed'] else 'FAIL'}"
    )
    return "\n".join(lines)
