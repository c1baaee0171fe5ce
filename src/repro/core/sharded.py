"""Out-of-core day preparation over a sharded edge store.

The in-memory path (:meth:`repro.core.pipeline.Segugio.prepare_day`)
builds both CSR directions of the full behavior graph before pruning —
impossible at the paper's ~320M edges/day.  This module runs the same
three phases (graph build, labeling, pruning R1–R4) as three passes of
per-shard workers over a :class:`~repro.datasets.edgestore.EdgeStore`,
merging partial aggregates on the coordinator:

* **scan** (``shard_scan``) — per-shard machine/domain degree counts and
  distinct (machine, e2LD) pair counts for R4;
* **labels** (``shard_labels``) — per-shard malware/benign machine
  degrees against the coordinator-labeled domain array;
* **prune** (``shard_prune``) — per-shard kept-edge extraction under the
  coordinator-computed keep masks.

Every pass runs through :func:`repro.runtime.supervisor.supervised_map`,
so worker loss, hangs, and memory pressure walk the same degradation
ladder as the forest hot path, and fault plans can target the three
``shard_*`` sites.

Determinism: machines are partitioned by ``machine_id % n_shards``, so
per-shard degree and distinct-pair aggregates are *exact* (not
approximate) restrictions of the global ones; merged arrays are ordered
by global id; and the final kept-edge merge lexsorts by (machine,
domain), reproducing the in-memory edge order byte for byte.  The
equivalence is enforced by tests at shard counts {1, 2, 7}.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.core.labeling import (
    BENIGN,
    MALWARE,
    UNKNOWN,
    GraphLabels,
    derive_machine_labels,
    label_domain_ids,
)
from repro.core.pruning import (
    RULE_ABSENT,
    RULE_KEPT,
    RULE_ORPHANED,
    RULE_R1,
    RULE_R2,
    RULE_R3,
    RULE_R4,
    PruneResult,
    _pct,
)
from repro.datasets.edgestore import EdgeStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import (
    UNIT_EDGE_BATCHES,
    UNIT_GRAPH_EDGES,
    UNIT_TRACE_ROWS,
    count_units,
)
from repro.obs.tracing import Stopwatch, current_tracer
from repro.runtime.supervisor import supervised_map

if TYPE_CHECKING:  # pipeline imports this module lazily; avoid the cycle
    from repro.core.pipeline import ObservationContext, SegugioConfig

#: coordinator-written sidecars the shard workers mmap (kept out of the
#: task tuples so a 4M-domain map is not pickled once per shard)
E2LD_MAP_NAME = "e2ld_map.npy"
DOMAIN_LABELS_NAME = "domain_labels.npy"


# ---------------------------------------------------------------------- #
# pool workers — module-level and picklable (SEG102); read-only
# ---------------------------------------------------------------------- #


def _shard_scan(
    directory: str, shard: int, n_e2lds: int, apply_r4: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Degree and e2LD-popularity aggregates for one shard.

    Edges in a shard are deduplicated, so per-machine counts *are* the
    distinct-domain degrees; machines live wholly in one shard, so the
    counts are final.  Domain degrees are partial and summed by the
    coordinator.
    """
    store = EdgeStore.open(directory)
    em, ed = store.shard_edges(shard)
    em = np.asarray(em)
    ed = np.asarray(ed)
    machine_ids, machine_counts = np.unique(em, return_counts=True)
    domain_ids, domain_counts = np.unique(ed, return_counts=True)
    if apply_r4 and em.size:
        e2ld_map = np.asarray(
            np.load(os.path.join(directory, E2LD_MAP_NAME), mmap_mode="r")
        )
        pair_keys = em * np.int64(n_e2lds) + e2ld_map[ed]
        unique_pairs = np.unique(pair_keys)
        e2ld_counts = np.bincount(
            (unique_pairs % n_e2lds).astype(np.int64), minlength=n_e2lds
        )
    else:
        e2ld_counts = np.zeros(n_e2lds, dtype=np.int64)
    return (
        machine_ids,
        machine_counts.astype(np.int64),
        domain_ids,
        domain_counts.astype(np.int64),
        e2ld_counts,
    )


def _shard_labels(
    directory: str, shard: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-shard malware/benign degree of each of the shard's machines.

    Reads the coordinator's ``domain_labels.npy`` sidecar; uses the same
    float64-weighted bincount as :func:`derive_machine_labels` (counts
    are exact integers either way).
    """
    store = EdgeStore.open(directory)
    em, ed = store.shard_edges(shard)
    em = np.asarray(em)
    ed = np.asarray(ed)
    if not em.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    domain_labels = np.asarray(
        np.load(os.path.join(directory, DOMAIN_LABELS_NAME), mmap_mode="r")
    )
    machine_ids = np.unique(em)
    compact = np.searchsorted(machine_ids, em)
    edge_labels = domain_labels[ed]
    malware = np.bincount(
        compact,
        weights=(edge_labels == MALWARE).astype(np.float64),
        minlength=machine_ids.size,
    ).astype(np.int64)
    benign = np.bincount(
        compact,
        weights=(edge_labels == BENIGN).astype(np.float64),
        minlength=machine_ids.size,
    ).astype(np.int64)
    return machine_ids, malware, benign


def _shard_kept_edges(
    directory: str,
    shard: int,
    keep_machines_packed: np.ndarray,
    keep_domains_packed: np.ndarray,
    n_machine_ids: int,
    n_domain_ids: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Edges of one shard surviving the coordinator's keep masks.

    Masks ride in bit-packed (8 ids/byte) so a 4M-machine mask pickles
    at ~500 KB per task instead of 4 MB.
    """
    store = EdgeStore.open(directory)
    em, ed = store.shard_edges(shard)
    em = np.asarray(em)
    ed = np.asarray(ed)
    keep_m = np.unpackbits(keep_machines_packed, count=n_machine_ids).astype(
        bool
    )
    keep_d = np.unpackbits(keep_domains_packed, count=n_domain_ids).astype(
        bool
    )
    kept = keep_m[em] & keep_d[ed]
    return em[kept], ed[kept]


# ---------------------------------------------------------------------- #
# coordinator
# ---------------------------------------------------------------------- #


def _emit_degree_metrics(
    registry: MetricsRegistry,
    machine_degrees: np.ndarray,
    domain_degrees: np.ndarray,
    n_edges: int,
    stage: str,
) -> None:
    """The gauges ``_emit_graph_metrics`` derives from a built graph,
    computed from merged degree arrays instead."""
    if not registry.enabled:
        return
    nodes = registry.gauge(
        "segugio_graph_nodes", "graph node counts", labels=("kind", "stage")
    )
    nodes.set(int(np.count_nonzero(machine_degrees)), kind="machine", stage=stage)
    nodes.set(int(np.count_nonzero(domain_degrees)), kind="domain", stage=stage)
    registry.gauge(
        "segugio_graph_edges", "graph edge count", labels=("stage",)
    ).set(n_edges, stage=stage)
    degree = registry.gauge(
        "segugio_graph_degree",
        "degree distribution stats",
        labels=("kind", "stat", "stage"),
    )
    for kind, degrees in (
        ("machine", machine_degrees),
        ("domain", domain_degrees),
    ):
        present = degrees[degrees > 0]
        mean = float(present.mean()) if present.size else 0.0
        peak = int(present.max()) if present.size else 0
        degree.set(mean, kind=kind, stat="mean", stage=stage)
        degree.set(peak, kind=kind, stat="max", stage=stage)


def build_day_sharded(
    context: "ObservationContext",
    config: "SegugioConfig",
    registry: MetricsRegistry,
    hidden: np.ndarray,
    watch: Optional[Stopwatch] = None,
) -> Tuple[PruneResult, GraphLabels, np.ndarray]:
    """Graph build + labeling + pruning for a sharded day.

    ``hidden`` is ``prepare_day``'s normalised id array: those domains are
    relabeled UNKNOWN before the label pass.  Returns
    ``(prune_result, labels, domain_labels)`` where the pruned
    graph inside the result is a normal in-memory
    :class:`BehaviorGraph` — pruning removes the overwhelming bulk of a
    paper-scale day (§III reports >90%), so the survivor graph fits in
    memory and the downstream feature/classifier layers run unchanged.

    Every array and statistic is bit-identical to the in-memory path at
    any shard count; phase names match ``prepare_day`` so wall-clock and
    throughput attribution stay comparable across the two paths.
    """
    watch = watch if watch is not None else Stopwatch()
    trace = context.trace
    store: EdgeStore = trace.store
    prune_config = config.prune
    n_machine_ids = len(trace.machines)
    n_domain_ids = len(trace.domains)
    n_e2lds = len(context.e2ld_index)
    n_shards = store.n_shards
    jobs = max(1, int(config.n_jobs)) if config.n_jobs != -1 else (os.cpu_count() or 1)

    with current_tracer().span(
        "segugio_sharded_build",
        n_shards=n_shards,
        n_batches=store.n_batches,
        n_edges=store.n_edges,
    ):
        with watch.phase("build_graph"):
            if prune_config.apply_r4:
                np.save(
                    os.path.join(trace.directory, E2LD_MAP_NAME),
                    context.e2ld_index.map_array(),
                )
            scans = supervised_map(
                _shard_scan,
                [
                    (trace.directory, shard, n_e2lds, prune_config.apply_r4)
                    for shard in range(n_shards)
                ],
                max_workers=jobs,
                label="shard_scan",
            )
            machine_degrees = np.zeros(n_machine_ids, dtype=np.int64)
            domain_degrees = np.zeros(n_domain_ids, dtype=np.int64)
            e2ld_machine_counts = np.zeros(n_e2lds, dtype=np.int64)
            for mids, mdeg, dids, ddeg, e2c in scans:
                # machines are partitioned by shard: direct assignment
                machine_degrees[mids] = mdeg
                np.add.at(domain_degrees, dids, ddeg)
                e2ld_machine_counts += e2c
        count_units(UNIT_TRACE_ROWS, int(store.n_edges))
        count_units(UNIT_GRAPH_EDGES, int(store.n_edges))
        count_units(UNIT_EDGE_BATCHES, int(store.n_batches))
        _emit_degree_metrics(
            registry, machine_degrees, domain_degrees, store.n_edges, "raw"
        )

        with watch.phase("label_nodes"):
            present_domain_ids = np.flatnonzero(domain_degrees > 0)
            domain_labels = label_domain_ids(
                present_domain_ids,
                trace.domains,
                n_domain_ids,
                context.blacklist,
                context.whitelist,
                context.day,
            )
            domain_labels[hidden] = UNKNOWN
            np.save(
                os.path.join(trace.directory, DOMAIN_LABELS_NAME),
                domain_labels,
            )
            label_parts = supervised_map(
                _shard_labels,
                [(trace.directory, shard) for shard in range(n_shards)],
                max_workers=jobs,
                label="shard_labels",
            )
            malware_degree = np.zeros(n_machine_ids, dtype=np.int64)
            benign_degree = np.zeros(n_machine_ids, dtype=np.int64)
            for mids, malware, benign in label_parts:
                malware_degree[mids] = malware
                benign_degree[mids] = benign
            machine_labels = np.zeros(n_machine_ids, dtype=np.int8)
            machine_labels[
                (machine_degrees > 0) & (benign_degree == machine_degrees)
            ] = BENIGN
            machine_labels[malware_degree > 0] = MALWARE

        with watch.phase("prune_graph"):
            result = _prune_sharded(
                trace,
                store,
                machine_degrees,
                domain_degrees,
                e2ld_machine_counts,
                machine_labels,
                domain_labels,
                context.e2ld_index,
                prune_config,
                jobs,
            )
            labels = derive_machine_labels(result.graph, domain_labels)
    return result, labels, domain_labels


def _prune_sharded(
    trace,
    store: EdgeStore,
    machine_degrees: np.ndarray,
    domain_degrees: np.ndarray,
    e2ld_machine_counts: np.ndarray,
    machine_labels: np.ndarray,
    domain_labels: np.ndarray,
    e2ld_index,
    config,
    jobs: int,
) -> PruneResult:
    """R1–R4 on merged aggregates — a line-for-line port of
    :func:`repro.core.pruning.prune_graph` with degree arrays standing in
    for the materialized graph."""
    present_machines = machine_degrees > 0
    present_domains = domain_degrees > 0
    n_machines = int(np.count_nonzero(present_machines))

    keep_machines = present_machines.copy()
    keep_domains = present_domains.copy()
    machine_is_malware = machine_labels == MALWARE
    domain_is_malware = domain_labels == MALWARE

    machine_rule = np.where(present_machines, RULE_KEPT, RULE_ABSENT).astype(
        np.int8
    )
    domain_rule = np.where(present_domains, RULE_KEPT, RULE_ABSENT).astype(
        np.int8
    )

    removed = {"r1": 0, "r2": 0, "r3": 0, "r4": 0}

    if config.apply_r1:
        inactive = (
            present_machines
            & (machine_degrees <= config.r1_min_domains)
            & ~machine_is_malware
        )
        removed["r1"] = int(np.count_nonzero(inactive & keep_machines))
        machine_rule[inactive & keep_machines] = RULE_R1
        keep_machines &= ~inactive

    if config.apply_r2:
        active_degrees = machine_degrees[present_machines]
        if active_degrees.size:
            theta_d = np.percentile(
                active_degrees, config.r2_percentile, method="higher"
            )
            meganode = present_machines & (machine_degrees >= theta_d)
            if theta_d > np.median(active_degrees):
                removed["r2"] = int(np.count_nonzero(meganode & keep_machines))
                machine_rule[meganode & keep_machines] = RULE_R2
                keep_machines &= ~meganode

    if config.apply_r3:
        singletons = (
            present_domains & (domain_degrees == 1) & ~domain_is_malware
        )
        removed["r3"] = int(np.count_nonzero(singletons & keep_domains))
        domain_rule[singletons & keep_domains] = RULE_R3
        keep_domains &= ~singletons

    if config.apply_r4:
        theta_m = config.r4_machine_fraction * n_machines
        e2ld_map = e2ld_index.map_array()
        hot_e2lds = e2ld_machine_counts >= max(theta_m, 1)
        too_popular = present_domains & hot_e2lds[e2ld_map]
        removed["r4"] = int(np.count_nonzero(too_popular & keep_domains))
        domain_rule[too_popular & keep_domains] = RULE_R4
        keep_domains &= ~too_popular

    kept_parts = supervised_map(
        _shard_kept_edges,
        [
            (
                trace.directory,
                shard,
                np.packbits(keep_machines),
                np.packbits(keep_domains),
                keep_machines.size,
                keep_domains.size,
            )
            for shard in range(store.n_shards)
        ],
        max_workers=jobs,
        label="shard_prune",
    )
    em_all = np.concatenate(
        [part[0] for part in kept_parts]
        or [np.empty(0, dtype=np.int64)]
    )
    ed_all = np.concatenate(
        [part[1] for part in kept_parts]
        or [np.empty(0, dtype=np.int64)]
    )
    # Pairs are globally unique, so (machine, domain) lexsort reproduces
    # the in-memory `_dedupe_edges` edge order exactly.
    order = np.lexsort((ed_all, em_all))
    em_all = em_all[order]
    ed_all = ed_all[order]
    resolutions = trace.resolutions_for(np.unique(ed_all))
    pruned = BehaviorGraph(
        trace.day, trace.machines, trace.domains, em_all, ed_all, resolutions
    )

    domain_rule[
        (domain_rule == RULE_KEPT) & (pruned.domain_degrees() == 0)
    ] = RULE_ORPHANED
    machine_rule[
        (machine_rule == RULE_KEPT) & (pruned.machine_degrees() == 0)
    ] = RULE_ORPHANED

    n_domains = int(np.count_nonzero(present_domains))
    stats: Dict[str, float] = {
        "machines_before": float(n_machines),
        "machines_after": float(pruned.n_machines),
        "domains_before": float(n_domains),
        "domains_after": float(pruned.n_domains),
        "edges_before": float(store.n_edges),
        "edges_after": float(pruned.n_edges),
        "removed_r1_machines": float(removed["r1"]),
        "removed_r2_machines": float(removed["r2"]),
        "removed_r3_domains": float(removed["r3"]),
        "removed_r4_domains": float(removed["r4"]),
    }
    stats["machines_removed_pct"] = _pct(n_machines, pruned.n_machines)
    stats["domains_removed_pct"] = _pct(n_domains, pruned.n_domains)
    stats["edges_removed_pct"] = _pct(store.n_edges, pruned.n_edges)
    return PruneResult(
        graph=pruned,
        stats=stats,
        domain_rule=domain_rule,
        machine_rule=machine_rule,
    )
