"""Out-of-core day preparation over a sharded edge store.

The in-memory path (:meth:`repro.core.pipeline.Segugio.prepare_day`)
builds both CSR directions of the full behavior graph before pruning —
impossible at the paper's ~320M edges/day.  This module prepares the same
day from three passes over a :class:`~repro.datasets.edgestore.EdgeStore`,
one shard at a time, in one process: shards bound memory (a pass holds one
shard's memory-mapped columns), not cores.  It owns *how to count per
shard, how to merge, and how to extract*; what the counts mean is decided
by the one copy of each rule in :mod:`repro.core.labeling` and
:mod:`repro.core.pruning`, which the in-memory path calls too:

* **scan** — per-shard machine/domain degree counts and
  :func:`~repro.core.pruning.count_e2ld_machines`;
* **labels** — per-shard :func:`~repro.core.labeling.count_label_degrees`
  against the labeled domain array;
* **prune** — per-shard kept-edge extraction under the keep masks
  :func:`~repro.core.pruning.decide_pruning` returned.

Determinism: machines are partitioned by ``machine_id % n_shards``, so
per-shard degree and distinct-pair aggregates are *exact* (not
approximate) restrictions of the global ones; merged arrays are ordered
by global id; and the final kept-edge merge orders the concatenated
shards by one packed ``machine * n_domain_ids + domain`` key — pairs are
globally unique, so that is the in-memory (machine, domain) edge order
byte for byte, and each shard arrives sorted, so the stable sort only
merges runs.  The equivalence is enforced by tests at shard counts
{1, 2, 7}.

Between the passes the work is id-space array arithmetic: domains are
labeled by resolving the two ground-truth lists to ids
(:func:`~repro.core.labeling.label_domain_ids`), never by parsing the
day's names.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.core.labeling import (
    UNKNOWN,
    GraphLabels,
    count_label_degrees,
    derive_machine_labels,
    label_domain_ids,
    machine_labels_from_degrees,
)
from repro.core.pipeline import (  # it imports this module lazily: no cycle
    ObservationContext,
    SegugioConfig,
)
from repro.core.pruning import (
    PruneResult,
    count_e2ld_machines,
    decide_pruning,
    finish_pruning,
)
from repro.datasets.edgestore import EdgeStore
from repro.obs.resources import (
    UNIT_EDGE_BATCHES,
    UNIT_GRAPH_EDGES,
    UNIT_TRACE_ROWS,
    count_units,
)
from repro.obs.tracing import current_tracer
from repro.utils.arrays import sorted_unique

# ---------------------------------------------------------------------- #
# per-shard passes — read-only over one shard's edge columns
# ---------------------------------------------------------------------- #


def _shard_columns(store: EdgeStore, shard: int) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's deduped (machine, domain) edge columns."""
    em, ed = store.shard_edges(shard)
    return np.asarray(em), np.asarray(ed)


def _shard_scan(
    em: np.ndarray, ed: np.ndarray, e2ld_map: Optional[np.ndarray], n_e2lds: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Degree and e2LD-popularity aggregates for one shard.

    Edges in a shard are deduplicated, so per-machine counts *are* the
    distinct-domain degrees; machines live wholly in one shard, so the
    counts are final.  Domain degrees are partial and summed by the
    caller.  ``e2ld_map`` is None when R4 is off.
    """
    machine_ids, machine_counts = np.unique(em, return_counts=True)
    domain_ids, domain_counts = np.unique(ed, return_counts=True)
    if e2ld_map is not None:
        e2ld_counts = count_e2ld_machines(em, ed, e2ld_map, n_e2lds)
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
    em: np.ndarray, ed: np.ndarray, domain_labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-shard malware/benign degree of each of the shard's machines."""
    machine_ids = sorted_unique(em)
    malware, benign = count_label_degrees(
        np.searchsorted(machine_ids, em), ed, domain_labels, machine_ids.size
    )
    return machine_ids, malware, benign


# ---------------------------------------------------------------------- #
# the day: scan, labels, prune
# ---------------------------------------------------------------------- #


def build_day_sharded(
    context: ObservationContext,
    config: SegugioConfig,
    hidden: np.ndarray,
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
    trace = context.trace
    store: EdgeStore = trace.store
    prune_config = config.prune
    n_machine_ids = len(trace.machines)
    n_domain_ids = len(trace.domains)
    n_e2lds = len(context.e2ld_index)
    n_shards = store.n_shards
    tracer = current_tracer()

    with tracer.span(
        "segugio_sharded_build",
        n_shards=n_shards,
        n_batches=store.n_batches,
        n_edges=store.n_edges,
    ):
        with tracer.span("build_graph"):
            e2ld_map = context.e2ld_index.map_array()
            machine_degrees = np.zeros(n_machine_ids, dtype=np.int64)
            domain_degrees = np.zeros(n_domain_ids, dtype=np.int64)
            e2ld_machine_counts = np.zeros(n_e2lds, dtype=np.int64)
            for shard in range(n_shards):
                mids, mdeg, dids, ddeg, e2c = _shard_scan(
                    *_shard_columns(store, shard),
                    e2ld_map if prune_config.apply_r4 else None,
                    n_e2lds,
                )
                # machines are partitioned by shard: direct assignment
                machine_degrees[mids] = mdeg
                np.add.at(domain_degrees, dids, ddeg)
                e2ld_machine_counts += e2c
        count_units(UNIT_TRACE_ROWS, int(store.n_edges))
        count_units(UNIT_GRAPH_EDGES, int(store.n_edges))
        count_units(UNIT_EDGE_BATCHES, int(store.n_batches))

        with tracer.span("label_nodes"):
            present_domain_ids = np.flatnonzero(domain_degrees > 0)
            domain_labels = label_domain_ids(
                present_domain_ids,
                trace.domains,
                n_domain_ids,
                context.blacklist,
                context.whitelist,
                context.e2ld_index,
                context.day,
            )
            domain_labels[hidden] = UNKNOWN
            malware_degree = np.zeros(n_machine_ids, dtype=np.int64)
            benign_degree = np.zeros(n_machine_ids, dtype=np.int64)
            for shard in range(n_shards):
                mids, malware, benign = _shard_labels(
                    *_shard_columns(store, shard), domain_labels
                )
                malware_degree[mids] = malware
                benign_degree[mids] = benign
            machine_labels = machine_labels_from_degrees(
                machine_degrees, malware_degree, benign_degree
            )

        with tracer.span("prune_graph"):
            decision = decide_pruning(
                machine_degrees,
                domain_degrees,
                e2ld_machine_counts,
                machine_labels,
                domain_labels,
                e2ld_map,
                prune_config,
            )
            pruned = _kept_subgraph(
                trace, decision.keep_machines, decision.keep_domains
            )
            result = finish_pruning(decision, pruned, store.n_edges)
            labels = derive_machine_labels(result.graph, domain_labels)
    return result, labels, domain_labels


def _kept_subgraph(
    trace, keep_machines: np.ndarray, keep_domains: np.ndarray
) -> BehaviorGraph:
    """The sharded ``BehaviorGraph.subgraph``: kept edges of every shard,
    merged into the in-memory edge order."""
    kept_parts = []
    for shard in range(trace.n_shards):
        em, ed = _shard_columns(trace.store, shard)
        kept = keep_machines[em] & keep_domains[ed]
        kept_parts.append((em[kept], ed[kept]))
    em_all = np.concatenate(
        [part[0] for part in kept_parts]
        or [np.empty(0, dtype=np.int64)]
    )
    ed_all = np.concatenate(
        [part[1] for part in kept_parts]
        or [np.empty(0, dtype=np.int64)]
    )
    # Pairs are globally unique, so ordering by the packed (machine,
    # domain) key reproduces the in-memory `_dedupe_edges` edge order
    # exactly; each shard arrives sorted, so the stable sort only merges.
    n_domain_ids = keep_domains.size
    order = np.argsort(em_all * n_domain_ids + ed_all, kind="stable")
    em_all = em_all[order]
    ed_all = ed_all[order]
    kept_domains = np.zeros(n_domain_ids, dtype=bool)
    kept_domains[ed_all] = True
    resolutions = trace.resolutions_for(np.flatnonzero(kept_domains))
    return BehaviorGraph(
        trace.day, trace.machines, trace.domains, em_all, ed_all, resolutions
    )
