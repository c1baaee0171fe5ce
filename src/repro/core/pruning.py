"""Graph pruning: the conservative filtering rules R1-R4 (paper §II-A2).

* **R1** — discard "inactive" machines querying <= ``r1_min_domains`` (5)
  domains... *except* machines already labeled MALWARE (a quiet infected
  machine may still query its couple of C&C domains).
* **R2** — discard proxy/forwarder meganodes: machines whose degree is at or
  above the ``r2_percentile`` (99.99) percentile of machine degrees.
* **R3** — discard domains queried by only one machine... *except* known
  malware-control domains.
* **R4** — discard extremely popular domains: those whose effective 2LD is
  queried by >= ``r4_machine_fraction`` (1/3) of all machines in the network.

All thresholds are expressed exactly as in the paper (a percentile and a
fraction), so the rules transfer unchanged between the paper's multi-million
machine graphs and the scaled-down synthetic scenarios.

This module is the only copy of the rules.  They never look at an edge:
:func:`decide_pruning` maps three count arrays (machine degrees, domain
degrees, :func:`count_e2ld_machines`) plus the labels to two keep masks, the
caller brings back the kept edges however it stores them, and
:func:`finish_pruning` attributes orphans and tallies the stats.
:func:`prune_graph` does that for an in-memory graph,
:func:`repro.core.sharded.build_day_sharded` for per-shard counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.core.labeling import MALWARE, GraphLabels
from repro.dns.e2ld import E2ldIndex
from repro.utils.arrays import sorted_unique

# Per-node rule-attribution codes (int8 arrays indexed by global id).
# A node is attributed to the *first* rule that removed it; ORPHANED marks
# nodes no rule touched directly but whose every edge endpoint was pruned.
RULE_ABSENT = np.int8(-1)
RULE_KEPT = np.int8(0)
RULE_R1 = np.int8(1)
RULE_R2 = np.int8(2)
RULE_R3 = np.int8(3)
RULE_R4 = np.int8(4)
RULE_ORPHANED = np.int8(5)

RULE_NAMES: Dict[int, str] = {
    int(RULE_R1): "r1",
    int(RULE_R2): "r2",
    int(RULE_R3): "r3",
    int(RULE_R4): "r4",
    int(RULE_ORPHANED): "orphaned",
}


def rule_name(code: int) -> "str | None":
    """Human name for an attribution code (None for kept/absent)."""
    return RULE_NAMES.get(int(code))


@dataclass(frozen=True)
class PruneConfig:
    """Thresholds for rules R1-R4 (defaults are the paper's)."""

    r1_min_domains: int = 5
    r2_percentile: float = 99.99
    r4_machine_fraction: float = 1.0 / 3.0
    apply_r1: bool = True
    apply_r2: bool = True
    apply_r3: bool = True
    apply_r4: bool = True

    def __post_init__(self) -> None:
        if self.r1_min_domains < 0:
            raise ValueError("r1_min_domains must be non-negative")
        if not 0 < self.r2_percentile <= 100:
            raise ValueError("r2_percentile must be in (0, 100]")
        if not 0 < self.r4_machine_fraction <= 1:
            raise ValueError("r4_machine_fraction must be in (0, 1]")


@dataclass
class PruneResult:
    """The pruned graph plus per-rule and aggregate statistics.

    ``domain_rule`` / ``machine_rule`` are int8 attribution arrays over the
    *global* id spaces (shared interners): ``RULE_ABSENT`` for ids not in
    the day's graph, ``RULE_KEPT`` for survivors, ``RULE_R1``–``RULE_R4``
    for the first rule that removed the node, and ``RULE_ORPHANED`` for
    nodes left edge-less after their counterparts were pruned.  They feed
    the decision-provenance records (:mod:`repro.obs.provenance`).
    """

    graph: BehaviorGraph
    stats: Dict[str, float] = field(default_factory=dict)
    domain_rule: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int8)
    )
    machine_rule: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int8)
    )

    def summary(self) -> str:
        s = self.stats
        return (
            f"pruning: domains -{s['domains_removed_pct']:.2f}%  "
            f"machines -{s['machines_removed_pct']:.2f}%  "
            f"edges -{s['edges_removed_pct']:.2f}%"
        )


def count_e2ld_machines(
    edge_machines: np.ndarray,
    edge_domains: np.ndarray,
    e2ld_map: np.ndarray,
    n_e2lds: int,
) -> np.ndarray:
    """R4's aggregate: distinct machines querying each effective 2LD.

    Counts over two parallel edge columns, so it serves a whole graph and a
    single shard alike — machines live wholly in one shard, which makes the
    per-shard counts sum to the global ones.
    """
    pair_keys = edge_machines * np.int64(n_e2lds) + e2ld_map[edge_domains]
    unique_pairs = sorted_unique(pair_keys)
    return np.bincount(
        (unique_pairs % n_e2lds).astype(np.int64), minlength=n_e2lds
    )


@dataclass
class PruneDecision:
    """What R1-R4 decided, before any edge is touched.

    Boolean keep masks and int8 attribution arrays over the global id
    spaces, and how many nodes each rule was the first to remove.
    """

    keep_machines: np.ndarray
    keep_domains: np.ndarray
    machine_rule: np.ndarray
    domain_rule: np.ndarray
    removed: Dict[str, int]


def decide_pruning(
    machine_degrees: np.ndarray,
    domain_degrees: np.ndarray,
    e2ld_machine_counts: Optional[np.ndarray],
    machine_labels: np.ndarray,
    domain_labels: np.ndarray,
    e2ld_map: np.ndarray,
    config: PruneConfig = PruneConfig(),
) -> PruneDecision:
    """R1-R4 (with their exceptions) as a pure function of node aggregates.

    All rule masks are computed on the *input* graph's degrees, so edges
    whose either endpoint is dropped are removed together — the paper
    applies the rules as one conservative filtering step, not to a fixpoint.
    ``e2ld_machine_counts`` (:func:`count_e2ld_machines`) and ``e2ld_map``
    are read only under ``apply_r4``.
    """
    present_machines = machine_degrees > 0
    present_domains = domain_degrees > 0
    n_machines = int(np.count_nonzero(present_machines))

    keep_machines = present_machines.copy()
    keep_domains = present_domains.copy()
    machine_is_malware = machine_labels == MALWARE
    domain_is_malware = domain_labels == MALWARE

    # Rule attribution over the global id spaces (first rule wins).
    machine_rule = np.where(present_machines, RULE_KEPT, RULE_ABSENT).astype(
        np.int8
    )
    domain_rule = np.where(present_domains, RULE_KEPT, RULE_ABSENT).astype(
        np.int8
    )

    removed = {"r1": 0, "r2": 0, "r3": 0, "r4": 0}

    if config.apply_r1:
        # R1: inactive machines — exception: keep labeled-malware machines.
        inactive = (
            present_machines
            & (machine_degrees <= config.r1_min_domains)
            & ~machine_is_malware
        )
        removed["r1"] = int(np.count_nonzero(inactive & keep_machines))
        machine_rule[inactive & keep_machines] = RULE_R1
        keep_machines &= ~inactive

    if config.apply_r2:
        # R2: proxy/forwarder meganodes by degree percentile.
        active_degrees = machine_degrees[present_machines]
        if active_degrees.size:
            # "higher" interpolation keeps theta_d on an actual observed
            # degree at or above the requested quantile — conservative on
            # small graphs (prunes fewer machines, never more).
            theta_d = np.percentile(
                active_degrees, config.r2_percentile, method="higher"
            )
            meganode = present_machines & (machine_degrees >= theta_d)
            # Never let the percentile cut below the R1 threshold zone:
            # theta_d is a high quantile, but tiny test graphs could place it
            # at degree 1; require the node to be a strict outlier.
            if theta_d > np.median(active_degrees):
                removed["r2"] = int(np.count_nonzero(meganode & keep_machines))
                machine_rule[meganode & keep_machines] = RULE_R2
                keep_machines &= ~meganode

    if config.apply_r3:
        # R3: single-querier domains — exception: keep known malware domains.
        singletons = (
            present_domains & (domain_degrees == 1) & ~domain_is_malware
        )
        removed["r3"] = int(np.count_nonzero(singletons & keep_domains))
        domain_rule[singletons & keep_domains] = RULE_R3
        keep_domains &= ~singletons

    if config.apply_r4:
        # R4: e2LDs queried by >= theta_m machines.
        theta_m = config.r4_machine_fraction * n_machines
        hot_e2lds = e2ld_machine_counts >= max(theta_m, 1)
        too_popular = present_domains & hot_e2lds[e2ld_map]
        removed["r4"] = int(np.count_nonzero(too_popular & keep_domains))
        domain_rule[too_popular & keep_domains] = RULE_R4
        keep_domains &= ~too_popular

    return PruneDecision(
        keep_machines=keep_machines,
        keep_domains=keep_domains,
        machine_rule=machine_rule,
        domain_rule=domain_rule,
        removed=removed,
    )


def finish_pruning(
    decision: PruneDecision, pruned: BehaviorGraph, edges_before: int
) -> PruneResult:
    """Orphan attribution and reduction stats, once the kept edges are back.

    ``pruned`` is the input graph restricted to ``decision``'s keep masks,
    however the caller extracted it; ``edges_before`` is the input graph's
    edge count.  Takes ownership of the decision's attribution arrays.
    """
    machine_rule, domain_rule = decision.machine_rule, decision.domain_rule
    # Nodes no rule touched but whose every counterpart was pruned end up
    # edge-less in the subgraph — attribute them as orphaned.
    domain_rule[
        (domain_rule == RULE_KEPT) & (pruned.domain_degrees() == 0)
    ] = RULE_ORPHANED
    machine_rule[
        (machine_rule == RULE_KEPT) & (pruned.machine_degrees() == 0)
    ] = RULE_ORPHANED

    n_machines = int(np.count_nonzero(machine_rule != RULE_ABSENT))
    n_domains = int(np.count_nonzero(domain_rule != RULE_ABSENT))
    removed = decision.removed
    stats: Dict[str, float] = {
        "machines_before": float(n_machines),
        "machines_after": float(pruned.n_machines),
        "domains_before": float(n_domains),
        "domains_after": float(pruned.n_domains),
        "edges_before": float(edges_before),
        "edges_after": float(pruned.n_edges),
        "removed_r1_machines": float(removed["r1"]),
        "removed_r2_machines": float(removed["r2"]),
        "removed_r3_domains": float(removed["r3"]),
        "removed_r4_domains": float(removed["r4"]),
    }
    stats["machines_removed_pct"] = _pct(n_machines, pruned.n_machines)
    stats["domains_removed_pct"] = _pct(n_domains, pruned.n_domains)
    stats["edges_removed_pct"] = _pct(edges_before, pruned.n_edges)
    return PruneResult(
        graph=pruned,
        stats=stats,
        domain_rule=domain_rule,
        machine_rule=machine_rule,
    )


def prune_graph(
    graph: BehaviorGraph,
    labels: GraphLabels,
    e2ld_index: E2ldIndex,
    config: PruneConfig = PruneConfig(),
) -> PruneResult:
    """R1-R4 on an in-memory graph: its aggregates, decided, one subgraph."""
    e2ld_map = e2ld_index.map_array()
    e2ld_machine_counts = None
    if config.apply_r4:
        e2ld_machine_counts = count_e2ld_machines(
            graph.edge_machines, graph.edge_domains, e2ld_map, len(e2ld_index)
        )
    decision = decide_pruning(
        graph.machine_degrees(),
        graph.domain_degrees(),
        e2ld_machine_counts,
        labels.machine_labels,
        labels.domain_labels,
        e2ld_map,
        config,
    )
    pruned = graph.subgraph(decision.keep_machines, decision.keep_domains)
    return finish_pruning(decision, pruned, graph.n_edges)


def _pct(before: float, after: float) -> float:
    if before <= 0:
        return 0.0
    return 100.0 * (before - after) / before
