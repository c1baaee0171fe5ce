"""Structural analysis of the machine-domain behavior graph.

Operational situational awareness around the classifier: degree
distributions (Fig. 3 is one of these), connected-component structure,
and machine-overlap similarity between domains — the raw quantity behind
the paper's intuition (2), "machines infected with the same malware family
tend to query partially overlapping sets of malware-control domains".
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.core.labeling import GraphLabels


def degree_histogram(
    graph: BehaviorGraph, side: str = "domain", max_bucket: int = 50
) -> Dict[int, int]:
    """Degree -> node count for one side of the bipartite graph.

    Degrees above *max_bucket* are pooled into the ``max_bucket`` key.
    """
    if side == "domain":
        degrees = graph.domain_degrees()
    elif side == "machine":
        degrees = graph.machine_degrees()
    else:
        raise ValueError("side must be 'domain' or 'machine'")
    active = degrees[degrees > 0]
    clipped = np.minimum(active, max_bucket)
    return dict(sorted(Counter(int(d) for d in clipped).items()))


def component_summary(graph: BehaviorGraph) -> Dict[str, float]:
    """Connected-component structure of the (pruned) behavior graph.

    Counts the nodes present in the graph (degree > 0): machines and
    domains share one id space, domains offset past the machines.
    """
    if graph.n_edges == 0:
        return {"n_components": 0, "giant_fraction": 0.0, "n_isolated": 0}
    # imported here: `import repro.cli` must not load scipy
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n_machines = graph.n_machine_ids
    n_nodes = n_machines + graph.n_domain_ids
    adjacency = csr_matrix(
        (
            np.ones(graph.n_edges, dtype=np.int8),
            (graph.edge_machines, graph.edge_domains + n_machines),
        ),
        shape=(n_nodes, n_nodes),
    )
    _, component_of = connected_components(adjacency, directed=False)
    present = np.concatenate(
        [graph.machine_degrees() > 0, graph.domain_degrees() > 0]
    )
    sizes = np.bincount(component_of[present])
    sizes = sizes[sizes > 0]
    return {
        "n_components": float(sizes.size),
        "giant_fraction": int(sizes.max()) / int(present.sum()),
        "n_isolated": float(np.count_nonzero(sizes == 1)),
    }


def domain_overlap(
    graph: BehaviorGraph, domain_a: int, domain_b: int
) -> float:
    """Jaccard similarity of two domains' querying-machine sets."""
    a = set(int(m) for m in graph.machines_of_domain(int(domain_a)))
    b = set(int(m) for m in graph.machines_of_domain(int(domain_b)))
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def intra_family_overlap(
    graph: BehaviorGraph,
    domain_groups: Dict[str, List[int]],
    rng: Optional[np.random.Generator] = None,
    max_pairs_per_group: int = 30,
) -> Dict[str, float]:
    """Mean querier-overlap within each named group of domains.

    Called with per-family C&C domain lists, this measures intuition (2)
    directly: C&C domains of one family share victims, so their pairwise
    Jaccard overlap is far above that of random benign domains.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    results: Dict[str, float] = {}
    for group, domain_ids in domain_groups.items():
        present = [
            d for d in domain_ids if graph.domain_degrees()[int(d)] > 0
        ]
        if len(present) < 2:
            continue
        pairs: List[Tuple[int, int]] = [
            (present[i], present[j])
            for i in range(len(present))
            for j in range(i + 1, len(present))
        ]
        if len(pairs) > max_pairs_per_group:
            picks = rng.choice(len(pairs), size=max_pairs_per_group, replace=False)
            pairs = [pairs[int(k)] for k in picks]
        overlaps = [domain_overlap(graph, a, b) for a, b in pairs]
        results[group] = float(np.mean(overlaps))
    return results


def summarize(graph: BehaviorGraph, labels: Optional[GraphLabels] = None) -> str:
    """A multi-line structural report."""
    lines = [repr(graph)]
    components = component_summary(graph)
    lines.append(
        f"components: {components['n_components']:.0f} "
        f"(giant holds {components['giant_fraction']:.1%} of nodes)"
    )
    domain_hist = degree_histogram(graph, "domain", max_bucket=10)
    lines.append(f"domain degree histogram (<=10): {domain_hist}")
    if labels is not None:
        counts = labels.counts(graph)
        lines.append(
            f"labels: {counts['domains_malware']} malware / "
            f"{counts['domains_benign']} benign / "
            f"{counts['domains_unknown']} unknown domains; "
            f"{counts['machines_malware']} infected machines"
        )
    return "\n".join(lines)
