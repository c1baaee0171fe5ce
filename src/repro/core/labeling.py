"""Node labeling and machine-label propagation (paper §II-A1, Fig. 1).

Domains are labeled:

* ``MALWARE`` when the entire FQD string matches the C&C blacklist (as of
  the observation day),
* ``BENIGN`` when the FQD's effective 2LD is in the whitelist,
* ``UNKNOWN`` otherwise.

The pass runs in id space and costs the size of the two lists, not of the
day: the *lists* are resolved to ids (whitelist e2LD strings through the
context's :class:`~repro.dns.e2ld.E2ldIndex`, blacklist names through the
domain interner) and the day's domains are labeled with two array
operations.  The e2LD a label is decided on is therefore by definition the
index's — the one pruning rule R4 and the F2 features use.  The per-name
reading of the rule lives in ``tests/test_core_labeling_oracle.py``.

Machine labels are then *derived*: a machine is ``MALWARE`` if it queries at
least one malware domain, ``BENIGN`` if it queries exclusively benign
domains, and ``UNKNOWN`` otherwise.

For training-set construction (Fig. 5) and for unbiased evaluation, the
label of one or more domains must be *hidden*; hiding changes the derived
machine labels.  :class:`GraphLabels` precomputes per-machine counts of
malware/benign neighbors so that

* hiding a whole test set is one vectorized recomputation
  (:meth:`GraphLabels.with_hidden`), and
* the per-training-domain single-domain hiding needed for feature
  measurement is O(1) per affected machine (see
  :func:`repro.core.features.FeatureExtractor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.dns.e2ld import E2ldIndex
from repro.dns.publicsuffix import PublicSuffixList
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.utils.ids import Interner

UNKNOWN: int = 0
BENIGN: int = 1
MALWARE: int = 2

LABEL_NAMES = {UNKNOWN: "unknown", BENIGN: "benign", MALWARE: "malware"}


@dataclass
class GraphLabels:
    """Node labels plus the per-machine neighbor-label counts.

    Attributes:
        domain_labels: int8 array indexed by global domain id.
        machine_labels: int8 array indexed by global machine id.
        machine_malware_degree: per machine, number of MALWARE domains queried.
        machine_benign_degree: per machine, number of BENIGN domains queried.
        machine_total_degree: per machine, number of domains queried.
    """

    domain_labels: np.ndarray
    machine_labels: np.ndarray
    machine_malware_degree: np.ndarray
    machine_benign_degree: np.ndarray
    machine_total_degree: np.ndarray

    def domain_ids_with_label(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.domain_labels == label)

    def machine_ids_with_label(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.machine_labels == label)

    def counts(self, graph: BehaviorGraph) -> Dict[str, int]:
        """Label tallies restricted to nodes present in *graph*."""
        present_domains = graph.domain_ids()
        present_machines = graph.machine_ids()
        dlab = self.domain_labels[present_domains]
        mlab = self.machine_labels[present_machines]
        return {
            "domains_total": int(present_domains.size),
            "domains_benign": int(np.count_nonzero(dlab == BENIGN)),
            "domains_malware": int(np.count_nonzero(dlab == MALWARE)),
            "domains_unknown": int(np.count_nonzero(dlab == UNKNOWN)),
            "machines_total": int(present_machines.size),
            "machines_malware": int(np.count_nonzero(mlab == MALWARE)),
            "machines_benign": int(np.count_nonzero(mlab == BENIGN)),
        }

    def with_hidden(
        self, graph: BehaviorGraph, hidden_domain_ids: Iterable[int]
    ) -> "GraphLabels":
        """Labels after setting the given domains to UNKNOWN.

        This is the evaluation procedure of §IV-A: hide all test-set domain
        labels *first*, then rederive machine labels, so no test ground truth
        leaks into feature measurement.
        """
        hidden = np.fromiter(
            (int(d) for d in hidden_domain_ids), dtype=np.int64
        )
        new_domain_labels = self.domain_labels.copy()
        if hidden.size:
            new_domain_labels[hidden] = UNKNOWN
        return derive_machine_labels(graph, new_domain_labels)


def label_domains(
    graph: BehaviorGraph,
    blacklist: CncBlacklist,
    whitelist: DomainWhitelist,
    e2ld_index: E2ldIndex,
    as_of_day: Optional[int] = None,
) -> np.ndarray:
    """Label every domain id in the graph's id space.

    Blacklist matching is on the whole FQD string; whitelist matching is on
    the effective 2LD (both per §III), read off *e2ld_index* — the
    observation context's index over the graph's domain interner.
    ``as_of_day`` restricts the blacklist to entries already published by
    that day (defaults to the graph's day), which is what makes cross-day
    experiments honest: a domain blacklisted *after* the training day is
    still unknown at training time.
    """
    if as_of_day is None:
        as_of_day = graph.day
    return label_domain_ids(
        graph.domain_ids(),
        graph.domains,
        graph.n_domain_ids,
        blacklist,
        whitelist,
        e2ld_index,
        as_of_day,
    )


def label_domain_ids(
    domain_ids: np.ndarray,
    domains: Interner,
    n_domain_ids: int,
    blacklist: CncBlacklist,
    whitelist: DomainWhitelist,
    e2ld_index: E2ldIndex,
    as_of_day: int,
) -> np.ndarray:
    """Label the given domain ids over an id space of *n_domain_ids*.

    The graph-free core of :func:`label_domains`, shared with the sharded
    out-of-core build where present-domain ids come from merged per-shard
    degree counts rather than a materialized graph.  Ids not listed stay
    ``UNKNOWN`` — exactly how absent ids behave in :func:`label_domains`.

    The two lists are resolved to ids, never the day's names to strings:
    each whitelisted e2LD to its id in ``e2ld_index.e2lds`` and one boolean
    gather over ``e2ld_index.map_array()``; each blacklist entry published
    by *as_of_day* to its id in *domains*.  ``MALWARE`` wins over
    ``BENIGN``.  An interned name that is not in canonical form
    (``Evil.COM.``) never equals a list entry as a string, so the index
    hands over those few ids with their canonical spelling
    (:attr:`E2ldIndex.noncanonical`) and they are matched through it.

    *e2ld_index* must be built over *domains*.  The e2LD of a domain is the
    index's: where the whitelist was constructed on a different public
    suffix list than the index (only a hand-assembled context can do that)
    the index's reading decides, as it does for R4 and F2, and the
    whitelist's own per-name membership check may disagree.
    """
    domain_ids = np.asarray(domain_ids, dtype=np.int64)
    labels = np.zeros(n_domain_ids, dtype=np.int8)

    e2ld_map = e2ld_index.map_array()  # first: brings the index up to date
    e2lds = e2ld_index.e2lds
    whitelisted = np.zeros(len(e2lds), dtype=bool)
    whitelisted[
        [eid for eid in map(e2lds.lookup, whitelist) if eid is not None]
    ] = True
    labels[domain_ids[whitelisted[e2ld_map[domain_ids]]]] = BENIGN

    listed = blacklist.domains(as_of_day)
    malware = [did for did in map(domains.lookup, listed) if did is not None]
    for canonical, ids in e2ld_index.noncanonical.items():
        if canonical in listed:
            malware.extend(ids)
    malware_ids = np.asarray(malware, dtype=np.int64)
    present = np.zeros(n_domain_ids, dtype=bool)
    present[domain_ids] = True
    malware_ids = malware_ids[malware_ids < n_domain_ids]
    labels[malware_ids[present[malware_ids]]] = MALWARE
    return labels


def count_label_degrees(
    edge_machines: np.ndarray,
    edge_domains: np.ndarray,
    domain_labels: np.ndarray,
    n_machines: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per machine, how many MALWARE and how many BENIGN domains it queries.

    Counts over two parallel edge columns (``edge_machines`` indexes an id
    space of *n_machines*), so a whole graph and one shard's compacted
    machines go through the same weighted bincounts.
    """
    edge_domain_labels = domain_labels[edge_domains]
    malware_degree = np.bincount(
        edge_machines,
        weights=(edge_domain_labels == MALWARE).astype(np.float64),
        minlength=n_machines,
    ).astype(np.int64)
    benign_degree = np.bincount(
        edge_machines,
        weights=(edge_domain_labels == BENIGN).astype(np.float64),
        minlength=n_machines,
    ).astype(np.int64)
    return malware_degree, benign_degree


def machine_labels_from_degrees(
    total_degree: np.ndarray,
    malware_degree: np.ndarray,
    benign_degree: np.ndarray,
) -> np.ndarray:
    """The propagation rule: MALWARE on any malware domain, BENIGN when
    every queried domain is benign, UNKNOWN otherwise (and when absent)."""
    machine_labels = np.zeros(total_degree.size, dtype=np.int8)
    machine_labels[(total_degree > 0) & (benign_degree == total_degree)] = BENIGN
    machine_labels[malware_degree > 0] = MALWARE
    return machine_labels


def derive_machine_labels(
    graph: BehaviorGraph, domain_labels: np.ndarray
) -> GraphLabels:
    """Propagate domain labels to machines (vectorized over the edge list)."""
    malware_degree, benign_degree = count_label_degrees(
        graph.edge_machines, graph.edge_domains, domain_labels, graph.n_machine_ids
    )
    total_degree = graph.machine_degrees()
    return GraphLabels(
        domain_labels=np.asarray(domain_labels, dtype=np.int8),
        machine_labels=machine_labels_from_degrees(
            total_degree, malware_degree, benign_degree
        ),
        machine_malware_degree=malware_degree,
        machine_benign_degree=benign_degree,
        machine_total_degree=total_degree,
    )


def label_graph(
    graph: BehaviorGraph,
    blacklist: CncBlacklist,
    whitelist: DomainWhitelist,
    e2ld_index: E2ldIndex,
    as_of_day: Optional[int] = None,
) -> GraphLabels:
    """Full labeling pass: domains from ground truth, machines derived."""
    domain_labels = label_domains(
        graph, blacklist, whitelist, e2ld_index, as_of_day
    )
    return derive_machine_labels(graph, domain_labels)


# Re-exported for callers that only need e2LD computation alongside labels.
__all__ = [
    "BENIGN",
    "GraphLabels",
    "LABEL_NAMES",
    "MALWARE",
    "PublicSuffixList",
    "UNKNOWN",
    "count_label_degrees",
    "derive_machine_labels",
    "label_domain_ids",
    "label_domains",
    "label_graph",
    "machine_labels_from_degrees",
]
