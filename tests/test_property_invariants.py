"""Property-based invariants across the core pipeline.

Random small worlds (random bipartite edges, random ground-truth
assignment) are pushed through labeling, pruning, and feature extraction;
the asserted properties are the definitional invariants of §II:

* machine labels follow exactly from the domains they query;
* F1 features are proper fractions with ``m + u <= 1`` and ``t`` equal to
  the querier count;
* hiding a malware domain's label can only reduce (never increase) the
  measured infected fraction;
* pruning only removes edges and never invents nodes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import FeatureExtractor
from repro.core.graph import BehaviorGraph
from repro.core.labeling import (
    BENIGN,
    MALWARE,
    UNKNOWN,
    label_graph,
)
from repro.core.pruning import PruneConfig, prune_graph
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.pdns.abuse import AbuseOracle
from repro.pdns.database import PassiveDNSDatabase
from repro.utils.ids import Interner

DAY = 20

edges_strategy = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 11)),
    min_size=1,
    max_size=120,
)
truth_strategy = st.lists(st.integers(0, 2), min_size=12, max_size=12)


def build_world(pairs, truth):
    """Random graph + ground truth: truth[j] in {unknown, benign, malware}."""
    machines, domains = Interner(), Interner()
    em = [machines.intern(f"m{a}") for a, _ in pairs]
    ed = [domains.intern(f"d{b}.com") for _, b in pairs]
    graph = BehaviorGraph.from_trace(DayTrace.build(DAY, machines, domains, em, ed))
    blacklist = CncBlacklist()
    whitelisted = []
    for j, kind in enumerate(truth):
        name = f"d{j}.com"
        if name not in domains:
            continue
        if kind == 2:
            blacklist.add(name, 0)
        elif kind == 1:
            whitelisted.append(name)
    labels = label_graph(
        graph, blacklist, DomainWhitelist(whitelisted), E2ldIndex(graph.domains)
    )
    return graph, labels


def build_extractor(graph, labels):
    activity = ActivityIndex()
    activity.record(DAY, [int(d) for d in graph.domain_ids()])
    e2ld_activity = ActivityIndex()
    e2ld_index = E2ldIndex(graph.domains)
    e2ld_activity.record(DAY, np.unique(e2ld_index.map_array()))
    oracle = AbuseOracle(
        PassiveDNSDatabase(), end_day=DAY - 1, window_days=10,
        malware_domain_ids=[],
    )
    return FeatureExtractor(
        graph, labels, activity, e2ld_activity, e2ld_index, oracle
    )


@settings(deadline=None, max_examples=40)
@given(pairs=edges_strategy, truth=truth_strategy)
def test_machine_labels_follow_definition(pairs, truth):
    graph, labels = build_world(pairs, truth)
    for machine_id in graph.machine_ids():
        queried = graph.domains_of_machine(int(machine_id))
        dlabels = labels.domain_labels[queried]
        expected = UNKNOWN
        if (dlabels == MALWARE).any():
            expected = MALWARE
        elif (dlabels == BENIGN).all():
            expected = BENIGN
        assert labels.machine_labels[machine_id] == expected


@settings(deadline=None, max_examples=40)
@given(pairs=edges_strategy, truth=truth_strategy)
def test_degree_counts_consistent(pairs, truth):
    graph, labels = build_world(pairs, truth)
    for machine_id in graph.machine_ids():
        queried = graph.domains_of_machine(int(machine_id))
        assert labels.machine_total_degree[machine_id] == queried.size
        assert labels.machine_malware_degree[machine_id] == int(
            (labels.domain_labels[queried] == MALWARE).sum()
        )


@settings(deadline=None, max_examples=30)
@given(pairs=edges_strategy, truth=truth_strategy)
def test_f1_features_are_fractions(pairs, truth):
    graph, labels = build_world(pairs, truth)
    extractor = build_extractor(graph, labels)
    ids = graph.domain_ids()
    for hide in (False, True):
        X = extractor.feature_matrix(ids, hide_labels=hide)
        assert ((X[:, 0] >= 0) & (X[:, 0] <= 1)).all()
        assert ((X[:, 1] >= 0) & (X[:, 1] <= 1)).all()
        assert (X[:, 0] + X[:, 1] <= 1 + 1e-9).all()
        assert (X[:, 2] == graph.domain_degrees()[ids]).all()


@settings(deadline=None, max_examples=30)
@given(pairs=edges_strategy, truth=truth_strategy)
def test_hiding_never_raises_infected_fraction(pairs, truth):
    graph, labels = build_world(pairs, truth)
    extractor = build_extractor(graph, labels)
    malware_ids = [
        int(d)
        for d in graph.domain_ids()
        if labels.domain_labels[d] == MALWARE
    ]
    if not malware_ids:
        return
    ids = np.asarray(malware_ids)
    open_m = extractor.feature_matrix(ids, hide_labels=False)[:, 0]
    hidden_m = extractor.feature_matrix(ids, hide_labels=True)[:, 0]
    assert (hidden_m <= open_m + 1e-9).all()


@settings(deadline=None, max_examples=30)
@given(pairs=edges_strategy, truth=truth_strategy)
def test_pruning_only_removes(pairs, truth):
    graph, labels = build_world(pairs, truth)
    e2ld_index = E2ldIndex(graph.domains)
    result = prune_graph(graph, labels, e2ld_index, PruneConfig())
    pruned = result.graph
    assert pruned.n_edges <= graph.n_edges
    assert pruned.n_machines <= graph.n_machines
    assert pruned.n_domains <= graph.n_domains
    original_edges = set(
        zip(graph.edge_machines.tolist(), graph.edge_domains.tolist())
    )
    for m, d in zip(pruned.edge_machines, pruned.edge_domains):
        assert (int(m), int(d)) in original_edges


@settings(deadline=None, max_examples=30)
@given(pairs=edges_strategy, truth=truth_strategy)
def test_pruning_stats_reconcile(pairs, truth):
    graph, labels = build_world(pairs, truth)
    result = prune_graph(graph, labels, E2ldIndex(graph.domains), PruneConfig())
    stats = result.stats
    assert stats["machines_after"] == result.graph.n_machines
    assert stats["domains_after"] == result.graph.n_domains
    assert stats["edges_after"] == result.graph.n_edges
    assert 0 <= stats["machines_removed_pct"] <= 100
    assert 0 <= stats["domains_removed_pct"] <= 100
