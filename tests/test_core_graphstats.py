"""Tests for behavior-graph structural analysis."""

import networkx as nx
import numpy as np
import pytest

from repro.core.graph import BehaviorGraph
from repro.core.graphstats import (
    component_summary,
    degree_histogram,
    domain_overlap,
    intra_family_overlap,
    summarize,
    to_networkx,
)
from repro.core.labeling import label_graph
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.utils.ids import Interner


def build(edges):
    machines, domains = Interner(), Interner()
    em = [machines.intern(m) for m, _ in edges]
    ed = [domains.intern(d) for _, d in edges]
    return BehaviorGraph.from_trace(DayTrace.build(0, machines, domains, em, ed))


EDGES = [
    ("m1", "a.com"),
    ("m1", "b.com"),
    ("m2", "a.com"),
    ("m2", "b.com"),
    ("m3", "c.com"),  # separate component
]


class TestDegreeHistogram:
    def test_domain_side(self):
        graph = build(EDGES)
        hist = degree_histogram(graph, "domain")
        assert hist == {1: 1, 2: 2}

    def test_machine_side(self):
        graph = build(EDGES)
        hist = degree_histogram(graph, "machine")
        assert hist == {1: 1, 2: 2}

    def test_bucket_pooling(self):
        edges = [(f"m{i}", "hub.com") for i in range(30)]
        graph = build(edges)
        hist = degree_histogram(graph, "domain", max_bucket=10)
        assert hist == {10: 1}

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            degree_histogram(build(EDGES), "edge")


class TestNetworkx:
    def test_bipartite_structure(self):
        graph = build(EDGES)
        g = to_networkx(graph)
        assert g.number_of_nodes() == 3 + 3
        assert g.number_of_edges() == 5
        machines = {n for n, d in g.nodes(data=True) if d["bipartite"] == 0}
        assert len(machines) == 3
        assert nx.is_bipartite(g)

    def test_labels_attached(self):
        graph = build(EDGES)
        blacklist = CncBlacklist()
        blacklist.add("a.com", 0)
        labels = label_graph(
            graph, blacklist, DomainWhitelist([]), E2ldIndex(graph.domains)
        )
        g = to_networkx(graph, labels)
        a = ("d", graph.domains.lookup("a.com"))
        assert g.nodes[a]["label"] == "malware"


class TestComponents:
    def test_two_components(self):
        summary = component_summary(build(EDGES))
        assert summary["n_components"] == 2
        assert summary["giant_fraction"] == pytest.approx(4 / 6)

    def test_empty_graph(self):
        machines, domains = Interner(), Interner()
        graph = BehaviorGraph.from_trace(
            DayTrace.build(0, machines, domains, [], [])
        )
        assert component_summary(graph)["n_components"] == 0


class TestOverlap:
    def test_jaccard(self):
        graph = build(EDGES)
        a = graph.domains.lookup("a.com")
        b = graph.domains.lookup("b.com")
        c = graph.domains.lookup("c.com")
        assert domain_overlap(graph, a, b) == 1.0
        assert domain_overlap(graph, a, c) == 0.0

    def test_intra_family_overlap(self):
        graph = build(EDGES)
        groups = {
            "famX": [graph.domains.lookup("a.com"), graph.domains.lookup("b.com")],
            "solo": [graph.domains.lookup("c.com")],
        }
        overlaps = intra_family_overlap(graph, groups)
        assert overlaps == {"famX": 1.0}  # singleton groups skipped

    def test_intuition2_on_scenario(self, scenario):
        """C&C domains of one family overlap far more than benign pairs."""
        day = scenario.eval_day(2)
        graph = BehaviorGraph.from_trace(scenario.trace("isp1", day))
        mw = scenario.malware
        pop = scenario.populations["isp1"]
        groups = {}
        for fam in list(pop.family_members)[:4]:
            active = mw.active_indices_of_family(fam, day)
            if active.size >= 2:
                groups[f"fam{fam}"] = [int(g) for g in mw.fqd_ids[active]]
        benign_ids = [int(d) for d in scenario.universe.fqd_ids[500:520]]
        groups["benign"] = benign_ids
        overlaps = intra_family_overlap(graph, groups)
        family_values = [v for k, v in overlaps.items() if k != "benign"]
        assert family_values, "need at least one family with 2+ active domains"
        assert np.mean(family_values) > overlaps.get("benign", 0.0) + 0.1


class TestSummary:
    def test_report_lines(self):
        graph = build(EDGES)
        blacklist = CncBlacklist()
        blacklist.add("a.com", 0)
        labels = label_graph(
            graph, blacklist, DomainWhitelist([]), E2ldIndex(graph.domains)
        )
        text = summarize(graph, labels)
        assert "components" in text
        assert "malware" in text
