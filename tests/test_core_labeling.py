"""Tests for node labeling and machine-label propagation (paper Fig. 1/5)."""

import numpy as np
import pytest

from repro.core.graph import BehaviorGraph
from repro.core.labeling import (
    BENIGN,
    MALWARE,
    UNKNOWN,
    derive_machine_labels,
    label_domains,
    label_graph,
)
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.utils.ids import Interner


def build_world():
    """The Fig. 1-style example:

    m_clean  -> www.good.com, cdn.good.com         (all benign -> BENIGN)
    m_bot    -> cc.evil.net, www.good.com, odd.xyz (queries C&C -> MALWARE)
    m_maybe  -> odd.xyz, www.good.com              (unknown mix -> UNKNOWN)
    """
    machines, domains = Interner(), Interner()
    edges = [
        ("m_clean", "www.good.com"),
        ("m_clean", "cdn.good.com"),
        ("m_bot", "cc.evil.net"),
        ("m_bot", "www.good.com"),
        ("m_bot", "odd.xyz"),
        ("m_maybe", "odd.xyz"),
        ("m_maybe", "www.good.com"),
    ]
    em = [machines.intern(m) for m, _ in edges]
    ed = [domains.intern(d) for _, d in edges]
    graph = BehaviorGraph.from_trace(DayTrace.build(5, machines, domains, em, ed))
    blacklist = CncBlacklist()
    blacklist.add("cc.evil.net", added_day=3)
    whitelist = DomainWhitelist(["good.com"])
    return graph, blacklist, whitelist, E2ldIndex(domains)


class TestDomainLabeling:
    def test_blacklist_whole_string(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_domains(graph, blacklist, whitelist, index)
        assert labels[graph.domains.lookup("cc.evil.net")] == MALWARE

    def test_whitelist_via_e2ld(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_domains(graph, blacklist, whitelist, index)
        assert labels[graph.domains.lookup("www.good.com")] == BENIGN
        assert labels[graph.domains.lookup("cdn.good.com")] == BENIGN

    def test_unknown_default(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_domains(graph, blacklist, whitelist, index)
        assert labels[graph.domains.lookup("odd.xyz")] == UNKNOWN

    def test_as_of_day_respects_blacklist_timestamps(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_domains(graph, blacklist, whitelist, index, as_of_day=2)
        assert labels[graph.domains.lookup("cc.evil.net")] == UNKNOWN

    def test_blacklist_beats_whitelist(self):
        graph, blacklist, whitelist, index = build_world()
        blacklist.add("www.good.com", added_day=0)
        labels = label_domains(graph, blacklist, whitelist, index)
        assert labels[graph.domains.lookup("www.good.com")] == MALWARE


class TestMachinePropagation:
    def test_labels(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        m = graph.machines
        assert labels.machine_labels[m.lookup("m_clean")] == BENIGN
        assert labels.machine_labels[m.lookup("m_bot")] == MALWARE
        assert labels.machine_labels[m.lookup("m_maybe")] == UNKNOWN

    def test_degree_counts(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        bot = graph.machines.lookup("m_bot")
        assert labels.machine_malware_degree[bot] == 1
        assert labels.machine_benign_degree[bot] == 1
        assert labels.machine_total_degree[bot] == 3

    def test_counts_summary(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        counts = labels.counts(graph)
        assert counts["domains_total"] == 4
        assert counts["domains_malware"] == 1
        assert counts["domains_benign"] == 2
        assert counts["machines_malware"] == 1
        assert counts["machines_benign"] == 1

    def test_label_id_queries(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        assert labels.domain_ids_with_label(MALWARE).tolist() == [
            graph.domains.lookup("cc.evil.net")
        ]


class TestHiding:
    def test_hiding_malware_relabels_machine(self):
        """Fig. 5: hiding the only C&C domain a machine queries makes that
        machine unknown again."""
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        hidden = labels.with_hidden(
            graph, [graph.domains.lookup("cc.evil.net")]
        )
        bot = graph.machines.lookup("m_bot")
        assert hidden.machine_labels[bot] == UNKNOWN
        assert hidden.domain_labels[graph.domains.lookup("cc.evil.net")] == UNKNOWN

    def test_hiding_benign_breaks_all_benign(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        hidden = labels.with_hidden(
            graph, [graph.domains.lookup("cdn.good.com")]
        )
        clean = graph.machines.lookup("m_clean")
        assert hidden.machine_labels[clean] == UNKNOWN

    def test_hiding_does_not_mutate_original(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        labels.with_hidden(graph, [graph.domains.lookup("cc.evil.net")])
        assert labels.domain_labels[graph.domains.lookup("cc.evil.net")] == MALWARE

    def test_hiding_empty_set_is_noop(self):
        graph, blacklist, whitelist, index = build_world()
        labels = label_graph(graph, blacklist, whitelist, index)
        hidden = labels.with_hidden(graph, [])
        assert (hidden.machine_labels == labels.machine_labels).all()

    def test_machine_with_two_malware_stays_malware(self):
        machines, domains = Interner(), Interner()
        edges = [("bot", "cc1.com"), ("bot", "cc2.com"), ("peer", "cc1.com"), ("peer", "cc2.com")]
        em = [machines.intern(m) for m, _ in edges]
        ed = [domains.intern(d) for _, d in edges]
        graph = BehaviorGraph.from_trace(DayTrace.build(0, machines, domains, em, ed))
        blacklist = CncBlacklist()
        blacklist.add("cc1.com", 0)
        blacklist.add("cc2.com", 0)
        labels = label_graph(
            graph, blacklist, DomainWhitelist([]), E2ldIndex(domains)
        )
        hidden = labels.with_hidden(graph, [domains.lookup("cc1.com")])
        assert hidden.machine_labels[machines.lookup("bot")] == MALWARE
