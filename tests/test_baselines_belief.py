"""Tests for loopy belief propagation."""

import numpy as np
import pytest

from repro.baselines.belief import BeliefConfig, LoopyBeliefPropagation
from repro.core.graph import BehaviorGraph
from repro.core.labeling import label_graph
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.utils.ids import Interner


def build(edges, blacklisted=(), whitelisted=()):
    machines, domains = Interner(), Interner()
    em = [machines.intern(m) for m, _ in edges]
    ed = [domains.intern(d) for _, d in edges]
    graph = BehaviorGraph.from_trace(DayTrace.build(0, machines, domains, em, ed))
    blacklist = CncBlacklist()
    for name in blacklisted:
        blacklist.add(name, 0)
    labels = label_graph(
        graph, blacklist, DomainWhitelist(whitelisted), E2ldIndex(domains)
    )
    return graph, labels


class TestInference:
    def test_guilt_propagates_from_infected_machines(self):
        edges = [
            ("bot1", "cc.known.com"),
            ("bot2", "cc.known.com"),
            ("bot1", "candidate.xyz"),
            ("bot2", "candidate.xyz"),
            ("clean1", "www.good.com"),
            ("clean2", "www.good.com"),
            ("clean1", "tail.org"),
            ("clean2", "tail.org"),
        ]
        graph, labels = build(edges, blacklisted=["cc.known.com"], whitelisted=["good.com"])
        scores = LoopyBeliefPropagation().score_domains(graph, labels)
        candidate = graph.domains.lookup("candidate.xyz")
        tail = graph.domains.lookup("tail.org")
        assert scores[candidate] > 0.5
        assert scores[tail] < 0.5
        assert scores[candidate] > scores[tail]

    def test_scores_are_probabilities(self):
        edges = [("m1", "a.com"), ("m2", "a.com"), ("m1", "b.com")]
        graph, labels = build(edges)
        scores = LoopyBeliefPropagation().score_domains(graph, labels)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_known_malware_domain_stays_high(self):
        edges = [("bot", "cc.known.com"), ("bot2", "cc.known.com")]
        graph, labels = build(edges, blacklisted=["cc.known.com"])
        scores = LoopyBeliefPropagation().score_domains(graph, labels)
        assert scores[graph.domains.lookup("cc.known.com")] > 0.9

    def test_empty_graph_returns_priors(self):
        machines, domains = Interner(), Interner()
        graph = BehaviorGraph.from_trace(DayTrace.build(0, machines, domains, [], []))
        labels = label_graph(
            graph, CncBlacklist(), DomainWhitelist([]), E2ldIndex(domains)
        )
        scores = LoopyBeliefPropagation().score_domains(graph, labels)
        assert scores.size == 0

    def test_converges_and_reports_iterations(self):
        edges = [("m1", "a.com"), ("m2", "a.com"), ("m2", "b.com")]
        graph, labels = build(edges)
        lbp = LoopyBeliefPropagation(BeliefConfig(max_iterations=50))
        lbp.score_domains(graph, labels)
        assert 1 <= lbp.n_iterations_ <= 50


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BeliefConfig(epsilon=0.6)
        with pytest.raises(ValueError):
            BeliefConfig(prior_strength=0.4)

    def test_stronger_epsilon_stronger_propagation(self):
        edges = [
            ("bot", "cc.known.com"),
            ("bot", "candidate.xyz"),
            ("peer", "candidate.xyz"),
            ("peer", "cc.known.com"),
        ]
        graph, labels = build(edges, blacklisted=["cc.known.com"])
        weak = LoopyBeliefPropagation(BeliefConfig(epsilon=0.01)).score_domains(graph, labels)
        strong = LoopyBeliefPropagation(BeliefConfig(epsilon=0.2)).score_domains(graph, labels)
        candidate = graph.domains.lookup("candidate.xyz")
        assert strong[candidate] > weak[candidate]
