"""Tests for the R1-R4 pruning rules and their exceptions."""

import numpy as np
import pytest

from repro.core.graph import BehaviorGraph
from repro.core.labeling import label_graph
from repro.core.pruning import PruneConfig, prune_graph
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
    e2ld_index = E2ldIndex(domains)
    labels = label_graph(
        graph, blacklist, DomainWhitelist(whitelisted), e2ld_index
    )
    return graph, labels, e2ld_index


def busy_machine_edges(name, n, prefix="filler"):
    return [(name, f"{prefix}{i}.com") for i in range(n)]


class TestR1:
    def test_inactive_machine_pruned(self):
        edges = busy_machine_edges("lazy", 3)
        # Give the filler domains a second querier so R3 keeps them.
        edges += [("busy", f"filler{i}.com") for i in range(3)]
        edges += busy_machine_edges("busy", 10, prefix="busyextra")
        edges += [("busy2", f"busyextra{i}.com") for i in range(10)]
        graph, labels, e2ld = build(edges)
        result = prune_graph(graph, labels, e2ld, PruneConfig(apply_r2=False, apply_r4=False))
        lazy = graph.machines.lookup("lazy")
        assert result.graph.machine_degrees()[lazy] == 0
        assert result.stats["removed_r1_machines"] == 1

    def test_malware_machine_exempt(self):
        edges = [("quietbot", "cc.evil.com"), ("other", "cc.evil.com")]
        edges += busy_machine_edges("busy", 10)
        edges += [("busy2", f"filler{i}.com") for i in range(10)]
        graph, labels, e2ld = build(edges, blacklisted=["cc.evil.com"])
        result = prune_graph(graph, labels, e2ld, PruneConfig(apply_r2=False, apply_r4=False))
        quietbot = graph.machines.lookup("quietbot")
        assert result.graph.machine_degrees()[quietbot] > 0

    def test_r1_disabled(self):
        edges = busy_machine_edges("lazy", 2) + busy_machine_edges("also", 2)
        graph, labels, e2ld = build(edges)
        config = PruneConfig(apply_r1=False, apply_r2=False, apply_r3=False, apply_r4=False)
        result = prune_graph(graph, labels, e2ld, config)
        assert result.graph.n_edges == graph.n_edges


class TestR2:
    def test_meganode_pruned(self):
        # 40 normal machines with ~8 domains each, one proxy with 200.
        edges = []
        for i in range(40):
            for j in range(8):
                edges.append((f"m{i}", f"shared{(i + j) % 60}.com"))
        edges += busy_machine_edges("proxy", 200, prefix="proxied")
        # Second querier for proxied domains so R3 effects don't interfere.
        graph, labels, e2ld = build(edges)
        result = prune_graph(
            graph, labels, e2ld,
            PruneConfig(r2_percentile=99.0, apply_r1=False, apply_r3=False, apply_r4=False),
        )
        proxy = graph.machines.lookup("proxy")
        assert result.graph.machine_degrees()[proxy] == 0
        assert result.stats["removed_r2_machines"] >= 1


class TestR3:
    def test_singleton_domain_pruned(self):
        edges = [("m1", "lonely.com"), ("m1", "shared.com"), ("m2", "shared.com")]
        graph, labels, e2ld = build(edges)
        result = prune_graph(
            graph, labels, e2ld,
            PruneConfig(apply_r1=False, apply_r2=False, apply_r4=False),
        )
        lonely = graph.domains.lookup("lonely.com")
        shared = graph.domains.lookup("shared.com")
        assert result.graph.domain_degrees()[lonely] == 0
        assert result.graph.domain_degrees()[shared] == 2

    def test_malware_domain_exempt(self):
        edges = [("m1", "cc.evil.com"), ("m1", "shared.com"), ("m2", "shared.com")]
        graph, labels, e2ld = build(edges, blacklisted=["cc.evil.com"])
        result = prune_graph(
            graph, labels, e2ld,
            PruneConfig(apply_r1=False, apply_r2=False, apply_r4=False),
        )
        cc = graph.domains.lookup("cc.evil.com")
        assert result.graph.domain_degrees()[cc] == 1


class TestR4:
    def test_hyperpopular_e2ld_pruned(self):
        # 9 machines; www.giant.com + cdn.giant.com together queried by all.
        edges = []
        for i in range(9):
            sub = "www" if i % 2 == 0 else "cdn"
            edges.append((f"m{i}", f"{sub}.giant.com"))
            edges.append((f"m{i}", f"small{i % 4}.com"))
        graph, labels, e2ld = build(edges)
        result = prune_graph(
            graph, labels, e2ld,
            PruneConfig(apply_r1=False, apply_r2=False, apply_r3=False,
                        r4_machine_fraction=1.0 / 3.0),
        )
        www = graph.domains.lookup("www.giant.com")
        cdn = graph.domains.lookup("cdn.giant.com")
        assert result.graph.domain_degrees()[www] == 0
        assert result.graph.domain_degrees()[cdn] == 0
        # small0.com is queried by exactly 3 of 9 machines (m0, m4, m8),
        # which also meets the >= 1/3 threshold; small1.com (2 queriers)
        # must survive.
        small1 = graph.domains.lookup("small1.com")
        assert result.graph.domain_degrees()[small1] > 0
        assert result.stats["removed_r4_domains"] == 3

    def test_moderate_domain_survives(self):
        edges = []
        for i in range(12):
            edges.append((f"m{i}", f"site{i % 6}.com"))
        graph, labels, e2ld = build(edges)
        result = prune_graph(
            graph, labels, e2ld,
            PruneConfig(apply_r1=False, apply_r2=False, apply_r3=False),
        )
        assert result.stats["removed_r4_domains"] == 0


class TestStats:
    def test_percentages_consistent(self):
        edges = [("m1", "lonely.com"), ("m1", "shared.com"), ("m2", "shared.com")]
        graph, labels, e2ld = build(edges)
        result = prune_graph(
            graph, labels, e2ld,
            PruneConfig(apply_r1=False, apply_r2=False, apply_r4=False),
        )
        stats = result.stats
        assert stats["domains_before"] == 2
        assert stats["domains_after"] == 1
        assert stats["domains_removed_pct"] == pytest.approx(50.0)
        assert "pruning" in result.summary()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PruneConfig(r1_min_domains=-1)
        with pytest.raises(ValueError):
            PruneConfig(r2_percentile=0)
        with pytest.raises(ValueError):
            PruneConfig(r4_machine_fraction=1.5)

    def test_empty_graph(self):
        machines, domains = Interner(), Interner()
        graph = BehaviorGraph.from_trace(DayTrace.build(0, machines, domains, [], []))
        e2ld_index = E2ldIndex(domains)
        labels = label_graph(
            graph, CncBlacklist(), DomainWhitelist([]), e2ld_index
        )
        result = prune_graph(graph, labels, e2ld_index)
        assert result.graph.n_edges == 0
