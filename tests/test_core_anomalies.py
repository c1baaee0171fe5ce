"""Tests for the probe-client heuristics (paper §VI)."""

import numpy as np
import pytest

from repro.core.anomalies import (
    ProbeHeuristics,
    detect_probe_machines,
    remove_probe_machines,
)
from repro.core.graph import BehaviorGraph
from repro.core.labeling import label_graph
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.utils.ids import Interner

DAY = 50


def build_world(probe_queries=30, bot_queries=3, dead_feed=True):
    machines, domains = Interner(), Interner()
    blacklist = CncBlacklist()
    edges = []
    # A probe enumerating a long (and mostly dead) blacklist feed.
    for i in range(probe_queries):
        name = f"feed{i}.bad"
        blacklist.add(name, 0)
        edges.append(("probe", name))
    # A real bot querying a few live C&C domains (shared with a peer so the
    # activity index entries matter, not degrees).
    for i in range(bot_queries):
        name = f"live{i}.bad"
        blacklist.add(name, 0)
        edges.append(("bot", name))
        edges.append(("peer", name))
    em = [machines.intern(m) for m, _ in edges]
    ed = [domains.intern(d) for _, d in edges]
    graph = BehaviorGraph.from_trace(DayTrace.build(DAY, machines, domains, em, ed))
    labels = label_graph(
        graph, blacklist, DomainWhitelist([]), E2ldIndex(domains)
    )

    activity = ActivityIndex()
    live_ids = [domains.lookup(f"live{i}.bad") for i in range(bot_queries)]
    for day in (DAY - 1, DAY):
        activity.record(day, live_ids)
    if not dead_feed:
        feed_ids = [domains.lookup(f"feed{i}.bad") for i in range(probe_queries)]
        for day in (DAY - 1, DAY):
            activity.record(day, feed_ids)
    return graph, labels, activity, machines


class TestDetection:
    def test_probe_flagged(self):
        graph, labels, activity, machines = build_world()
        probes = detect_probe_machines(graph, labels, activity)
        assert probes.tolist() == [machines.lookup("probe")]

    def test_real_bot_not_flagged(self):
        graph, labels, activity, machines = build_world()
        probes = detect_probe_machines(graph, labels, activity)
        assert machines.lookup("bot") not in probes.tolist()

    def test_active_feed_querier_not_flagged(self):
        """A machine querying many *live* malware domains is a severe
        infection (or sinkhole), not a probe by these heuristics."""
        graph, labels, activity, machines = build_world(dead_feed=False)
        probes = detect_probe_machines(graph, labels, activity)
        assert probes.size == 0

    def test_degree_threshold_respected(self):
        graph, labels, activity, machines = build_world(probe_queries=10)
        probes = detect_probe_machines(
            graph, labels, activity, ProbeHeuristics(max_malware_degree=20)
        )
        assert probes.size == 0

    def test_custom_dead_fraction(self):
        graph, labels, activity, machines = build_world()
        strict = ProbeHeuristics(max_dead_fraction=0.99)
        probes = detect_probe_machines(graph, labels, activity, strict)
        assert probes.tolist() == [machines.lookup("probe")]


class TestRemoval:
    def test_probe_edges_removed(self):
        graph, labels, activity, machines = build_world()
        cleaned = remove_probe_machines(graph, labels, activity)
        probe = machines.lookup("probe")
        assert cleaned.machine_degrees()[probe] == 0
        assert cleaned.machine_degrees()[machines.lookup("bot")] > 0

    def test_noop_without_probes(self):
        graph, labels, activity, machines = build_world(probe_queries=5)
        cleaned = remove_probe_machines(graph, labels, activity)
        assert cleaned.n_edges == graph.n_edges


class TestOnScenario:
    def test_flags_synthetic_probes(self, scenario, train_context):
        """The synthetic world's probe archetype must be caught."""
        graph = BehaviorGraph.from_trace(train_context.trace)
        from repro.core.labeling import label_graph as lg

        labels = lg(
            graph,
            train_context.blacklist,
            train_context.whitelist,
            train_context.e2ld_index,
            as_of_day=train_context.day,
        )
        probes = detect_probe_machines(
            graph, labels, train_context.fqd_activity
        )
        pop = scenario.populations["isp1"]
        from repro.synth.machines import ARCH_PROBE

        true_probes = set(pop.machines_of_archetype(ARCH_PROBE).tolist())
        assert true_probes & set(probes.tolist())
        # No real infected machine is flagged.
        infected = set(pop.infected_machines().tolist())
        assert not (set(probes.tolist()) & infected)
