"""Differential tests: R1-R4 and label propagation against a literal oracle.

``oracle_prune`` below reads §II-A1/§II-A2 one sentence at a time over a
dict-of-sets bipartite graph — no arrays, no degrees vector, no shared
helper from :mod:`repro.core` (the e2LD of ``host.zone.com`` is taken by
splitting the string).  Hypothesis generates tiny worlds and rule
configurations; the in-memory ``prune_graph`` *and* the sharded build must
give the oracle's kept edges, per-node rule attribution and stats dict
exactly.  Production's two documented tie-breaks are part of the reading:
the R2 percentile sits on an observed degree ("higher" interpolation) and
must exceed the median degree, and R4 needs at least one machine.
"""

import math
import statistics
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import BehaviorGraph
from repro.core.labeling import LABEL_NAMES, label_graph
from repro.core.pipeline import ObservationContext, SegugioConfig
from repro.core.pruning import RULE_ABSENT, PruneConfig, prune_graph, rule_name
from repro.core.sharded import build_day_sharded
from repro.datasets.edgestore import ShardedDayTrace
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.pdns.database import PassiveDNSDatabase
from repro.utils.ids import Interner

# ---------------------------------------------------------------------- #
# the literal reading
# ---------------------------------------------------------------------- #


def _adjacency(edges):
    queried = {}  # machine -> domains it queried
    queriers = {}  # domain -> machines that queried it
    for machine, domain in edges:
        queried.setdefault(machine, set()).add(domain)
        queriers.setdefault(domain, set()).add(machine)
    return queried, queriers


def _e2ld(domain):
    return ".".join(domain.split(".")[-2:])


def oracle_labels(edges, blacklisted, whitelisted_e2lds):
    """§II-A1: ``(domain label, machine label)`` by name.

    A blacklisted FQD is malware, else a whitelisted e2LD makes it benign;
    a machine is malware if it queries any malware domain, benign if it
    queries benign domains only.
    """
    queried, queriers = _adjacency(edges)
    domain_label = {
        d: "malware" if d in blacklisted
        else "benign" if _e2ld(d) in whitelisted_e2lds
        else "unknown"
        for d in queriers
    }
    machine_label = {}
    for machine, domains in queried.items():
        seen = {domain_label[d] for d in domains}
        machine_label[machine] = (
            "malware" if "malware" in seen
            else "benign" if seen == {"benign"}
            else "unknown"
        )
    return domain_label, machine_label


def oracle_prune(edges, blacklisted, whitelisted_e2lds, config):
    """§II-A2: ``(kept edges, machine rule, domain rule, stats)``."""
    queried, queriers = _adjacency(edges)
    e2ld = {d: _e2ld(d) for d in queriers}
    domain_label, machine_label = oracle_labels(
        edges, blacklisted, whitelisted_e2lds
    )
    malware_domains = {d for d, l in domain_label.items() if l == "malware"}
    malware_machines = {m for m, l in machine_label.items() if l == "malware"}

    machine_rule = dict.fromkeys(queried, "kept")
    domain_rule = dict.fromkeys(queriers, "kept")
    removed = dict.fromkeys(("r1", "r2", "r3", "r4"), 0)

    def remove(rule_of, node, rule):
        if rule_of[node] == "kept":  # first rule wins
            rule_of[node] = rule
            removed[rule] += 1

    if config.apply_r1:  # inactive machines, except labeled-malware ones
        for machine, domains in queried.items():
            if len(domains) <= config.r1_min_domains and machine not in malware_machines:
                remove(machine_rule, machine, "r1")
    if config.apply_r2:  # meganodes at or above the degree percentile
        degrees = sorted(len(domains) for domains in queried.values())
        rank = math.ceil((len(degrees) - 1) * (config.r2_percentile / 100))
        theta_d = degrees[rank]
        if theta_d > statistics.median(degrees):
            for machine, domains in queried.items():
                if len(domains) >= theta_d:
                    remove(machine_rule, machine, "r2")
    if config.apply_r3:  # single-querier domains, except known malware
        for domain, machines in queriers.items():
            if len(machines) == 1 and domain not in malware_domains:
                remove(domain_rule, domain, "r3")
    if config.apply_r4:  # e2LDs queried by >= a fraction of all machines
        theta_m = max(config.r4_machine_fraction * len(queried), 1)
        for zone in set(e2ld.values()):
            members = {d for d in queriers if e2ld[d] == zone}
            if len(set().union(*(queriers[d] for d in members))) >= theta_m:
                for domain in members:
                    remove(domain_rule, domain, "r4")

    kept = {
        (m, d) for m, d in edges
        if machine_rule[m] == "kept" and domain_rule[d] == "kept"
    }
    for rule_of, side in ((machine_rule, 0), (domain_rule, 1)):
        alive = {edge[side] for edge in kept}
        for node, rule in rule_of.items():
            if rule == "kept" and node not in alive:
                rule_of[node] = "orphaned"

    def pct(before, after):
        return 100.0 * (before - after) / before if before > 0 else 0.0

    n_edges = len(set(edges))
    after_m = len({m for m, _ in kept})
    after_d = len({d for _, d in kept})
    stats = {
        "machines_before": len(queried), "machines_after": after_m,
        "domains_before": len(queriers), "domains_after": after_d,
        "edges_before": n_edges, "edges_after": len(kept),
        "removed_r1_machines": removed["r1"], "removed_r2_machines": removed["r2"],
        "removed_r3_domains": removed["r3"], "removed_r4_domains": removed["r4"],
        "machines_removed_pct": pct(len(queried), after_m),
        "domains_removed_pct": pct(len(queriers), after_d),
        "edges_removed_pct": pct(n_edges, len(kept)),
    }
    return kept, machine_rule, domain_rule, stats


# ---------------------------------------------------------------------- #
# generated worlds
# ---------------------------------------------------------------------- #


@st.composite
def worlds(draw):
    n_machines = draw(st.integers(1, 12))
    zones = [f"z{i}.com" for i in range(draw(st.integers(1, 5)))]
    names = [f"h{h}.{zone}" for zone in zones for h in range(draw(st.integers(1, 3)))]
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_machines - 1).map("m{}".format),
                st.sampled_from(names),
            ),
            min_size=1,
            max_size=60,
        )
    )
    blacklisted = set(draw(st.lists(st.sampled_from(names), max_size=3)))
    whitelisted = set(draw(st.lists(st.sampled_from(zones), max_size=2)))
    config = PruneConfig(
        r1_min_domains=draw(st.integers(0, 4)),
        r2_percentile=draw(st.sampled_from([50.0, 90.0, 99.99, 100.0])),
        r4_machine_fraction=draw(st.sampled_from([0.05, 1.0 / 3.0, 0.5, 1.0])),
        apply_r1=draw(st.booleans()),
        apply_r2=draw(st.booleans()),
        apply_r3=draw(st.booleans()),
        apply_r4=draw(st.booleans()),
    )
    return edges, blacklisted, whitelisted, config, draw(st.integers(1, 3))


def _as_named(result, machines, domains):
    """A production ``PruneResult`` in the oracle's vocabulary."""
    graph = result.graph
    kept = {
        (machines.name(int(m)), domains.name(int(d)))
        for m, d in zip(graph.edge_machines, graph.edge_domains)
    }
    rules = [
        {
            interner.name(int(i)): rule_name(codes[i]) or "kept"
            for i in np.flatnonzero(codes != RULE_ABSENT)
        }
        for codes, interner in (
            (result.machine_rule, machines),
            (result.domain_rule, domains),
        )
    ]
    return kept, rules[0], rules[1], result.stats


def _labels_named(labels, graph, machines, domains):
    """Production labels of the nodes present in *graph*, by name."""
    return (
        {
            domains.name(int(d)): LABEL_NAMES[int(labels.domain_labels[d])]
            for d in graph.domain_ids()
        },
        {
            machines.name(int(m)): LABEL_NAMES[int(labels.machine_labels[m])]
            for m in graph.machine_ids()
        },
    )


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_both_paths_match_the_literal_rules(world):
    edges, blacklisted, whitelisted, config, n_shards = world
    machines, domains = Interner(), Interner()
    trace = DayTrace.build(
        0,
        machines,
        domains,
        [machines.intern(m) for m, _ in edges],
        [domains.intern(d) for _, d in edges],
    )
    blacklist = CncBlacklist()
    for name in blacklisted:
        blacklist.add(name, 0)
    whitelist = DomainWhitelist(whitelisted)
    e2ld_index = E2ldIndex(domains)
    expected = oracle_prune(edges, blacklisted, whitelisted, config)
    kept_edges = sorted(expected[0])
    expected_labels = oracle_labels(kept_edges, blacklisted, whitelisted)

    graph = BehaviorGraph.from_trace(trace)
    labels = label_graph(graph, blacklist, whitelist, e2ld_index)
    assert _labels_named(labels, graph, machines, domains) == oracle_labels(
        edges, blacklisted, whitelisted
    )
    in_memory = prune_graph(graph, labels, e2ld_index, config)
    assert _as_named(in_memory, machines, domains) == expected

    with tempfile.TemporaryDirectory() as directory:
        context = ObservationContext(
            day=0,
            trace=ShardedDayTrace.from_day_trace(
                trace, directory, n_shards=n_shards, batch_size=16
            ),
            fqd_activity=ActivityIndex(),
            e2ld_activity=ActivityIndex(),
            e2ld_index=e2ld_index,
            pdns=PassiveDNSDatabase(),
            blacklist=blacklist,
            whitelist=whitelist,
        )
        sharded, sharded_labels, _ = build_day_sharded(
            context,
            SegugioConfig(prune=config),
            hidden=np.empty(0, dtype=np.int64),
        )
    assert _as_named(sharded, machines, domains) == expected
    # labels come back re-derived on the pruned graph (degrees changed)
    assert (
        _labels_named(sharded_labels, sharded.graph, machines, domains)
        == expected_labels
    )
