"""Self-checks for generated worlds: do the paper's preconditions hold?

Segugio's accuracy rests on measurable properties of the traffic (the
paper's three intuitions plus the ground-truth ecology).  This module
measures them on a generated :class:`repro.synth.scenario.Scenario` so
that configuration changes which silently break a precondition are caught
by a diagnostic, not by a mysteriously flat ROC three layers up:

* **agility** (intuition 1): infected machines keep querying *new* C&C
  names — fraction of known-infected machines querying >1 malware domain
  in a day (paper Fig. 3: ~70%).
* **overlap** (intuition 2): querier-set Jaccard within a family far
  exceeds the benign-pair baseline.
* **separation** (intuition 3): no clean machine ever queries a C&C
  domain (by construction; verified against the traces).
* **ecology**: blacklist coverage/lag, whitelist residual noise
  (unidentified free-hosting services), abused-IP reuse across families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.core.graphstats import intra_family_overlap
from repro.core.labeling import MALWARE, label_graph
from repro.dns.records import prefix24
from repro.synth.machines import ARCH_PROBE, ARCH_PROXY
from repro.synth.scenario import Scenario


@dataclass
class WorldDiagnostics:
    """Measured preconditions for one (scenario, ISP, day)."""

    isp: str
    day: int
    frac_infected_query_multiple: float = 0.0
    family_overlap_mean: float = 0.0
    benign_overlap_mean: float = 0.0
    clean_machine_cnc_queries: int = 0
    blacklist_coverage: float = 0.0
    mean_blacklist_lag_days: float = 0.0
    n_whitelist_noise_services: int = 0
    prefix_reuse_rate: float = 0.0
    checks: Dict[str, bool] = field(default_factory=dict)

    def healthy(self) -> bool:
        return all(self.checks.values())

    def report(self) -> str:
        lines = [f"world diagnostics ({self.isp}, day {self.day}):"]
        lines.append(
            f"  intuition 1 (agility): {self.frac_infected_query_multiple:.0%} "
            f"of infected machines query >1 C&C domain "
            f"[{'ok' if self.checks.get('agility') else 'WEAK'}]"
        )
        lines.append(
            f"  intuition 2 (overlap): family Jaccard "
            f"{self.family_overlap_mean:.2f} vs benign "
            f"{self.benign_overlap_mean:.2f} "
            f"[{'ok' if self.checks.get('overlap') else 'WEAK'}]"
        )
        lines.append(
            f"  intuition 3 (separation): {self.clean_machine_cnc_queries} "
            f"clean-machine C&C queries "
            f"[{'ok' if self.checks.get('separation') else 'VIOLATED'}]"
        )
        lines.append(
            f"  blacklist: {self.blacklist_coverage:.0%} coverage, "
            f"mean lag {self.mean_blacklist_lag_days:.1f}d; whitelist noise: "
            f"{self.n_whitelist_noise_services} unidentified services; "
            f"/24 reuse across families: {self.prefix_reuse_rate:.0%}"
        )
        return "\n".join(lines)


def diagnose(scenario: Scenario, isp: str, day: int) -> WorldDiagnostics:
    """Measure every precondition on one ISP-day of the world."""
    result = WorldDiagnostics(isp=isp, day=day)
    context = scenario.context(isp, day)
    graph = BehaviorGraph.from_trace(context.trace)
    labels = label_graph(
        graph, context.blacklist, context.whitelist, context.e2ld_index, as_of_day=day
    )
    pop = scenario.populations[isp]
    mw = scenario.malware

    # --- intuition 1: agility ---
    special = set(
        int(m)
        for arch in (ARCH_PROXY, ARCH_PROBE)
        for m in pop.machines_of_archetype(arch)
    )
    infected = [
        int(m)
        for m in labels.machine_ids_with_label(MALWARE)
        if int(m) not in special and int(m) < pop.n_machines
    ]
    if infected:
        degrees = labels.machine_malware_degree[infected]
        result.frac_infected_query_multiple = float((degrees > 1).mean())
    result.checks["agility"] = result.frac_infected_query_multiple >= 0.5

    # --- intuition 2: overlap ---
    groups: Dict[str, List[int]] = {}
    for fam in list(pop.family_members)[:6]:
        active = mw.active_indices_of_family(fam, day)
        if active.size >= 2:
            groups[f"fam{fam}"] = [int(g) for g in mw.fqd_ids[active]]
    benign_sample = [int(d) for d in scenario.universe.fqd_ids[300:330]]
    overlaps = intra_family_overlap(graph, {**groups, "benign": benign_sample})
    family_values = [v for k, v in overlaps.items() if k != "benign"]
    result.family_overlap_mean = float(np.mean(family_values)) if family_values else 0.0
    result.benign_overlap_mean = float(overlaps.get("benign", 0.0))
    result.checks["overlap"] = (
        result.family_overlap_mean > result.benign_overlap_mean + 0.1
    )

    # --- intuition 3: separation ---
    malware_ids = set(mw.fqd_ids.tolist())
    infected_set = set(pop.infected_machines().tolist()) | special
    violations = 0
    for machine_id, domain_id in zip(graph.edge_machines, graph.edge_domains):
        if int(domain_id) in malware_ids and int(machine_id) not in infected_set:
            if int(machine_id) < pop.n_machines:  # ignore DHCP-churn aliases
                violations += 1
    result.clean_machine_cnc_queries = violations
    result.checks["separation"] = violations == 0

    # --- ecology ---
    covered = sum(
        1
        for i in range(mw.n_domains)
        if scenario.commercial_blacklist.contains(mw.name_of(i))
    )
    result.blacklist_coverage = covered / max(mw.n_domains, 1)
    lags = [
        entry.added_day - int(mw.activation[mw._names.index(entry.domain)])
        for entry in scenario.commercial_blacklist
        if entry.domain in mw._names
    ]
    result.mean_blacklist_lag_days = float(np.mean(lags)) if lags else 0.0
    result.n_whitelist_noise_services = len(
        scenario.universe.unidentified_services
    )

    # Abused-/24 reuse: fraction of bulletproof-hosted domains whose /24 is
    # shared with at least one other family's domain.
    prefix_owner: Dict[int, set] = {}
    for i in range(mw.n_domains):
        for ip in mw.ips_of(i):
            prefix_owner.setdefault(int(prefix24(int(ip))), set()).add(
                int(mw.family[i])
            )
    shared = sum(1 for fams in prefix_owner.values() if len(fams) > 1)
    result.prefix_reuse_rate = shared / max(len(prefix_owner), 1)
    result.checks["ecology"] = (
        0.4 < result.blacklist_coverage < 0.98
        and result.n_whitelist_noise_services > 0
    )
    return result
