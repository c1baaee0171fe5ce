"""The machine-domain bipartite query-behavior graph (paper §II-A1).

An undirected bipartite graph ``G = (M, D, E)``: machines on one side,
domains on the other, an edge when the machine queried the domain during the
observation window.  Node identities are the *global* interned ids shared
with the traces, activity index, and pDNS store; the graph additionally keeps
CSR adjacency in both directions so that

* ``machines_of_domain(d)`` — the set S of machines querying *d* (feature F1),
* ``domains_of_machine(m)`` — a machine's query profile (labeling, pruning),

are O(degree) slices.  Domain nodes carry the day's resolved-IP annotation
(feature F3 input).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.dns.trace import DayTrace
from repro.utils.arrays import sorted_unique
from repro.utils.ids import Interner


class _Csr:
    """One-directional CSR adjacency over a dense id space."""

    __slots__ = ("offsets", "targets", "degrees")

    def __init__(self, sources: np.ndarray, targets: np.ndarray, n_sources: int) -> None:
        if sources.size:
            lo = int(sources.min())
            hi = int(sources.max())
            if lo < 0 or hi >= n_sources:
                offender = lo if lo < 0 else hi
                raise ValueError(
                    f"edge references id {offender} outside the interned id "
                    f"space [0, {n_sources}) — the trace was built against a "
                    f"stale or torn interner"
                )
        order = np.argsort(sources, kind="stable")
        self.targets = targets[order]
        self.degrees = np.bincount(sources, minlength=n_sources).astype(np.int64)
        self.offsets = np.zeros(n_sources + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.offsets[1:])

    def neighbors(self, node_id: int) -> np.ndarray:
        return self.targets[self.offsets[node_id]:self.offsets[node_id + 1]]


class BehaviorGraph:
    """Bipartite who-queries-what graph for one observation window."""

    def __init__(
        self,
        day: int,
        machines: Interner,
        domains: Interner,
        edge_machines: np.ndarray,
        edge_domains: np.ndarray,
        resolutions: Optional[Dict[int, np.ndarray]] = None,
    ) -> None:
        self.day = int(day)
        self.machines = machines
        self.domains = domains
        self.edge_machines = np.asarray(edge_machines, dtype=np.int64)
        self.edge_domains = np.asarray(edge_domains, dtype=np.int64)
        if self.edge_machines.shape != self.edge_domains.shape:
            raise ValueError("edge arrays must be parallel")
        self.resolutions: Dict[int, np.ndarray] = resolutions or {}

        self.n_machine_ids = len(machines)
        self.n_domain_ids = len(domains)
        self._by_machine = _Csr(
            self.edge_machines, self.edge_domains, self.n_machine_ids
        )
        self._by_domain = _Csr(
            self.edge_domains, self.edge_machines, self.n_domain_ids
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_trace(cls, trace: DayTrace) -> "BehaviorGraph":
        """Build the graph from one day of deduplicated DNS traffic."""
        return cls(
            trace.day,
            trace.machines,
            trace.domains,
            trace.edge_machines,
            trace.edge_domains,
            trace.resolutions,
        )

    def subgraph(
        self, keep_machines: np.ndarray, keep_domains: np.ndarray
    ) -> "BehaviorGraph":
        """Graph restricted to edges whose endpoints are both kept.

        *keep_machines* / *keep_domains* are boolean masks over the global id
        spaces.  Interners (and hence the id spaces) are shared with the
        parent graph; only the edge set shrinks.
        """
        edge_kept = keep_machines[self.edge_machines] & keep_domains[self.edge_domains]
        kept_domains = self.edge_domains[edge_kept]
        present = sorted_unique(kept_domains)
        resolutions = {
            int(did): self.resolutions[int(did)]
            for did in present
            if int(did) in self.resolutions
        }
        return BehaviorGraph(
            self.day,
            self.machines,
            self.domains,
            self.edge_machines[edge_kept],
            kept_domains,
            resolutions,
        )

    # ------------------------------------------------------------------ #
    # topology queries
    # ------------------------------------------------------------------ #

    @property
    def n_edges(self) -> int:
        return int(self.edge_machines.shape[0])

    def machine_ids(self) -> np.ndarray:
        """Global ids of machines present (degree > 0) in this graph."""
        return np.flatnonzero(self._by_machine.degrees > 0)

    def domain_ids(self) -> np.ndarray:
        """Global ids of domains present (degree > 0) in this graph."""
        return np.flatnonzero(self._by_domain.degrees > 0)

    @property
    def n_machines(self) -> int:
        return int(np.count_nonzero(self._by_machine.degrees))

    @property
    def n_domains(self) -> int:
        return int(np.count_nonzero(self._by_domain.degrees))

    def machine_degrees(self) -> np.ndarray:
        """Distinct domains queried, indexed by global machine id."""
        return self._by_machine.degrees

    def domain_degrees(self) -> np.ndarray:
        """Distinct querying machines, indexed by global domain id."""
        return self._by_domain.degrees

    def domains_of_machine(self, machine_id: int) -> np.ndarray:
        return self._by_machine.neighbors(machine_id)

    def machines_of_domain(self, domain_id: int) -> np.ndarray:
        return self._by_domain.neighbors(domain_id)

    def resolved_ips(self, domain_id: int) -> np.ndarray:
        ips = self.resolutions.get(int(domain_id))
        if ips is None:
            return np.empty(0, dtype=np.uint32)
        return ips

    def __repr__(self) -> str:
        return (
            f"BehaviorGraph(day={self.day}, machines={self.n_machines}, "
            f"domains={self.n_domains}, edges={self.n_edges})"
        )
