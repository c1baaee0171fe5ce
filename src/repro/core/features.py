"""The 11 statistical domain features (paper §II-A3, Fig. 4).

Feature layout (column order is part of the public API; ablation experiments
address groups through :data:`FEATURE_GROUPS`):

====  ======================  =====================================================
idx   name                    meaning
====  ======================  =====================================================
0     machine_frac_infected   F1: ``m = |I| / |S|`` — fraction of known-infected
                              machines among those querying the domain
1     machine_frac_unknown    F1: ``u = |U| / |S|``
2     machine_total           F1: ``t = |S|``
3     fqd_days_active         F2: days the FQD was queried in the last ``n`` days
4     fqd_consecutive_days    F2: consecutive active days ending at ``t_now``
5     e2ld_days_active        F2: same as 3 for the effective 2LD
6     e2ld_consecutive_days   F2: same as 4 for the effective 2LD
7     ip_frac_malware         F3: fraction of resolved IPs pointed to by known
                              malware domains during the pDNS window ``W``
8     prefix24_frac_malware   F3: same as 7 over /24 prefixes
9     ip_n_unknown            F3: resolved IPs also used by unknown domains in ``W``
10    prefix24_n_unknown      F3: same as 9 over /24 prefixes
====  ======================  =====================================================

**Label hiding.**  Features are defined for *unknown* domains, so when
measuring a training domain whose ground truth is known, its label is hidden
first (Fig. 5).  Hiding domain *d* only affects machines in ``S(d)``:

* *d* is MALWARE: a machine in ``S(d)`` stays infected iff it queries at
  least one *other* malware domain (``malware_degree >= 2``);
* *d* is BENIGN: infection status is unchanged (``malware_degree >= 1``);
* in either case no machine in ``S(d)`` can be benign afterwards, because it
  now queries an unknown domain.

So F1 under hiding reduces to a per-edge threshold test on the precomputed
``machine_malware_degree`` array — which is why training-set construction is
vectorized rather than one graph relabeling per training domain.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.graph import BehaviorGraph
from repro.core.labeling import MALWARE, GraphLabels
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.obs.tracing import current_tracer
from repro.pdns.abuse import AbuseOracle

FEATURE_NAMES: List[str] = [
    "machine_frac_infected",
    "machine_frac_unknown",
    "machine_total",
    "fqd_days_active",
    "fqd_consecutive_days",
    "e2ld_days_active",
    "e2ld_consecutive_days",
    "ip_frac_malware",
    "prefix24_frac_malware",
    "ip_n_unknown",
    "prefix24_n_unknown",
]

FEATURE_GROUPS: Dict[str, List[int]] = {
    "machine": [0, 1, 2],
    "activity": [3, 4, 5, 6],
    "ip": [7, 8, 9, 10],
}

N_FEATURES = len(FEATURE_NAMES)

DEFAULT_ACTIVITY_WINDOW = 14  # days; n = 14 in the paper


class FeatureExtractor:
    """Measures the 11 features for candidate domains of one graph/day."""

    def __init__(
        self,
        graph: BehaviorGraph,
        labels: GraphLabels,
        fqd_activity: ActivityIndex,
        e2ld_activity: ActivityIndex,
        e2ld_index: E2ldIndex,
        abuse_oracle: AbuseOracle,
        activity_window: int = DEFAULT_ACTIVITY_WINDOW,
    ) -> None:
        if activity_window <= 0:
            raise ValueError("activity_window must be positive")
        self.graph = graph
        self.labels = labels
        self.fqd_activity = fqd_activity
        self.e2ld_activity = e2ld_activity
        self.e2ld_index = e2ld_index
        self.abuse_oracle = abuse_oracle
        self.activity_window = int(activity_window)

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def feature_matrix(
        self, domain_ids: Iterable[int], hide_labels: bool = False
    ) -> np.ndarray:
        """Feature rows for the given candidate domains.

        With ``hide_labels=True`` each candidate's own ground-truth label is
        hidden while measuring *its* row (training mode, Fig. 5); with
        ``False`` the candidates are taken to be unknown already
        (classification mode, Fig. 4).
        """
        ids = np.asarray(
            list(domain_ids) if not isinstance(domain_ids, np.ndarray) else domain_ids,
            dtype=np.int64,
        )
        features = np.zeros((ids.size, N_FEATURES), dtype=np.float64)
        if ids.size == 0:
            return features
        tracer = current_tracer()
        n = int(ids.size)
        with tracer.span("segugio_features_f1_machine", n_domains=n):
            self._machine_behavior(ids, hide_labels, out=features[:, 0:3])
        with tracer.span("segugio_features_f2_activity", n_domains=n):
            self._domain_activity(ids, out=features[:, 3:7])
        with tracer.span("segugio_features_f3_ip", n_domains=n):
            self._ip_abuse(ids, hide_labels, out=features[:, 7:11])
        return features

    def features_for(self, domain_id: int, hide_labels: bool = False) -> np.ndarray:
        """One feature vector (convenience wrapper)."""
        return self.feature_matrix([domain_id], hide_labels=hide_labels)[0]

    # ------------------------------------------------------------------ #
    # F1: machine behavior
    # ------------------------------------------------------------------ #

    def _machine_behavior(
        self, ids: np.ndarray, hide_labels: bool, out: np.ndarray
    ) -> None:
        graph, labels = self.graph, self.labels
        k = ids.size

        cand_index = np.full(graph.n_domain_ids, -1, dtype=np.int64)
        cand_index[ids] = np.arange(k)
        edge_cand = cand_index[graph.edge_domains]
        sel = edge_cand >= 0
        ec = edge_cand[sel]
        em = graph.edge_machines[sel]

        totals = np.bincount(ec, minlength=k).astype(np.float64)

        if hide_labels:
            # Per-candidate infection threshold on the querying machines:
            # hiding a MALWARE candidate discounts itself from the machine's
            # malware degree; hiding a BENIGN candidate does not change it.
            cand_labels = labels.domain_labels[ids]
            thresholds = np.where(cand_labels == MALWARE, 2, 1)
            infected_ind = (
                labels.machine_malware_degree[em] >= thresholds[ec]
            )
            # After hiding, no machine in S(d) can be benign (it queries an
            # unknown domain), so U = S - I.
            infected = np.bincount(
                ec, weights=infected_ind.astype(np.float64), minlength=k
            )
            benign = np.zeros(k, dtype=np.float64)
        else:
            machine_labels = labels.machine_labels[em]
            infected = np.bincount(
                ec,
                weights=(machine_labels == MALWARE).astype(np.float64),
                minlength=k,
            )
            # For a genuinely unknown candidate no querying machine can be
            # benign; this general form also covers feature measurement on
            # already-labeled domains without hiding (used by diagnostics).
            from repro.core.labeling import BENIGN  # local to avoid cycle noise

            benign = np.bincount(
                ec,
                weights=(machine_labels == BENIGN).astype(np.float64),
                minlength=k,
            )

        with np.errstate(divide="ignore", invalid="ignore"):
            frac_infected = np.where(totals > 0, infected / totals, 0.0)
            unknown = totals - infected - benign
            frac_unknown = np.where(totals > 0, unknown / totals, 0.0)

        out[:, 0] = frac_infected
        out[:, 1] = frac_unknown
        out[:, 2] = totals

    # ------------------------------------------------------------------ #
    # F2: domain activity
    # ------------------------------------------------------------------ #

    def _domain_activity(self, ids: np.ndarray, out: np.ndarray) -> None:
        day = self.graph.day
        window = self.activity_window
        fqd, e2ld_act = self.fqd_activity, self.e2ld_activity
        eids = self.e2ld_index.map_array()[ids]
        out[:, 0] = fqd.days_active_bulk(ids, day, window)
        out[:, 1] = fqd.consecutive_days_bulk(ids, day, window)
        out[:, 2] = e2ld_act.days_active_bulk(eids, day, window)
        out[:, 3] = e2ld_act.consecutive_days_bulk(eids, day, window)

    # ------------------------------------------------------------------ #
    # F3: IP abuse
    # ------------------------------------------------------------------ #

    def _ip_abuse(self, ids: np.ndarray, hide_labels: bool, out: np.ndarray) -> None:
        graph, oracle, labels = self.graph, self.abuse_oracle, self.labels
        ip_sets = [graph.resolved_ips(int(did)) for did in ids]
        if hide_labels:
            # Fig. 5 hiding extends to the evidence base: a known malware
            # candidate's own pDNS history must not vouch against itself.
            exclude = np.where(
                labels.domain_labels[ids] == MALWARE, ids, np.int64(-1)
            )
        else:
            exclude = None
        out[:, :] = oracle.abuse_features_many(ip_sets, exclude_domains=exclude)

    # ------------------------------------------------------------------ #
    # ablation support
    # ------------------------------------------------------------------ #

    @staticmethod
    def columns_without_group(excluded_group: Optional[str]) -> List[int]:
        """Feature column indices with one named group removed.

        ``excluded_group=None`` returns all columns.  Used by the Fig. 7 /
        Fig. 8 ablation experiments ("No machine", "No activity", "No IP").
        """
        if excluded_group is None:
            return list(range(N_FEATURES))
        if excluded_group not in FEATURE_GROUPS:
            raise KeyError(
                f"unknown feature group {excluded_group!r}; "
                f"options: {sorted(FEATURE_GROUPS)}"
            )
        dropped = set(FEATURE_GROUPS[excluded_group])
        return [i for i in range(N_FEATURES) if i not in dropped]
