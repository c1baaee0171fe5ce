"""The scenario orchestrator: one seeded, coherent multi-ISP world.

Builds, in order: the hosting landscape, the benign universe (whitelist
included), the malware world (blacklists and sandbox included), and one
machine population + traffic generator per ISP.  It then plays out the
backstory:

* the **passive-DNS history** over ``history_days`` before the eval epoch
  (plus the eval window itself), sparsely sampling benign resolutions and
  densely recording active C&C resolutions, and
* the **activity index** over the ``activity_backfill_days`` before the
  epoch (plus the eval window), at both FQD and e2LD granularity.

:meth:`Scenario.context` then yields the
:class:`repro.core.pipeline.ObservationContext` for any (ISP, day) in the
eval window — the exact input Segugio sees in deployment.  Traces are
generated lazily and cached.

A note on id spaces: all domains (benign first, then malware) are interned
into one global interner shared by traces, activity, pDNS, and the e2LD
index; machine interners are per-ISP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import ObservationContext
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.publicsuffix import PublicSuffixList
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.pdns.database import PassiveDNSDatabase
from repro.synth.config import ScenarioConfig, benchmark_scenario_config, small_scenario_config
from repro.synth.hosting import HostingLandscape
from repro.synth.internet import BenignUniverse
from repro.synth.isp import TrafficGenerator
from repro.synth.machines import IspPopulation
from repro.synth.malware import MalwareWorld
from repro.utils.ids import Interner
from repro.utils.rng import RngFactory


class Scenario:
    """A fully-generated synthetic world, queryable day by day."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        rngs = RngFactory(config.seed)

        self.domains = Interner()
        self.psl = PublicSuffixList()
        self.hosting = HostingLandscape(config.hosting, rngs)
        self.universe = BenignUniverse(
            config.universe, self.hosting, self.domains, self.psl, rngs
        )
        history_start = config.epoch_day - config.history_days
        self.malware = MalwareWorld(
            config.malware,
            self.hosting,
            self.universe,
            self.domains,
            start_day=history_start,
            end_day=config.last_eval_day + 1,
            epoch_day=config.epoch_day,
            rngs=rngs,
        )
        # Benign ids must be the leading contiguous block, malware next —
        # the global IP table below indexes by that layout.
        if int(self.universe.fqd_ids[0]) != 0 or int(
            self.malware.fqd_ids[0]
        ) != self.universe.n_fqds:
            raise AssertionError("unexpected interner layout")

        self.e2ld_index = E2ldIndex(self.domains, self.psl)
        self.whitelist: DomainWhitelist = self.universe.whitelist
        self.commercial_blacklist: CncBlacklist = self.malware.commercial_blacklist
        self.public_blacklist: CncBlacklist = self.malware.public_blacklist
        self.sandbox = self.malware.sandbox

        self._build_ip_table()
        self.populations: Dict[str, IspPopulation] = {}
        self.generators: Dict[str, TrafficGenerator] = {}
        for isp_cfg in config.isps:
            population = IspPopulation(isp_cfg, self.malware, rngs)
            self.populations[isp_cfg.name] = population
            self.generators[isp_cfg.name] = TrafficGenerator(
                population,
                self.universe,
                self.malware,
                self.domains,
                self.ips_of_global,
                rngs,
            )

        self.pdns = PassiveDNSDatabase()
        self.fqd_activity = ActivityIndex()
        self.e2ld_activity = ActivityIndex()
        self._play_backstory(rngs)

        self._trace_cache: Dict[Tuple[str, int], DayTrace] = {}
        self._truth_names = set(self.malware.ground_truth_malware_names())

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def small(cls, seed: int = 7) -> "Scenario":
        return cls(small_scenario_config(seed))

    @classmethod
    def benchmark(cls, seed: int = 7) -> "Scenario":
        return cls(benchmark_scenario_config(seed))

    @classmethod
    def at_scale(cls, scale: str, seed: int = 7) -> "Scenario":
        """The world behind every command's ``--scale small|benchmark``."""
        return {"small": cls.small, "benchmark": cls.benchmark}[scale](seed=seed)

    # ------------------------------------------------------------------ #
    # global IP table
    # ------------------------------------------------------------------ #

    def _build_ip_table(self) -> None:
        benign_counts = np.diff(self.universe.ip_offsets)
        malware_counts = np.diff(self.malware.ip_offsets)
        counts = np.concatenate([benign_counts, malware_counts])
        self._ip_offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._ip_offsets[1:])
        self._ip_flat = np.concatenate(
            [self.universe.ip_flat, self.malware.ip_flat]
        )

    def ips_of_global(self, domain_id: int) -> np.ndarray:
        """Resolved IPs of any global domain id (empty if unregistered)."""
        if domain_id >= self._ip_offsets.size - 1:
            return np.empty(0, dtype=np.uint32)
        lo, hi = self._ip_offsets[domain_id], self._ip_offsets[domain_id + 1]
        return self._ip_flat[lo:hi]

    # ------------------------------------------------------------------ #
    # backstory: pDNS + activity
    # ------------------------------------------------------------------ #

    def _play_backstory(self, rngs: RngFactory) -> None:
        cfg = self.config
        pdns_rng = rngs.stream("pdns")
        act_rng = rngs.stream("activity")
        e2ld_map = self.e2ld_index.map_array()
        n_benign = self.universe.n_fqds
        benign_ids = self.universe.fqd_ids

        pdns_start = cfg.epoch_day - cfg.history_days
        act_start = cfg.epoch_day - cfg.activity_backfill_days
        for day in range(pdns_start, cfg.last_eval_day + 1):
            # --- pDNS rows ---
            # Benign coverage is popularity-weighted; active C&C domains are
            # caught by the sensors on most (not all) of their active days.
            benign_seen = (
                pdns_rng.random(n_benign) < self.universe.pdns_obs_prob
            )
            malware_seen = self.malware.active_mask(day) & (
                pdns_rng.random(self.malware.n_domains) < 0.7
            )
            dom_ids = np.concatenate(
                [
                    benign_ids[benign_seen],
                    self.malware.fqd_ids[malware_seen],
                ]
            )
            if dom_ids.size:
                rows_d, rows_ip = self._expand_ips(dom_ids)
                self.pdns.observe_day(day, rows_d, rows_ip)

            # --- activity index ---
            if day < act_start:
                continue
            benign_active = act_rng.random(n_benign) < self.universe.activity_prob
            malware_active = malware_seen & (
                act_rng.random(self.malware.n_domains) < 0.92
            )
            active_ids = np.concatenate(
                [
                    benign_ids[benign_active],
                    self.malware.fqd_ids[malware_active],
                ]
            )
            self.fqd_activity.record(day, active_ids)
            self.e2ld_activity.record(day, np.unique(e2ld_map[active_ids]))

    def _expand_ips(self, dom_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ragged gather: (domain, ip) rows for the given ids."""
        starts = self._ip_offsets[dom_ids]
        counts = self._ip_offsets[dom_ids + 1] - starts
        nonzero = counts > 0
        starts, counts, dom_ids = starts[nonzero], counts[nonzero], dom_ids[nonzero]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
        cum = np.cumsum(counts) - counts
        positions = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum, counts)
            + np.repeat(starts, counts)
        )
        return np.repeat(dom_ids, counts), self._ip_flat[positions]

    # ------------------------------------------------------------------ #
    # contexts
    # ------------------------------------------------------------------ #

    def eval_day(self, offset: int) -> int:
        """Absolute day for eval-window offset (0 = first eval day)."""
        day = self.config.epoch_day + offset
        if not self.config.epoch_day <= day <= self.config.last_eval_day:
            raise ValueError(
                f"offset {offset} outside eval window "
                f"[0, {self.config.horizon_days - 1}]"
            )
        return day

    def trace(self, isp: str, day: int) -> DayTrace:
        key = (isp, day)
        if key not in self._trace_cache:
            self._trace_cache[key] = self.generators[isp].generate_day(day)
        return self._trace_cache[key]

    def context(
        self,
        isp: str,
        day: int,
        blacklist: Optional[CncBlacklist] = None,
        whitelist: Optional[DomainWhitelist] = None,
    ) -> ObservationContext:
        """The observation Segugio receives for (ISP, absolute day).

        ``blacklist`` defaults to the commercial feed; pass
        ``scenario.public_blacklist`` (or any merged feed) for the §IV-E
        experiments.  ``whitelist`` defaults to the Alexa-consistent list.
        """
        if isp not in self.generators:
            raise KeyError(f"unknown ISP {isp!r}")
        return ObservationContext(
            day=day,
            trace=self.trace(isp, day),
            fqd_activity=self.fqd_activity,
            e2ld_activity=self.e2ld_activity,
            e2ld_index=self.e2ld_index,
            pdns=self.pdns,
            blacklist=blacklist if blacklist is not None else self.commercial_blacklist,
            whitelist=whitelist if whitelist is not None else self.whitelist,
        )

    # ------------------------------------------------------------------ #
    # ground truth oracle (for evaluation only — never seen by Segugio)
    # ------------------------------------------------------------------ #

    def is_true_malware(self, name: str) -> bool:
        return name in self._truth_names

    def true_malware_names(self) -> List[str]:
        return sorted(self._truth_names)

    def kind_of(self, name: str) -> Optional[str]:
        """Ground-truth kind of a domain name: 'core', 'tail', 'adult',
        'free_site', 'malware', or None for names outside the world."""
        if name in self._truth_names:
            return "malware"
        domain_id = self.domains.lookup(name)
        if domain_id is None or domain_id >= self.universe.n_fqds:
            return None
        from repro.synth.internet import (
            KIND_ADULT,
            KIND_CORE,
            KIND_FREE_SITE,
            KIND_TAIL,
        )

        kind = int(self.universe.kinds[domain_id])
        return {
            KIND_CORE: "core",
            KIND_TAIL: "tail",
            KIND_ADULT: "adult",
            KIND_FREE_SITE: "free_site",
        }[kind]

    def __repr__(self) -> str:
        return (
            f"Scenario(seed={self.config.seed}, "
            f"isps={list(self.populations)}, "
            f"benign_fqds={self.universe.n_fqds}, "
            f"cnc_domains={self.malware.n_domains})"
        )
