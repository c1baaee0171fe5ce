"""Out-of-core paper-scale synthetic day emitter.

:class:`repro.synth.scenario.Scenario` builds a *coherent world* — every
machine, domain, and infection has a backstory — but it materializes each
day's trace in memory, which caps it far below the paper's 1.6M–4M
machines and ~320M edges per day (§IV-G).  This module is the scale rig:
a day whose edge list is a **pure function** of ``(seed, day, machine,
slot)`` through splitmix64 counter hashing, so

* edges stream out in arbitrary batch sizes without ever existing as one
  array — any ``batch_size`` yields the same concatenated row sequence;
* two processes (or a killed-and-resumed one) regenerate bit-identical
  days with no carried RNG state (SEG101: no stateful RNG constructors).

The population is stratified so every pruning rule has real prey:

======================  ======================================  =======
machine / domain block  behavior                                 rule
======================  ======================================  =======
inactive machines       3 queries each, all to hot domains       R1
meganodes               thousands of distinct domains            R2
tail domains            unique e2LD, exactly one querier         R3
CDN FQDs                2 e2LDs queried by ~every machine        R4
hot domains             whitelisted e2LDs → benign labels        kept
mid domains             unlabeled, multi-querier → scored        kept
C&C domains             per-family; half blacklisted before
                        the eval window (training labels),
                        half blacklisted after it (detection
                        targets the tracker can confirm)         kept
======================  ======================================  =======

Infected machines query their family's C&C domains on top of a normal
profile, so derived machine labels and the F1 features behave like the
paper's: fresh C&C domains are queried almost exclusively by machines
already labeled MALWARE through the known half of their family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core.pipeline import ObservationContext
from repro.datasets.edgestore import (
    EdgeStoreWriter,
    ShardedDayTrace,
    day_store_dir,
)
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.publicsuffix import PublicSuffixList
from repro.dns.trace import DEFAULT_BATCH_SIZE, DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.pdns.database import PassiveDNSDatabase
from repro.utils.ids import Interner

#: odd 64-bit stream constants separating the hash inputs
_K_DAY = np.uint64(0x9E3779B97F4A7C15)
_K_MACHINE = np.uint64(0xC2B2AE3D27D4EB4F)
_K_SLOT = np.uint64(0x165667B19E3779F9)
_K_SEED = np.uint64(0x27D4EB2F165667C5)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (vectorized, stateless)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class BigDayConfig:
    """Shape of the synthetic day; defaults scale with ``n_machines``."""

    n_machines: int = 50_000
    seed: int = 0
    start_day: int = 200
    n_days: int = 5
    n_hot: int = 1_000
    n_mid: int = 4_000
    n_cdn_fqds: int = 1_000
    n_cdn_e2lds: int = 2
    n_families: int = 6
    n_known_per_family: int = 10
    n_fresh_per_family: int = 10
    inactive_fraction: float = 0.10
    infected_fraction: float = 0.01
    meganode_per: int = 10_000
    meganode_degree: int = 3_000
    normal_degree: int = 21
    activity_backfill_days: int = 20
    pdns_history_days: int = 20
    fresh_blacklist_lag: int = 60
    """Days after ``start_day`` at which the fresh C&C half enters the
    blacklist — large enough that no tracked day sees their labels, small
    enough that confirmation horizons can find them."""

    def __post_init__(self) -> None:
        if self.n_machines < 1_000:
            raise ValueError("n_machines must be >= 1000")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")

    @classmethod
    def for_edges(cls, target_edges: int, seed: int = 0, **overrides) -> "BigDayConfig":
        """Config whose deduplicated day reaches *target_edges* edges.

        Mean raw rows per machine under the default fractions is ~19.3;
        6% headroom covers within-machine hash collisions lost to dedup.
        """
        probe = cls(n_machines=10_000, seed=seed, **overrides)
        per_machine = probe.n_rows_per_day / probe.n_machines
        n_machines = max(1_000, int(target_edges * 1.06 / per_machine))
        # Scale the shared domain pools with the population so per-domain
        # popularity stays in the intended band: a mid domain should see
        # ~60 queriers whether the day has 5k machines or 500k.  A fixed
        # pool at small scale starves mids down to C&C-like popularity and
        # the classifier can no longer tell the strata apart.
        factor = n_machines / 50_000
        for key, base, floor in (
            ("n_hot", 1000, 64),
            ("n_mid", 4000, 256),
            ("n_cdn_fqds", 1000, 32),
        ):
            overrides.setdefault(key, max(floor, int(base * factor)))
        return cls(n_machines=n_machines, seed=seed, **overrides)

    # ---- machine strata (contiguous id ranges) ----

    @property
    def n_inactive(self) -> int:
        return int(self.n_machines * self.inactive_fraction)

    @property
    def n_meganodes(self) -> int:
        return max(4, self.n_machines // self.meganode_per)

    @property
    def n_infected(self) -> int:
        return max(self.n_families, int(self.n_machines * self.infected_fraction))

    @property
    def n_normal(self) -> int:
        return (
            self.n_machines - self.n_inactive - self.n_meganodes - self.n_infected
        )

    @property
    def n_tail_emitters(self) -> int:
        return self.n_infected + self.n_normal

    @property
    def tails_per_machine(self) -> int:
        return 6

    @property
    def n_tails(self) -> int:
        return self.n_tail_emitters * self.tails_per_machine

    @property
    def n_cnc(self) -> int:
        return self.n_families * (self.n_known_per_family + self.n_fresh_per_family)

    @property
    def infected_degree(self) -> int:
        return self.n_normal_slots + 3  # the 3 extra C&C slots

    @property
    def n_normal_slots(self) -> int:
        return self.normal_degree

    @property
    def n_rows_per_day(self) -> int:
        return (
            self.n_inactive * 3
            + self.n_meganodes * self.meganode_degree
            + self.n_infected * self.infected_degree
            + self.n_normal * self.normal_degree
        )


class BigDay:
    """One generated big-day world: interners, feeds, and edge streams."""

    def __init__(self, config: BigDayConfig) -> None:
        self.config = config
        cfg = config
        self.machines = Interner(f"h{i:08d}" for i in range(cfg.n_machines))

        # Domain id layout (contiguous blocks, in this order):
        #   [0, n_hot)              hot    www.hot{k}.example
        #   [+, n_mid)              mid    svc.mid{j}.example
        #   [+, n_cdn_fqds)         cdn    a{h}.cdn{c}.example
        #   [+, n_cnc)              cnc    c{i}.fam{f}-cc.example
        #   [+, n_tails)            tail   a.t{r}.example
        self.domains = Interner()
        self.hot_base = 0
        for k in range(cfg.n_hot):
            self.domains.intern(f"www.hot{k}.example")
        self.mid_base = len(self.domains)
        for j in range(cfg.n_mid):
            self.domains.intern(f"svc.mid{j}.example")
        self.cdn_base = len(self.domains)
        for h in range(cfg.n_cdn_fqds):
            self.domains.intern(f"a{h}.cdn{h % cfg.n_cdn_e2lds}.example")
        self.cnc_base = len(self.domains)
        per_family = cfg.n_known_per_family + cfg.n_fresh_per_family
        for f in range(cfg.n_families):
            for i in range(per_family):
                self.domains.intern(f"c{i}.fam{f}-cc.example")
        self.tail_base = len(self.domains)
        for r in range(cfg.n_tails):
            self.domains.intern(f"a.t{r}.example")

        self.psl = PublicSuffixList()
        self.e2ld_index = E2ldIndex(self.domains, self.psl)
        # Whitelist: every hot e2LD plus a quarter of the mid pool — the
        # classifier must see benign examples at *mid* popularity too, or
        # it learns "low degree = malware" and floods the unlabeled mids.
        whitelisted = [f"hot{k}.example" for k in range(cfg.n_hot)]
        whitelisted += [f"mid{j}.example" for j in range(0, cfg.n_mid, 4)]
        self.whitelist = DomainWhitelist(
            whitelisted, psl=self.psl, name="bigday-whitelist"
        )
        self.blacklist = CncBlacklist("bigday-blacklist")
        known_day = cfg.start_day - 10
        fresh_day = cfg.start_day + cfg.fresh_blacklist_lag
        for f in range(cfg.n_families):
            for i in range(per_family):
                name = f"c{i}.fam{f}-cc.example"
                added = known_day if i < cfg.n_known_per_family else fresh_day
                self.blacklist.add(name, added, family=f"fam{f}")

        self._machine_starts, self._degrees, self._row_starts = (
            self._strata_layout()
        )
        self.pdns = PassiveDNSDatabase()
        self.fqd_activity = ActivityIndex()
        self.e2ld_activity = ActivityIndex()
        self._play_backstory()
        self._truth_names = {
            f"c{i}.fam{f}-cc.example"
            for f in range(cfg.n_families)
            for i in range(per_family)
        }

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #

    def _strata_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-stratum (first machine id, degree, first global row)."""
        cfg = self.config
        counts = np.array(
            [cfg.n_inactive, cfg.n_meganodes, cfg.n_infected, cfg.n_normal],
            dtype=np.int64,
        )
        degrees = np.array(
            [3, cfg.meganode_degree, cfg.infected_degree, cfg.normal_degree],
            dtype=np.int64,
        )
        machine_starts = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=machine_starts[1:])
        row_starts = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts * degrees, out=row_starts[1:])
        return machine_starts, degrees, row_starts

    @property
    def n_rows_per_day(self) -> int:
        return int(self._row_starts[-1])

    def eval_day(self, offset: int) -> int:
        if not 0 <= offset < self.config.n_days:
            raise ValueError(
                f"offset {offset} outside eval window [0, {self.config.n_days - 1}]"
            )
        return self.config.start_day + offset

    def is_malware(self, name: str) -> bool:
        """Ground-truth oracle (evaluation only — never seen by Segugio)."""
        return name in self._truth_names

    # ------------------------------------------------------------------ #
    # the pure edge function
    # ------------------------------------------------------------------ #

    def _rows(self, day: int, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Raw (machine id, domain id) rows for global row range [lo, hi).

        Pure in (seed, day, row index): the stream is reproducible from
        any offset, which is what makes batch size a free parameter.
        """
        cfg = self.config
        rows = np.arange(lo, hi, dtype=np.int64)
        stratum = (
            np.searchsorted(self._row_starts, rows, side="right") - 1
        )
        local = rows - self._row_starts[stratum]
        degree = self._degrees[stratum]
        machines = self._machine_starts[stratum] + local // degree
        slots = local % degree

        # seed/day fold in python ints (arbitrary precision, masked to 64
        # bits) — numpy uint64 *scalar* products warn on wraparound
        base = (cfg.seed * int(_K_SEED) + day * int(_K_DAY)) & 0xFFFFFFFFFFFFFFFF
        keys = _mix64(
            np.uint64(base)
            + machines.astype(np.uint64) * _K_MACHINE
            + slots.astype(np.uint64) * _K_SLOT
        )
        domains = np.empty(rows.size, dtype=np.int64)

        inactive = stratum == 0
        domains[inactive] = self.hot_base + (
            keys[inactive] % np.uint64(cfg.n_hot)
        ).astype(np.int64)

        mega = stratum == 1
        domains[mega] = self.hot_base + (
            keys[mega] % np.uint64(cfg.n_hot + cfg.n_mid)
        ).astype(np.int64)

        # infected and normal machines share the base profile by slot
        profiled = stratum >= 2
        pslots = slots[profiled]
        pkeys = keys[profiled]
        pmachines = machines[profiled]
        pdomains = np.empty(pslots.size, dtype=np.int64)

        hot = pslots < 8
        pdomains[hot] = self.hot_base + (
            pkeys[hot] % np.uint64(cfg.n_hot)
        ).astype(np.int64)
        mid = (pslots >= 8) & (pslots < 13)
        pdomains[mid] = self.mid_base + (
            pkeys[mid] % np.uint64(cfg.n_mid)
        ).astype(np.int64)
        tail = (pslots >= 13) & (pslots < 13 + cfg.tails_per_machine)
        tail_rank = pmachines[tail] - int(self._machine_starts[2])
        pdomains[tail] = (
            self.tail_base
            + tail_rank * cfg.tails_per_machine
            + (pslots[tail] - 13)
        )
        cdn = (pslots >= 13 + cfg.tails_per_machine) & (
            pslots < cfg.n_normal_slots
        )
        pdomains[cdn] = self.cdn_base + (
            pkeys[cdn] % np.uint64(cfg.n_cdn_fqds)
        ).astype(np.int64)
        cnc = pslots >= cfg.n_normal_slots  # infected machines only
        per_family = cfg.n_known_per_family + cfg.n_fresh_per_family
        family = pmachines[cnc] % cfg.n_families
        pdomains[cnc] = (
            self.cnc_base
            + family * per_family
            + (pkeys[cnc] % np.uint64(per_family)).astype(np.int64)
        )
        domains[profiled] = pdomains
        return machines, domains

    def iter_edge_batches(
        self, day: int, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Raw edge rows in fixed-size batches (last one ragged)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        total = self.n_rows_per_day
        for lo in range(0, total, batch_size):
            yield self._rows(day, lo, min(lo + batch_size, total))

    # ------------------------------------------------------------------ #
    # resolutions, pDNS, activity
    # ------------------------------------------------------------------ #

    def _resolution_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """(domain id, IPv4) rows for the resolved pools (hot/mid/cnc).

        Hot domains resolve to one dedicated clean address each; mid
        domains share clean addresses eight-to-an-IP (shared hosting), so
        whitelisted and unlabeled mids are mixed on the same
        infrastructure and the pDNS features cannot leak the label.  C&C
        domains resolve to two addresses drawn from a small recycled
        dirty block, so the pDNS abuse oracle sees genuine infrastructure
        reuse.  Tail and CDN resolutions are omitted (their nodes are
        pruned anyway).
        """
        cfg = self.config
        hot_mid = np.arange(
            self.hot_base, self.mid_base + cfg.n_mid, dtype=np.int64
        )
        shared = np.where(
            hot_mid >= self.mid_base,
            self.mid_base + (hot_mid - self.mid_base) // 8,
            hot_mid,
        )
        clean_ips = (np.uint64(0x0A000000) + shared.astype(np.uint64)).astype(
            np.int64
        )
        cnc = np.arange(self.cnc_base, self.cnc_base + cfg.n_cnc, dtype=np.int64)
        dirty_a = np.int64(0xC0A80000) + (
            _mix64(cnc.astype(np.uint64) * _K_MACHINE) % np.uint64(64)
        ).astype(np.int64)
        dirty_b = np.int64(0xC0A80000) + (
            _mix64(cnc.astype(np.uint64) * _K_SLOT) % np.uint64(64)
        ).astype(np.int64)
        dids = np.concatenate([hot_mid, cnc, cnc])
        ips = np.concatenate([clean_ips, dirty_a, dirty_b])
        return dids, ips

    def _play_backstory(self) -> None:
        """Seed pDNS and the activity indices over the pre-eval window."""
        cfg = self.config
        res_dids, res_ips = self._resolution_rows()
        active = np.arange(0, self.cnc_base + cfg.n_cnc, dtype=np.int64)
        e2ld_map = self.e2ld_index.map_array()
        active_e2lds = np.unique(e2ld_map[active])
        last_day = cfg.start_day + cfg.n_days - 1
        pdns_start = cfg.start_day - cfg.pdns_history_days
        act_start = cfg.start_day - cfg.activity_backfill_days
        for day in range(min(pdns_start, act_start), last_day + 1):
            if day >= pdns_start:
                self.pdns.observe_day(day, res_dids, res_ips.astype(np.uint32))
            if day >= act_start:
                self.fqd_activity.record(day, active)
                self.e2ld_activity.record(day, active_e2lds)

    # ------------------------------------------------------------------ #
    # traces and contexts
    # ------------------------------------------------------------------ #

    def trace(self, day: int, batch_size: int = DEFAULT_BATCH_SIZE) -> DayTrace:
        """In-memory trace — the sharded path's equivalence reference.

        Materializes every raw row; use only at test scale.
        """
        chunks_m, chunks_d = [], []
        for em, ed in self.iter_edge_batches(day, batch_size):
            chunks_m.append(em)
            chunks_d.append(ed)
        res_dids, res_ips = self._resolution_rows()
        order = np.argsort(res_dids, kind="stable")
        res_sorted = res_dids[order]
        bounds = np.flatnonzero(
            np.diff(np.concatenate([[-1], res_sorted]))
        )
        resolutions: Dict[int, np.ndarray] = {}
        starts = np.append(bounds, res_sorted.size)
        for i in range(bounds.size):
            did = int(res_sorted[starts[i]])
            ips = res_ips[order][starts[i] : starts[i + 1]]
            resolutions[did] = np.unique(ips.astype(np.uint32))
        return DayTrace.build(
            day,
            self.machines,
            self.domains,
            np.concatenate(chunks_m),
            np.concatenate(chunks_d),
            resolutions,
        )

    def sharded_trace(
        self,
        day: int,
        directory: str,
        *,
        n_shards: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> ShardedDayTrace:
        """Stream the day straight into an edge store — never holds more
        than one batch of rows in memory."""
        writer = EdgeStoreWriter(directory, day=day, n_shards=n_shards)
        for em, ed in self.iter_edge_batches(day, batch_size):
            writer.add_batch(em, ed)
        res_dids, res_ips = self._resolution_rows()
        writer.add_resolutions(res_dids, res_ips)
        writer.finalize(
            n_machines=len(self.machines), n_domains=len(self.domains)
        )
        return ShardedDayTrace.open(directory, self.machines, self.domains)

    def context(
        self,
        day: int,
        *,
        store_dir: Optional[str] = None,
        shards: Optional[int] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> ObservationContext:
        """The observation Segugio receives for one big day.

        With ``shards`` set, the trace is streamed into an edge store
        under *store_dir* (one subdirectory per day) and the context
        carries a :class:`ShardedDayTrace`; otherwise the day is
        materialized in memory.
        """
        if shards is not None:
            if store_dir is None:
                raise ValueError("shards requires store_dir")
            directory = day_store_dir(store_dir, day)
            trace = self.sharded_trace(
                day, directory, n_shards=shards, batch_size=batch_size
            )
        else:
            trace = self.trace(day, batch_size=batch_size)
        return ObservationContext(
            day=day,
            trace=trace,
            fqd_activity=self.fqd_activity,
            e2ld_activity=self.e2ld_activity,
            e2ld_index=self.e2ld_index,
            pdns=self.pdns,
            blacklist=self.blacklist,
            whitelist=self.whitelist,
        )

    def __repr__(self) -> str:
        return (
            f"BigDay(machines={self.config.n_machines}, "
            f"domains={len(self.domains)}, "
            f"rows_per_day={self.n_rows_per_day})"
        )
