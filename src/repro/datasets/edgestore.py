"""Columnar, memory-mapped, machine-sharded edge store for one day.

The paper's deployments see 1.6M–4M machines and ~320M machine–domain
edges per day (§IV-G); an in-memory :class:`~repro.dns.trace.DayTrace`
cannot represent that.  This module is the out-of-core backing store:
trace records stream in as fixed-size batches, are spilled to per-shard
binary files partitioned by ``machine_id % n_shards``, and are finalized
into deduplicated, sorted columnar ``.npy`` arrays that readers map with
``mmap_mode="r"`` — per-shard graph build touches only its own shard's
pages.

Layout of a finalized store directory::

    manifest.json            counts + format version, written last
    shard-00000.machines.npy shard 0 edge machine ids, deduped, sorted
    shard-00000.domains.npy  shard 0 edge domain ids (parallel array)
    ...
    res.domains.npy          sorted unique resolved domain ids
    res.offsets.npy          CSR offsets into res.ips.npy
    res.ips.npy              per-domain sorted unique IPv4s (uint32)

Determinism rules (the sharded path must stay bit-identical to the
in-memory one):

* machines are partitioned by ``machine_id % n_shards``, so every
  machine's edges live wholly in one shard and per-shard deduplication
  equals global deduplication restricted to the shard;
* each shard's edges are sorted by ``(machine, domain)`` exactly like
  :func:`repro.dns.trace._dedupe_edges` orders the in-memory arrays, so
  concatenating shards and ordering by ``(machine, domain)`` rebuilds
  the in-memory edge order byte for byte;
* resolutions are globally deduplicated to per-domain sorted unique IP
  arrays — the same values ``sorted(set(ips))`` produces in memory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.runtime.retry import atomic_file
from repro.utils.arrays import sorted_unique
from repro.utils.errors import FormatVersionError
from repro.utils.ids import Interner

EDGESTORE_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"


def _shard_stem(shard: int) -> str:
    return f"shard-{shard:05d}"


class EdgeStoreWriter:
    """Spill-then-finalize writer for a sharded edge store.

    Batches may arrive in any order and carry duplicate edges; nothing is
    deduplicated until :meth:`finalize`, so peak memory during ingestion
    is one batch, and during finalize one shard's raw spill.
    """

    def __init__(self, directory: str, *, day: int = 0, n_shards: int = 1) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.day = int(day)
        self.n_shards = int(n_shards)
        self.n_batches = 0
        self.n_raw_rows = 0
        self._n_res_rows = 0
        self._finalized = False
        self._edge_spills = [
            open(self._spill_path(shard), "wb") for shard in range(n_shards)
        ]
        self._res_spill = open(os.path.join(directory, "res.spill"), "wb")

    def _spill_path(self, shard: int) -> str:
        return os.path.join(self.directory, f"{_shard_stem(shard)}.spill")

    def set_day(self, day: int) -> None:
        """Re-tag the day (a streamed trace reveals its header early on,
        but the writer is constructed before the stream is opened)."""
        self._check_open()
        if day < 0:
            raise ValueError(f"day must be non-negative, got {day}")
        self.day = int(day)

    def add_batch(self, machine_ids: np.ndarray, domain_ids: np.ndarray) -> None:
        """Spill one batch of (machine id, domain id) pairs to the shards."""
        self._check_open()
        em = np.asarray(machine_ids, dtype=np.int64)
        ed = np.asarray(domain_ids, dtype=np.int64)
        if em.shape != ed.shape:
            raise ValueError("edge arrays must be parallel")
        self.n_batches += 1
        self.n_raw_rows += int(em.size)
        if not em.size:
            return
        if int(em.min()) < 0 or int(ed.min()) < 0:
            raise ValueError("edge ids must be non-negative")
        if self.n_shards == 1:
            self._spill_pairs(self._edge_spills[0], em, ed)
            return
        part = em % self.n_shards
        order = np.argsort(part, kind="stable")
        part_sorted = part[order]
        em_sorted = em[order]
        ed_sorted = ed[order]
        bounds = np.searchsorted(part_sorted, np.arange(self.n_shards + 1))
        for shard in range(self.n_shards):
            lo, hi = int(bounds[shard]), int(bounds[shard + 1])
            if lo < hi:
                self._spill_pairs(
                    self._edge_spills[shard], em_sorted[lo:hi], ed_sorted[lo:hi]
                )

    def add_resolutions(self, domain_ids: np.ndarray, ips: np.ndarray) -> None:
        """Spill flattened (domain id, resolved IP) observation rows."""
        self._check_open()
        did = np.asarray(domain_ids, dtype=np.int64)
        ip = np.asarray(ips, dtype=np.int64)
        if did.shape != ip.shape:
            raise ValueError("resolution arrays must be parallel")
        if not did.size:
            return
        self._n_res_rows += int(did.size)
        self._spill_pairs(self._res_spill, did, ip)

    @staticmethod
    def _spill_pairs(handle, left: np.ndarray, right: np.ndarray) -> None:
        pairs = np.empty((left.size, 2), dtype=np.int64)
        pairs[:, 0] = left
        pairs[:, 1] = right
        handle.write(pairs.tobytes())

    def finalize(
        self,
        n_machines: Optional[int] = None,
        n_domains: Optional[int] = None,
    ) -> "EdgeStore":
        """Dedupe and sort every shard, write the columnar arrays and the
        manifest (last, atomically — its presence marks a complete store)."""
        self._check_open()
        self._finalized = True
        for handle in self._edge_spills:
            handle.close()
        self._res_spill.close()

        shard_edges: List[int] = []
        max_machine = -1
        max_domain = -1
        for shard in range(self.n_shards):
            spill = self._spill_path(shard)
            pairs = np.fromfile(spill, dtype=np.int64).reshape(-1, 2)
            em, ed = _dedupe_pairs(pairs[:, 0], pairs[:, 1])
            if em.size:
                max_machine = max(max_machine, int(em.max()))
                max_domain = max(max_domain, int(ed.max()))
            np.save(
                os.path.join(self.directory, f"{_shard_stem(shard)}.machines.npy"),
                em,
            )
            np.save(
                os.path.join(self.directory, f"{_shard_stem(shard)}.domains.npy"),
                ed,
            )
            shard_edges.append(int(em.size))
            os.remove(spill)

        res_spill = os.path.join(self.directory, "res.spill")
        res_pairs = np.fromfile(res_spill, dtype=np.int64).reshape(-1, 2)
        res_domains, res_offsets, res_ips = _pack_resolutions(
            res_pairs[:, 0], res_pairs[:, 1]
        )
        np.save(os.path.join(self.directory, "res.domains.npy"), res_domains)
        np.save(os.path.join(self.directory, "res.offsets.npy"), res_offsets)
        np.save(os.path.join(self.directory, "res.ips.npy"), res_ips)
        os.remove(res_spill)

        manifest = {
            "format_version": EDGESTORE_FORMAT_VERSION,
            "day": self.day,
            "n_shards": self.n_shards,
            "n_edges": int(sum(shard_edges)),
            "n_raw_rows": self.n_raw_rows,
            "n_batches": self.n_batches,
            "n_machines": int(n_machines if n_machines is not None else max_machine + 1),
            "n_domains": int(n_domains if n_domains is not None else max_domain + 1),
            "n_resolved_domains": int(res_domains.size),
            "shard_edges": shard_edges,
        }
        with atomic_file(os.path.join(self.directory, MANIFEST_NAME)) as staging:
            with open(staging, "w") as stream:
                json.dump(manifest, stream, sort_keys=True, indent=2)
        return EdgeStore.open(self.directory)

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError("edge store already finalized; open it instead")


def _dedupe_pairs(
    left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted-unique (left, right) pairs — the `_dedupe_edges` ordering."""
    if not left.size:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    base = int(right.max()) + 1
    keys = left * base + right
    unique_keys = sorted_unique(keys)
    return unique_keys // base, unique_keys % base


def _pack_resolutions(
    domain_ids: np.ndarray, ips: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar CSR of per-domain sorted unique IPs (uint32)."""
    if not domain_ids.size:
        return (
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.uint32),
        )
    keys = (domain_ids.astype(np.uint64) << np.uint64(32)) | ips.astype(
        np.uint64
    )
    unique_keys = sorted_unique(keys)
    did = (unique_keys >> np.uint64(32)).astype(np.int64)
    ip = (unique_keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    res_domains, starts = np.unique(did, return_index=True)
    res_offsets = np.append(starts, did.size).astype(np.int64)
    return res_domains, res_offsets, ip


class EdgeStore:
    """Read side of a finalized store: mmap-backed columnar access."""

    def __init__(
        self,
        directory: str,
        *,
        day: int,
        n_shards: int,
        n_edges: int,
        n_raw_rows: int,
        n_batches: int,
        n_machines: int,
        n_domains: int,
        n_resolved_domains: int,
        shard_edge_counts: List[int],
    ) -> None:
        self.directory = directory
        self.day = day
        self.n_shards = n_shards
        self.n_edges = n_edges
        self.n_raw_rows = n_raw_rows
        self.n_batches = n_batches
        self.n_machines = n_machines
        self.n_domains = n_domains
        self.n_resolved_domains = n_resolved_domains
        self.shard_edge_counts = shard_edge_counts
        self._res_domains: Optional[np.ndarray] = None
        self._res_offsets: Optional[np.ndarray] = None
        self._res_ips: Optional[np.ndarray] = None

    @classmethod
    def open(cls, directory: str) -> "EdgeStore":
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"{directory}: no {MANIFEST_NAME} — the edge store was never "
                f"finalized or the directory is not an edge store"
            )
        with open(path) as stream:
            manifest = json.load(stream)
        if manifest["format_version"] != EDGESTORE_FORMAT_VERSION:
            raise FormatVersionError(
                manifest["format_version"],
                EDGESTORE_FORMAT_VERSION,
                what="edge store",
            )
        return cls(
            directory,
            day=int(manifest["day"]),
            n_shards=int(manifest["n_shards"]),
            n_edges=int(manifest["n_edges"]),
            n_raw_rows=int(manifest["n_raw_rows"]),
            n_batches=int(manifest["n_batches"]),
            n_machines=int(manifest["n_machines"]),
            n_domains=int(manifest["n_domains"]),
            n_resolved_domains=int(manifest["n_resolved_domains"]),
            shard_edge_counts=[int(count) for count in manifest["shard_edges"]],
        )

    def shard_edges(self, shard: int) -> Tuple[np.ndarray, np.ndarray]:
        """One shard's deduped (machine, domain) arrays, memory-mapped."""
        if not 0 <= shard < self.n_shards:
            raise IndexError(
                f"shard {shard} outside [0, {self.n_shards})"
            )
        em = np.load(
            os.path.join(self.directory, f"{_shard_stem(shard)}.machines.npy"),
            mmap_mode="r",
        )
        ed = np.load(
            os.path.join(self.directory, f"{_shard_stem(shard)}.domains.npy"),
            mmap_mode="r",
        )
        return em, ed

    def _resolution_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._res_domains is None:
            self._res_domains = np.load(
                os.path.join(self.directory, "res.domains.npy"), mmap_mode="r"
            )
            self._res_offsets = np.load(
                os.path.join(self.directory, "res.offsets.npy"), mmap_mode="r"
            )
            self._res_ips = np.load(
                os.path.join(self.directory, "res.ips.npy"), mmap_mode="r"
            )
        return self._res_domains, self._res_offsets, self._res_ips

    def resolved_ips(self, domain_id: int) -> np.ndarray:
        """IPs the domain resolved to this day (empty array if none seen)."""
        found = self.resolutions_for(np.array([domain_id]))
        return found.get(int(domain_id), np.empty(0, dtype=np.uint32))

    def resolutions_for(self, domain_ids: np.ndarray) -> Dict[int, np.ndarray]:
        """Resolution dict for the given ids — the in-memory trace shape."""
        res_domains, res_offsets, res_ips = self._resolution_arrays()
        ids = np.asarray(domain_ids, dtype=np.int64)
        if not ids.size or not res_domains.size:
            return {}
        index = np.minimum(
            np.searchsorted(res_domains, ids), res_domains.size - 1
        )
        found = res_domains[index] == ids
        index = index[found]
        res_ips = np.asarray(res_ips, dtype=np.uint32)  # plain slices below
        return {
            did: res_ips[lo:hi]
            for did, lo, hi in zip(
                ids[found].tolist(),
                res_offsets[index].tolist(),
                res_offsets[index + 1].tolist(),
            )
            if hi > lo
        }


class ShardedDayTrace:
    """A DayTrace-shaped facade over an :class:`EdgeStore`.

    Presents the accessor surface the health checks and pipeline need
    (``day``, ``n_edges``, unique id sets, resolutions) without ever
    materializing the full edge list; ``is_sharded`` is the dispatch flag
    the pipeline keys the out-of-core build on.
    """

    is_sharded = True

    def __init__(
        self, store: EdgeStore, machines: Interner, domains: Interner
    ) -> None:
        # The store is outside input on resume: ids beyond the interners
        # would index past every per-id array the sharded build allocates.
        for kind, n_ids, interner in (
            ("machine", store.n_machines, machines),
            ("domain", store.n_domains, domains),
        ):
            if n_ids > len(interner):
                raise ValueError(
                    f"{store.directory}: edge store spans {kind} ids "
                    f"[0, {n_ids}), outside the interned id space "
                    f"[0, {len(interner)}) — the trace was built against a "
                    f"stale or torn interner"
                )
        self.store = store
        self.machines = machines
        self.domains = domains
        self.day = store.day
        self.directory = store.directory
        self.n_shards = store.n_shards
        self._unique_machines: Optional[np.ndarray] = None
        self._unique_domains: Optional[np.ndarray] = None

    @classmethod
    def open(
        cls, directory: str, machines: Interner, domains: Interner
    ) -> "ShardedDayTrace":
        return cls(EdgeStore.open(directory), machines, domains)

    @classmethod
    def from_day_trace(
        cls,
        trace,
        directory: str,
        *,
        n_shards: int,
        batch_size: int = 65536,
    ) -> "ShardedDayTrace":
        """Shard an in-memory :class:`DayTrace` — batches re-flow through
        the writer exactly as a streamed file would."""
        writer = EdgeStoreWriter(directory, day=trace.day, n_shards=n_shards)
        total = trace.n_edges
        for start in range(0, total, batch_size):
            stop = min(start + batch_size, total)
            writer.add_batch(
                trace.edge_machines[start:stop], trace.edge_domains[start:stop]
            )
        for did in sorted(trace.resolutions):
            ips = trace.resolutions[did]
            writer.add_resolutions(
                np.full(ips.size, did, dtype=np.int64), ips
            )
        writer.finalize(
            n_machines=len(trace.machines), n_domains=len(trace.domains)
        )
        return cls.open(directory, trace.machines, trace.domains)

    @property
    def n_edges(self) -> int:
        return self.store.n_edges

    def unique_machine_ids(self) -> np.ndarray:
        if self._unique_machines is None:
            chunks = []
            for shard in range(self.store.n_shards):
                em, _ = self.store.shard_edges(shard)
                chunks.append(sorted_unique(em))
            self._unique_machines = (
                sorted_unique(np.concatenate(chunks))
                if chunks
                else np.empty(0, dtype=np.int64)
            )
        return self._unique_machines

    def unique_domain_ids(self) -> np.ndarray:
        if self._unique_domains is None:
            chunks = []
            for shard in range(self.store.n_shards):
                _, ed = self.store.shard_edges(shard)
                chunks.append(sorted_unique(ed))
            self._unique_domains = (
                sorted_unique(np.concatenate(chunks))
                if chunks
                else np.empty(0, dtype=np.int64)
            )
        return self._unique_domains

    def resolved_ips(self, domain_id: int) -> np.ndarray:
        return self.store.resolved_ips(domain_id)

    def resolutions_for(self, domain_ids: np.ndarray) -> Dict[int, np.ndarray]:
        return self.store.resolutions_for(domain_ids)

    def __repr__(self) -> str:
        return (
            f"ShardedDayTrace(day={self.day}, edges={self.n_edges}, "
            f"shards={self.n_shards}, dir={self.directory!r})"
        )


def day_store_dir(root: str, day: int) -> str:
    """Where a campaign keeps *day*'s edge store under *root*."""
    return os.path.join(root, f"day-{day:05d}")


def resharded(
    contexts: Iterable, root: str, *, n_shards: int, batch_size: int = 65536
) -> Iterator:
    """Each in-memory day context, its trace moved into a store under *root*."""
    for context in contexts:
        trace = ShardedDayTrace.from_day_trace(
            context.trace,
            day_store_dir(root, context.day),
            n_shards=n_shards,
            batch_size=batch_size,
        )
        yield dataclasses.replace(context, trace=trace)


def staged_day_stores(days_under: Callable[[str], Iterable]) -> Iterator:
    """The sharded day contexts of ``days_under(root)`` under a temporary
    *root*, each day's store — never read again — removed when the consumer
    asks for the next day."""
    with tempfile.TemporaryDirectory(prefix="segugio-shards-") as root:
        for context in days_under(root):
            yield context
            shutil.rmtree(context.trace.directory, ignore_errors=True)
