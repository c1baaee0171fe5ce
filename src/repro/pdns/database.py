"""Append-only passive-DNS history store.

Rows are ``(day, domain_id, ip)`` observations — "domain *d* resolved to IP
*i* on day *t* somewhere in the monitored infrastructure".  Domain ids come
from the same interner used by the traffic traces, so the graph, the activity
index, and the pDNS history share one id space.

The store is columnar: three parallel NumPy arrays, appended per day and
kept sorted by day, which makes time-window slicing a pair of binary
searches.  This is the access pattern both the F3 features and the Notos
baseline need (everything they compute is over "the W days preceding t_now").
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

import numpy as np

from repro.utils.arrays import sorted_unique


class PassiveDNSDatabase:
    """Time-indexed (day, domain, ip) resolution history."""

    def __init__(self) -> None:
        self._day_chunks: List[np.ndarray] = []
        self._domain_chunks: List[np.ndarray] = []
        self._ip_chunks: List[np.ndarray] = []
        self._last_day: int = -1
        self._finalized: Union[
            Tuple[np.ndarray, np.ndarray, np.ndarray], None
        ] = None

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def observe_day(
        self,
        day: int,
        domain_ids: Union[np.ndarray, Iterable[int]],
        ips: Union[np.ndarray, Iterable[int]],
    ) -> None:
        """Append one day's resolutions (parallel domain/ip arrays).

        Days must be fed in non-decreasing order so the store stays sorted.
        """
        domain_arr = np.asarray(
            list(domain_ids) if not isinstance(domain_ids, np.ndarray) else domain_ids,
            dtype=np.int64,
        )
        ip_arr = np.asarray(
            list(ips) if not isinstance(ips, np.ndarray) else ips,
            dtype=np.uint32,
        )
        if domain_arr.shape != ip_arr.shape:
            raise ValueError("domain_ids and ips must be parallel arrays")
        if day < self._last_day:
            raise ValueError(
                f"days must be appended in order; got {day} after {self._last_day}"
            )
        if domain_arr.size == 0:
            self._last_day = day
            return
        self._day_chunks.append(np.full(domain_arr.size, day, dtype=np.int32))
        self._domain_chunks.append(domain_arr)
        self._ip_chunks.append(ip_arr)
        self._last_day = day
        self._finalized = None

    def observe(self, day: int, domain_id: int, ips: Iterable[int]) -> None:
        """Convenience single-domain ingestion."""
        ip_list = list(ips)
        self.observe_day(day, [domain_id] * len(ip_list), ip_list)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._finalized is None:
            if self._day_chunks:
                days = np.concatenate(self._day_chunks)
                domains = np.concatenate(self._domain_chunks)
                ips = np.concatenate(self._ip_chunks)
            else:
                days = np.empty(0, dtype=np.int32)
                domains = np.empty(0, dtype=np.int64)
                ips = np.empty(0, dtype=np.uint32)
            self._finalized = (days, domains, ips)
        return self._finalized

    def window_records(
        self, start_day: int, end_day: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All (days, domain_ids, ips) with ``start_day <= day <= end_day``."""
        if start_day > end_day:
            raise ValueError(f"empty window [{start_day}, {end_day}]")
        days, domains, ips = self._columns()
        lo = np.searchsorted(days, start_day, side="left")
        hi = np.searchsorted(days, end_day, side="right")
        return days[lo:hi], domains[lo:hi], ips[lo:hi]

    def domain_ips_in_window(
        self, domain_id: int, start_day: int, end_day: int
    ) -> np.ndarray:
        """Unique IPs a single domain resolved to within the window."""
        _, domains, ips = self.window_records(start_day, end_day)
        return sorted_unique(ips[domains == domain_id])

    @property
    def n_records(self) -> int:
        return int(sum(chunk.size for chunk in self._day_chunks))

    @property
    def last_day(self) -> int:
        return self._last_day

    def __len__(self) -> int:
        return self.n_records

    def __repr__(self) -> str:
        return (
            f"PassiveDNSDatabase(records={self.n_records}, "
            f"last_day={self._last_day})"
        )
