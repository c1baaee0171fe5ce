"""The IP-abuse oracle behind feature group F3.

Given a pDNS history, an observation day ``t_now``, a lookback window ``W``
(five months in the paper), and the current ground-truth snapshot (which
domains are known malware / known benign), the oracle precomputes:

* the set of IPs that known malware-control domains pointed to during ``W``,
* the set of /24 prefixes containing such IPs,
* the corresponding sets for *unknown* domains (neither malware nor benign).

Per-candidate feature extraction is then four membership counts over the
candidate's (few) resolved IPs.  Membership is NumPy ``searchsorted`` against
sorted unique arrays, so the oracle handles millions of history rows while a
full day of candidate domains is scored in seconds.

:meth:`AbuseOracle.abuse_features_many` batches the whole candidate set:
every candidate's IPs are concatenated into one array tagged with segment
(candidate) offsets, deduplicated per segment in a single sort-based unique
over packed ``(segment, ip)`` keys, matched with one ``searchsorted`` per
abuse set, and reduced back to per-candidate counts with ``np.bincount`` —
one NumPy pass over the day instead of four searches per domain.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.dns.records import prefix24
from repro.pdns.database import PassiveDNSDatabase
from repro.utils.arrays import sorted_unique


def _membership_count(candidates: np.ndarray, sorted_set: np.ndarray) -> int:
    """How many of *candidates* (unique) appear in *sorted_set*."""
    if candidates.size == 0 or sorted_set.size == 0:
        return 0
    idx = np.searchsorted(sorted_set, candidates)
    idx = np.clip(idx, 0, sorted_set.size - 1)
    return int(np.count_nonzero(sorted_set[idx] == candidates))


class AbuseOracle:
    """Precomputed abused-IP-space sets for one (day, window, ground truth)."""

    def __init__(
        self,
        pdns: PassiveDNSDatabase,
        end_day: int,
        window_days: int,
        malware_domain_ids: Iterable[int],
        benign_domain_ids: Iterable[int] = (),
    ) -> None:
        if window_days <= 0:
            raise ValueError(f"window_days must be positive, got {window_days}")
        self.end_day = int(end_day)
        self.window_days = int(window_days)
        start_day = max(end_day - window_days + 1, 0)
        _, domains, ips = pdns.window_records(start_day, end_day)

        malware_set = sorted_unique(
            np.fromiter((int(d) for d in malware_domain_ids), dtype=np.int64)
            if not isinstance(malware_domain_ids, np.ndarray)
            else malware_domain_ids
        )
        benign_set = sorted_unique(
            np.fromiter((int(d) for d in benign_domain_ids), dtype=np.int64)
            if not isinstance(benign_domain_ids, np.ndarray)
            else benign_domain_ids
        )

        is_malware = _in_sorted(domains, malware_set)
        is_benign = _in_sorted(domains, benign_set)
        is_unknown = ~(is_malware | is_benign)

        self._malware_ips, self._malware_ip_sole_owner = _value_owners(
            ips[is_malware], domains[is_malware]
        )
        self._malware_prefixes, self._malware_prefix_sole_owner = _value_owners(
            prefix24(ips[is_malware]), domains[is_malware]
        )
        self._unknown_ips = sorted_unique(ips[is_unknown])
        self._unknown_prefixes = sorted_unique(prefix24(ips[is_unknown]))

    # ------------------------------------------------------------------ #
    # F3 feature queries (per candidate domain)
    # ------------------------------------------------------------------ #

    def abuse_features(
        self, resolved_ips: np.ndarray, exclude_domain: Optional[int] = None
    ) -> Tuple[float, float, float, float]:
        """The four F3 features for a candidate's resolved IP set ``A``.

        Returns ``(frac_malware_ips, frac_malware_prefixes,
        n_unknown_ips, n_unknown_prefixes)``:

        * fraction of IPs in A pointed to by known malware domains during W,
        * fraction of A's /24 prefixes matching malware-pointed IPs,
        * number of A's IPs also used by unknown domains during W,
        * number of A's /24s also used by unknown domains during W.

        ``exclude_domain`` implements Fig. 5 hiding for the evidence base:
        when measuring a *known* malware domain with its label hidden, its
        own history must not count as "pointed to by known malware" — an
        IP/prefix whose sole known-malware user is the candidate itself is
        therefore ignored (abuse evidence must come from *other* domains).
        """
        ips = sorted_unique(np.asarray(resolved_ips, dtype=np.uint32))
        if ips.size == 0:
            return 0.0, 0.0, 0.0, 0.0
        prefixes = sorted_unique(prefix24(ips))
        ip_hits = _membership_count_excluding(
            ips, self._malware_ips, self._malware_ip_sole_owner, exclude_domain
        )
        prefix_hits = _membership_count_excluding(
            prefixes,
            self._malware_prefixes,
            self._malware_prefix_sole_owner,
            exclude_domain,
        )
        frac_ips = ip_hits / ips.size
        frac_prefixes = prefix_hits / prefixes.size
        n_unknown_ips = _membership_count(ips, self._unknown_ips)
        n_unknown_prefixes = _membership_count(prefixes, self._unknown_prefixes)
        return frac_ips, frac_prefixes, float(n_unknown_ips), float(n_unknown_prefixes)

    def abuse_features_many(
        self,
        ip_sets: Sequence[np.ndarray],
        exclude_domains: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The four F3 features for every candidate at once, shape (k, 4).

        ``ip_sets[i]`` is candidate *i*'s resolved-IP array (need not be
        unique or sorted); ``exclude_domains[i]`` is the domain id whose
        sole-owner evidence must be ignored for candidate *i* (Fig. 5
        hiding), or ``-1`` for no exclusion.  Row *i* equals
        ``abuse_features(ip_sets[i], exclude_domain=...)`` bit-for-bit —
        the per-candidate loop survives as the reference implementation in
        the test suite.
        """
        k = len(ip_sets)
        out = np.zeros((k, 4), dtype=np.float64)
        if k == 0:
            return out
        sizes = np.fromiter((a.size for a in ip_sets), dtype=np.int64, count=k)
        if int(sizes.sum()) == 0:
            return out
        if exclude_domains is None:
            exclude = None
        else:
            exclude = np.asarray(exclude_domains, dtype=np.int64)
            if exclude.shape != (k,):
                raise ValueError(
                    f"exclude_domains must have shape ({k},), got {exclude.shape}"
                )

        segments = np.repeat(np.arange(k, dtype=np.int64), sizes)
        ips = np.concatenate(
            [np.asarray(a, dtype=np.uint32) for a in ip_sets]
        )
        # Per-segment dedup in one pass: pack (segment, ip) into int64 —
        # segment in the high 32 bits keeps the unique array segment-sorted.
        seg_ips, ip_seg = _unique_per_segment(ips, segments)
        n_ips = np.bincount(ip_seg, minlength=k)
        prefixes = prefix24(seg_ips)
        seg_prefixes, prefix_seg = _unique_per_segment(prefixes, ip_seg)
        n_prefixes = np.bincount(prefix_seg, minlength=k)

        ip_hits = _membership_counts_segmented(
            seg_ips, ip_seg, k,
            self._malware_ips, self._malware_ip_sole_owner, exclude,
        )
        prefix_hits = _membership_counts_segmented(
            seg_prefixes, prefix_seg, k,
            self._malware_prefixes, self._malware_prefix_sole_owner, exclude,
        )
        unknown_ips = _membership_counts_segmented(
            seg_ips, ip_seg, k, self._unknown_ips, None, None
        )
        unknown_prefixes = _membership_counts_segmented(
            seg_prefixes, prefix_seg, k, self._unknown_prefixes, None, None
        )

        with np.errstate(divide="ignore", invalid="ignore"):
            out[:, 0] = np.where(n_ips > 0, ip_hits / n_ips, 0.0)
            out[:, 1] = np.where(n_prefixes > 0, prefix_hits / n_prefixes, 0.0)
        out[:, 2] = unknown_ips
        out[:, 3] = unknown_prefixes
        return out

    def ip_was_malware_pointed(self, ip: int) -> bool:
        """Exact-IP membership in the abused set (used by FP analysis)."""
        return _membership_count(
            np.asarray([ip], dtype=np.uint32), self._malware_ips
        ) > 0

    def prefix_was_malware_pointed(self, ip: int) -> bool:
        return _membership_count(
            np.asarray([prefix24(int(ip))], dtype=np.uint32),
            self._malware_prefixes,
        ) > 0

    @property
    def n_malware_ips(self) -> int:
        return int(self._malware_ips.size)

    @property
    def n_malware_prefixes(self) -> int:
        return int(self._malware_prefixes.size)

    def __repr__(self) -> str:
        return (
            f"AbuseOracle(end_day={self.end_day}, window={self.window_days}, "
            f"malware_ips={self.n_malware_ips})"
        )


def _value_owners(
    values: np.ndarray, owners: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted unique *values* plus, per value, its sole owning domain.

    The owner entry is the domain id when exactly one distinct domain
    produced the value within the window, and -1 when several did (shared
    infrastructure, which remains evidence even under Fig. 5 hiding).
    """
    if values.size == 0:
        empty_vals = np.empty(0, dtype=values.dtype)
        return empty_vals, np.empty(0, dtype=np.int64)
    # Distinct (value, owner) pairs through one packed int64 key, value
    # high: values are IPv4-sized and owner ids dense, far below 2**31.
    owners = owners.astype(np.int64, copy=False)
    base = int(owners.max()) + 1
    unique_pairs = sorted_unique(values.astype(np.int64) * base + owners)
    unique_values, first_index, counts = np.unique(
        unique_pairs // base, return_index=True, return_counts=True
    )
    sole_owner = np.where(counts == 1, unique_pairs[first_index] % base, -1)
    return unique_values.astype(values.dtype), sole_owner


def _membership_count_excluding(
    candidates: np.ndarray,
    sorted_set: np.ndarray,
    sole_owner: np.ndarray,
    exclude_domain: Optional[int],
) -> int:
    """Members of *sorted_set*, skipping entries solely owned by the
    excluded domain."""
    if candidates.size == 0 or sorted_set.size == 0:
        return 0
    idx = np.searchsorted(sorted_set, candidates)
    idx = np.clip(idx, 0, sorted_set.size - 1)
    hits = sorted_set[idx] == candidates
    if exclude_domain is not None:
        hits &= sole_owner[idx] != int(exclude_domain)
    return int(np.count_nonzero(hits))


def _unique_per_segment(
    values: np.ndarray, segments: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique ``values`` within each segment, with their segment ids.

    Packs ``(segment, value)`` into one int64 key (segment high, value low)
    so a single :func:`sorted_unique` both deduplicates within segments and
    leaves the result ordered by segment — the layout every downstream
    ``np.bincount`` reduction relies on.
    """
    packed = (segments.astype(np.int64) << np.int64(32)) | values.astype(np.int64)
    packed = sorted_unique(packed)
    out_segments = (packed >> np.int64(32)).astype(np.int64)
    out_values = (packed & np.int64(0xFFFFFFFF)).astype(values.dtype)
    return out_values, out_segments


def _membership_counts_segmented(
    values: np.ndarray,
    segments: np.ndarray,
    n_segments: int,
    sorted_set: np.ndarray,
    sole_owner: Optional[np.ndarray],
    exclude_domains: Optional[np.ndarray],
) -> np.ndarray:
    """Per-segment count of ``values`` present in ``sorted_set``.

    One ``searchsorted`` over the whole concatenated candidate array, then
    a weighted ``bincount`` back to per-segment totals.  With
    ``exclude_domains`` (one id per segment, ``-1`` = none), a hit whose
    sole owner is the segment's excluded domain is dropped — the same
    Fig. 5 hiding rule as :func:`_membership_count_excluding`.
    """
    if values.size == 0 or sorted_set.size == 0:
        return np.zeros(n_segments, dtype=np.int64)
    idx = np.searchsorted(sorted_set, values)
    idx = np.clip(idx, 0, sorted_set.size - 1)
    hits = sorted_set[idx] == values
    if exclude_domains is not None and sole_owner is not None:
        excluded = exclude_domains[segments]
        hits &= ~((excluded >= 0) & (sole_owner[idx] == excluded))
    return np.bincount(
        segments, weights=hits.astype(np.float64), minlength=n_segments
    ).astype(np.int64)


def _in_sorted(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Vectorized membership of *values* in sorted unique *sorted_set*."""
    if sorted_set.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(sorted_set, values)
    idx = np.clip(idx, 0, sorted_set.size - 1)
    return sorted_set[idx] == values
