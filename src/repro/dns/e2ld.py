"""Incremental domain-id -> effective-2LD-id mapping.

Several parts of the system reason at e2LD granularity: pruning rule R4
("discard domains whose effective 2LD is queried by >= theta_m machines"),
the e2LD half of the F2 activity features, and the false-positive analysis
of Table III.  Computing e2LDs through the PSL is string work, so this index
does it once per distinct FQD and exposes the result as a dense int array
aligned with the domain interner — NumPy-indexable like every other per-node
annotation.

The index grows lazily as the shared domain interner grows (new domains
appear every day), and e2LDs get their own interner/id space.

This is also the one place every interned domain name is read.  Loaders
intern names as written (see :mod:`repro.dns.names`), so while it
canonicalises a name for the PSL the index notes the — normally zero — ids
whose interned spelling is not canonical; the label pass needs them to
match such a name against the blacklist.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.dns.names import normalize_domain
from repro.dns.publicsuffix import PublicSuffixList
from repro.utils.ids import Interner


class E2ldIndex:
    """Dense mapping from FQD ids to e2LD ids, kept in sync with an interner."""

    def __init__(
        self, domains: Interner, psl: Optional[PublicSuffixList] = None
    ) -> None:
        self._domains = domains
        self._psl = psl if psl is not None else PublicSuffixList()
        self.e2lds = Interner()
        # the first _n_mapped slots of a buffer that doubles when full
        self._mapping = np.empty(0, dtype=np.int64)
        self._n_mapped = 0
        #: canonical name -> the ids interned under another spelling of it
        #: (mixed case, trailing dot, padding), for the ids mapped so far
        self.noncanonical: Dict[str, List[int]] = {}

    def _ensure(self, n: int) -> None:
        """Extend the mapping to cover domain ids < n."""
        start = self._n_mapped
        if n > self._mapping.size:
            grown = np.empty(max(n, 2 * self._mapping.size), dtype=np.int64)
            grown[:start] = self._mapping[:start]
            self._mapping = grown
        for domain_id in range(start, n):
            name = self._domains.name(domain_id)
            canonical = normalize_domain(name)
            if canonical != name:
                self.noncanonical.setdefault(canonical, []).append(domain_id)
            e2ld = self._psl.e2ld_or_self(canonical)
            self._mapping[domain_id] = self.e2lds.intern(e2ld)
            self._n_mapped = domain_id + 1

    def e2ld_id_of(self, domain_id: int) -> int:
        """The e2LD id for one FQD id."""
        self._ensure(domain_id + 1)
        return int(self._mapping[domain_id])

    def e2ld_of(self, domain_id: int) -> str:
        """The e2LD string for one FQD id."""
        return self.e2lds.name(self.e2ld_id_of(domain_id))

    def map_array(self) -> np.ndarray:
        """int64 array aligned with the domain interner: FQD id -> e2LD id.

        A read-only view of the index's own storage, not a copy.
        """
        self._ensure(len(self._domains))
        view = self._mapping[: self._n_mapped]
        view.flags.writeable = False
        return view

    @property
    def psl(self) -> PublicSuffixList:
        return self._psl

    def __len__(self) -> int:
        self._ensure(len(self._domains))
        return len(self.e2lds)

    def __repr__(self) -> str:
        return f"E2ldIndex(domains={len(self._domains)}, e2lds={len(self.e2lds)})"
