"""String interning for graph node identities.

The machine-domain graph holds millions of node identifiers.  Storing and
comparing Python strings at every step would dominate run time, so every
subsystem converts names to dense integer ids through an :class:`Interner`
once, and all downstream computation (adjacency, pruning, feature extraction)
is NumPy integer arithmetic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np


class Interner:
    """A bidirectional string <-> dense-int mapping.

    Ids are assigned sequentially starting at 0, in first-seen order, which
    makes them usable directly as indices into per-node NumPy arrays.
    """

    __slots__ = ("_to_id", "_to_name")

    def __init__(self, names: Optional[Iterable[str]] = None) -> None:
        self._to_id: Dict[str, int] = {}
        self._to_name: List[str] = []
        if names is not None:
            for name in names:
                self.intern(name)

    def intern(self, name: str) -> int:
        """Return the id for *name*, assigning a new one if unseen."""
        existing = self._to_id.get(name)
        if existing is not None:
            return existing
        new_id = len(self._to_name)
        self._to_id[name] = new_id
        self._to_name.append(name)
        return new_id

    def intern_many(self, names: Iterable[str]) -> np.ndarray:
        """Intern every name and return the ids as an int64 array.

        One ``map`` over the dict when every name is already known; the
        in-order :meth:`intern` loop only when some name is new.
        """
        names = names if isinstance(names, (list, tuple)) else list(names)
        try:
            ids = map(self._to_id.__getitem__, names)
            return np.fromiter(ids, dtype=np.int64, count=len(names))
        except KeyError:
            ids = map(self.intern, names)
            return np.fromiter(ids, dtype=np.int64, count=len(names))

    def lookup(self, name: str) -> Optional[int]:
        """Return the id for *name*, or None if it was never interned."""
        return self._to_id.get(name)

    def name(self, node_id: int) -> str:
        return self._to_name[node_id]

    def names(self, node_ids: Iterable[int]) -> List[str]:
        return [self._to_name[node_id] for node_id in node_ids]

    def __contains__(self, name: str) -> bool:
        return name in self._to_id

    def __len__(self) -> int:
        return len(self._to_name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._to_name)

    def __repr__(self) -> str:
        return f"Interner(size={len(self)})"
