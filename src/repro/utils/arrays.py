"""Integer-array set operations shared by the day's id-space passes."""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, as a fresh 1-d array.

    ``np.sort`` plus one adjacent comparison.  On the installed NumPy a
    flagless ``np.unique`` hashes instead, which measured 10-35x slower on
    the mostly-distinct id and packed-pair keys this code de-duplicates
    (DESIGN §10); the result is element-for-element ``np.unique(values)``.

    Integer and boolean dtypes only: adjacent ``!=`` would keep every NaN
    of a float array, so float call sites stay on ``np.unique``.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iub":
        raise TypeError(
            f"sorted_unique takes integer arrays, got dtype {values.dtype}"
        )
    ordered = np.sort(values, axis=None)
    if ordered.size == 0:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
