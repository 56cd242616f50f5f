"""Array primitives shared by the vectorized kernels.

:func:`unique` replaces ``np.unique`` on the hot paths of the frontier
engine, its level store and the vectorized union-find.  NumPy 2.4
routes a plain ``np.unique`` call through a hash table (``_unique_hash``);
on the int64 vertex and pair-key arrays these kernels dedup, that measured
9–48× slower than a sort followed by an adjacent-difference mask (2.7M
keys: 2.8 s against 58 ms on a 2-vCPU Xeon VM).  The sort-based version is
also what older NumPy releases did, so the output is the same everywhere.
"""

from __future__ import annotations

import numpy as np


def unique(a, *, return_counts: bool = False):
    """The sorted distinct values of ``a`` (flattened), like ``np.unique``.

    With ``return_counts=True`` also returns how often each value occurs,
    as ``np.unique(a, return_counts=True)`` does.

    >>> unique(np.array([3, -1, 3, 0])).tolist()
    [-1, 0, 3]
    >>> [x.tolist() for x in unique(np.array([2, 2, 5]), return_counts=True)]
    [[2, 5], [2, 1]]
    """
    s = np.sort(a, axis=None)
    first = np.empty(s.size, dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    values = s[first]
    if not return_counts:
        return values
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, s.size))
    return values, counts
