"""Whole-batch union-find over a numpy parent forest.

The frontier engine (:mod:`repro.core.frontier`) merges dependency DAGs for
*every* move of a batch at once, so the per-call structures in
:mod:`repro.unionfind.sequential` / :mod:`~repro.unionfind.concurrent` become
the bottleneck: one Python-level ``find`` loop per pair.  This module keeps
the same deterministic *min-id root* linking discipline but executes both
operations as array passes:

* :meth:`VectorizedUnionFind.find_many` — vectorized path halving.  Each
  pass replaces every unfinished walker with its grandparent and compresses
  ``parent`` along the way; the number of passes is the maximum tree depth,
  which stays tiny because every pass halves every path it touches.
* :meth:`VectorizedUnionFind.union_pairs` — grouped linking via
  sort + ``reduceat``: resolve both endpoints to roots, sort the (hi, lo)
  root pairs by hi, take the per-group minimum lo with
  ``np.minimum.reduceat``, and point each hi root at that minimum.  Every
  link goes from a larger id to a strictly smaller id, so the forest stays
  acyclic, and iterating to a fixed point yields exactly the components —
  with the same min-id representatives — that pairwise
  :class:`~repro.unionfind.sequential.SequentialUnionFind` unions produce.

The parent array uses the *self-root* convention (``parent[x] == x`` means
root), matching ``np.arange`` initialisation, so a freshly reset forest needs
no sentinel handling.  ``benchmarks/bench_unionfind.py`` measures the
crossover against the sequential baseline.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import unique


class VectorizedUnionFind:
    """Array union-find over ``0..n-1`` with batch ``find`` / ``union``.

    >>> uf = VectorizedUnionFind(6)
    >>> uf.union_pairs(np.array([4, 2]), np.array([5, 4]))
    >>> uf.find_many(np.array([5, 3])).tolist()
    [2, 3]
    """

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self.parent = np.arange(n, dtype=np.int64)

    # ------------------------------------------------------------------
    def find_many(self, xs: np.ndarray) -> np.ndarray:
        """Roots of every element of ``xs``, compressing paths as it goes."""
        parent = self.parent
        roots = np.asarray(xs, dtype=np.int64).copy()
        if roots.size == 0:
            return roots
        while True:
            p = parent[roots]
            done = p == roots
            if done.all():
                return roots
            # Path halving: point each unfinished walker's current node at
            # its grandparent, then step the walker there.
            gp = parent[p]
            live = ~done
            parent[roots[live]] = gp[live]
            roots = np.where(done, roots, gp)

    def find(self, x: int) -> int:
        """Scalar convenience wrapper over :meth:`find_many`."""
        return int(self.find_many(np.array([x], dtype=np.int64))[0])

    # ------------------------------------------------------------------
    def union_pairs(self, a: np.ndarray, b: np.ndarray) -> None:
        """Merge ``a[i]`` with ``b[i]`` for every ``i`` (min-id roots).

        Equivalent to calling ``union(a[i], b[i])`` pairwise in any order:
        min-id linking makes the final representatives order-independent.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.size == 0:
            return
        parent = self.parent
        while True:
            ra = self.find_many(a)
            rb = self.find_many(b)
            ne = ra != rb
            if not ne.any():
                return
            hi = np.maximum(ra[ne], rb[ne])
            lo = np.minimum(ra[ne], rb[ne])
            order = np.argsort(hi, kind="stable")
            hs, ls = hi[order], lo[order]
            starts = np.flatnonzero(np.r_[True, hs[1:] != hs[:-1]])
            gmin = np.minimum.reduceat(ls, starts)
            heads = hs[starts]
            # Each link strictly decreases the id along the chain, so no
            # pass can create a cycle even when groups collide.
            parent[heads] = np.minimum(parent[heads], gmin)

    # ------------------------------------------------------------------
    def reset(self, xs: np.ndarray) -> None:
        """Make every element of ``xs`` a singleton root again."""
        self.parent[xs] = xs

    def num_sets(self) -> int:
        """Number of disjoint sets (O(n); for tests and benchmarks)."""
        n = len(self.parent)
        if n == 0:
            return 0
        roots = self.find_many(np.arange(n, dtype=np.int64))
        return int(unique(roots).size)
