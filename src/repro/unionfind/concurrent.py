"""Concurrent union-find: CAS-loop linking with min-id roots.

This follows the structure of the Jayanti–Tarjan concurrent disjoint-set
algorithms the paper reuses via ConnectIt [28, 47]: ``union`` finds the two
roots, then tries to CAS the larger-id root's parent pointer from *self* to
the smaller root, retrying from fresh ``find``s on contention.  A failed
CAS in a path-shortening ``find`` write is simply skipped — some other
thread already installed an equal-or-better parent.

ConnectIt is a *framework* of find strategies; the slice reproduced here
lets ``benchmarks/bench_unionfind.py`` measure the choice the CPLDS depends
on:

* ``naive`` — no writes;
* ``compress`` — full path compression (the default, and what the paper's
  implementation uses);
* ``split`` — path splitting: every node re-points to its grandparent;
* ``halve`` — path halving: every other node re-points.

The link strategy is fixed (deterministic min-id roots are what the
descriptor DAGs need), so every strategy yields the same partition and the
same representatives; they differ in pointer-chase length and write traffic.

Safety properties relied on by the CPLDS descriptor DAGs (and tested in
``tests/test_unionfind.py``):

* the parent graph is acyclic at all times (links always point to a strictly
  smaller root id at link time; path writes only install ancestors);
* once two elements are in the same set they stay in the same set;
* concurrent unions of overlapping sets converge to the same min-id
  representative as a sequential execution of any interleaving.
"""

from __future__ import annotations

from typing import Callable, Literal

from repro.unionfind.atomics import stripe_lock_for

FindStrategy = Literal["naive", "compress", "split", "halve"]

FIND_STRATEGIES: tuple[FindStrategy, ...] = ("naive", "compress", "split", "halve")


class ConcurrentUnionFind:
    """Union-find over ``0..n-1`` safe for concurrent ``union`` and ``find``.

    The parent array is a plain Python list (element loads/stores are
    GIL-atomic); CAS on a slot is emulated with striped locks, per the
    DESIGN.md substitution rules.

    >>> uf = ConcurrentUnionFind(4, find_strategy="halve")
    >>> uf.union(3, 1)
    1
    >>> uf.find(3)
    1
    """

    __slots__ = ("parent", "find_strategy", "_find", "pointer_hops")

    def __init__(self, n: int, find_strategy: FindStrategy = "compress") -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        if find_strategy not in FIND_STRATEGIES:
            raise ValueError(
                f"unknown find strategy {find_strategy!r}; "
                f"choose from {FIND_STRATEGIES}"
            )
        self.parent = list(range(n))
        self.find_strategy = find_strategy
        self._find: Callable[[int], int] = getattr(self, f"_find_{find_strategy}")
        #: Total parent-pointer dereferences (work metric for the bench).
        self.pointer_hops = 0

    # ------------------------------------------------------------------
    # CAS on a parent slot
    # ------------------------------------------------------------------
    def _cas_parent(self, x: int, expected: int, new: int) -> bool:
        with stripe_lock_for(x):
            if self.parent[x] == expected:
                self.parent[x] = new
                return True
            return False

    # ------------------------------------------------------------------
    # Find strategies
    # ------------------------------------------------------------------
    def _find_naive(self, x: int) -> int:
        parent = self.parent
        while True:
            p = parent[x]
            self.pointer_hops += 1
            if p == x:
                return x
            x = p

    def _find_compress(self, x: int) -> int:
        parent = self.parent
        root = x
        while True:
            p = parent[root]
            self.pointer_hops += 1
            if p == root:
                break
            root = p
        # Compress: every traversed node may point at the discovered root.
        # Races are benign — we only overwrite values we just observed, and
        # the observed parent is always an ancestor of the node.
        node = x
        while node != root:
            p = parent[node]
            if p == root:
                break
            self._cas_parent(node, p, root)
            node = p
        return root

    def _find_split(self, x: int) -> int:
        """Path splitting: point every traversed node at its grandparent."""
        parent = self.parent
        while True:
            p = parent[x]
            self.pointer_hops += 1
            if p == x:
                return x
            gp = parent[p]
            if gp != p:
                self._cas_parent(x, p, gp)
            x = p

    def _find_halve(self, x: int) -> int:
        """Path halving: like splitting, but hop to the grandparent."""
        parent = self.parent
        while True:
            p = parent[x]
            self.pointer_hops += 1
            if p == x:
                return x
            gp = parent[p]
            if gp == p:
                return p
            self._cas_parent(x, p, gp)
            x = gp

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def find(self, x: int) -> int:
        """Current representative of ``x`` under the configured strategy.

        Wait-free for a fixed set of completed unions; lock-free in general
        (a retry implies another thread completed a link).
        """
        return self._find(x)

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the representative.

        The retry loop is the standard lock-free pattern: a failed CAS means
        a concurrent link changed one of the roots, so re-``find`` and retry.
        """
        while True:
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                return ra
            winner, loser = (ra, rb) if ra < rb else (rb, ra)
            if self._cas_parent(loser, loser, winner):
                return winner

    def same_set(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are in the same set.

        Only a stable answer when no concurrent unions straddle the call —
        exactly the quiescence the CPLDS guarantees when it queries DAGs.
        """
        return self._find(a) == self._find(b)

    def roots(self) -> list[int]:
        """All current representatives (quiescent use)."""
        return [x for x in range(len(self.parent)) if self.parent[x] == x]
