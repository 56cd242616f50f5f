"""Static CSR (compressed sparse row) snapshot of an undirected graph.

The exact k-core peeling algorithm (:mod:`repro.exact.peeling`) and the
frontier level store's neighbour gathers are the hot numeric kernels in this
library that benefit from contiguous arrays, so following the HPC guidance we
freeze the mutable :class:`DynamicGraph` into a numpy CSR structure before
running them.  The snapshot is immutable by convention: its arrays are
created fresh and never mutated afterwards.

:func:`csr_view` is the cached entry point: it keys the snapshot on the
graph's edge-set version, so repeated callers between mutations (every
``core_decomposition`` / ``degeneracy`` / ``k_core_subgraph`` call in an
analysis session, say) share one set of arrays instead of re-freezing the
graph each time.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

import numpy as np

from repro.errors import VertexOutOfRange
from repro.graph.dynamic_graph import DynamicGraph
from repro.types import Edge, Vertex


class CSRGraph:
    """Immutable CSR adjacency: ``offsets`` (n+1 int64) and ``targets`` (2m int64).

    The neighbours of ``v`` are ``targets[offsets[v]:offsets[v+1]]``, sorted
    ascending for reproducibility and cache-friendly scans.
    """

    __slots__ = ("offsets", "targets", "_n", "_m")

    def __init__(self, offsets: np.ndarray, targets: np.ndarray) -> None:
        self.offsets = offsets
        self.targets = targets
        self._n = len(offsets) - 1
        self._m = len(targets) // 2

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dynamic(cls, g: DynamicGraph) -> "CSRGraph":
        """Snapshot a :class:`DynamicGraph` (single-threaded; call quiescent)."""
        n = g.num_vertices
        adj = [g.neighbors_unsafe(v) for v in range(n)]
        degrees = np.fromiter(map(len, adj), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        targets = np.fromiter(
            chain.from_iterable(adj), dtype=np.int64, count=int(offsets[-1])
        )
        # Sort every row at once: keyed by (row, target), one flat sort
        # keeps the rows in place and orders each row's targets.
        base = np.repeat(np.arange(n, dtype=np.int64) * n, degrees)
        targets += base
        targets.sort()
        targets -= base
        return cls(offsets, targets)

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Edge]) -> "CSRGraph":
        """Build directly from an edge list (duplicates collapsed)."""
        g = DynamicGraph(num_vertices, edges)
        return cls.from_dynamic(g)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    def degree(self, v: Vertex) -> int:
        self._check_vertex(v)
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as an int64 array (a fresh copy)."""
        return np.diff(self.offsets)

    def neighbors(self, v: Vertex) -> np.ndarray:
        """Neighbour slice of ``v`` (a *view*; do not mutate)."""
        self._check_vertex(v)
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < self._n:
            raise VertexOutOfRange(v, self._n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self._n}, m={self._m})"


def csr_view(g: DynamicGraph) -> CSRGraph:
    """A CSR snapshot of ``g``, cached on the graph's edge-set version.

    The first call after any mutation freezes the graph (O(n + m)); every
    further call before the next mutation returns the exact same
    :class:`CSRGraph` object (and therefore the same arrays).  The dirty
    check is one integer comparison, so callers can use this unconditionally
    wherever they previously called :meth:`CSRGraph.from_dynamic`.
    """
    cached = g._csr_cache
    version = g._version
    if cached is not None and cached[0] == version:
        return cached[1]  # type: ignore[return-value]
    csr = CSRGraph.from_dynamic(g)
    g._csr_cache = (version, csr)
    return csr
