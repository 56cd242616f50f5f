"""Mutable undirected graph with batch edge updates.

This is the substrate the level data structures are maintained against.  It
plays the role of GBBS's dynamic graph representation in the paper's C++
implementation: adjacency is stored per vertex, batches of insertions or
deletions are applied collectively, and duplicate/conflicting updates inside a
batch are filtered exactly as the paper's pre-processing step prescribes
("batches contain a mix of insertions and deletions, which are separated into
insertion and deletion sub-batches during pre-processing").

Design notes
------------
Adjacency is a ``list[set[int]]``.  Sets give O(1) membership tests (needed by
strict-mode validation and by the LDS bookkeeping which must ask "is w a
neighbour of v" during cascades) at the cost of memory; the static snapshot
:class:`repro.graph.csr.CSRGraph` provides the cache-friendly numpy view used
by the exact peeling algorithm, following the HPC guidance of keeping hot
numeric kernels on contiguous arrays while leaving mutation to flexible
containers.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.errors import EdgeStateError, SelfLoopError, VertexOutOfRange
from repro.types import Edge, EdgeBatch, Vertex


class DynamicGraph:
    """An undirected simple graph over a fixed vertex set ``[0, n)``.

    Parameters
    ----------
    num_vertices:
        Size of the vertex universe.  Matching the paper, the vertex set is
        fixed up front and only edges change dynamically.
    edges:
        Optional initial edges; duplicates are ignored.

    Examples
    --------
    >>> g = DynamicGraph(4, edges=[(0, 1), (1, 2)])
    >>> g.num_edges
    2
    >>> g.insert_batch([(2, 3), (0, 2)])
    2
    >>> sorted(g.neighbors(2))
    [0, 1, 3]
    """

    __slots__ = ("_n", "_adj", "_m", "_version", "_csr_cache")

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = num_vertices
        self._adj: list[set[Vertex]] = [set() for _ in range(num_vertices)]
        self._m = 0
        #: Monotonic edge-set version: bumped whenever the edge set actually
        #: changes.  Consumers holding derived views (the cached CSR snapshot,
        #: the frontier store's edge arrays) compare against it to decide
        #: between an incremental update and a full resync.
        self._version = 0
        #: ``(version, CSRGraph)`` cache slot for :func:`repro.graph.csr.csr_view`.
        self._csr_cache: tuple[int, object] | None = None
        inserted = self.insert_batch(edges)
        del inserted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the (fixed) vertex universe."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges currently present."""
        return self._m

    @property
    def version(self) -> int:
        """Monotonic edge-set version (bumps only on actual changes)."""
        return self._version

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        """A read-only view of ``v``'s neighbourhood.

        Returned as a ``frozenset`` copy so concurrent readers can iterate
        safely while an update batch mutates the underlying sets.
        """
        self._check_vertex(v)
        return frozenset(self._adj[v])

    def neighbors_unsafe(self, v: Vertex) -> set[Vertex]:
        """The live adjacency set of ``v`` — no copy, no bounds check.

        Only for single-threaded hot loops inside the level data structures;
        mutating it directly corrupts the edge count.
        """
        return self._adj[v]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether edge ``(u, v)`` is currently present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical ``(min, max)`` form."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` int64 array, rows in :meth:`edges`
        order (one pass over the adjacency sets, no per-edge Python work)."""
        adj = self._adj
        degrees = np.fromiter(map(len, adj), dtype=np.int64, count=self._n)
        targets = np.fromiter(
            chain.from_iterable(adj), dtype=np.int64, count=2 * self._m
        )
        sources = np.repeat(np.arange(self._n, dtype=np.int64), degrees)
        keep = sources < targets
        return np.stack([sources[keep], targets[keep]], axis=1)

    def copy(self) -> "DynamicGraph":
        """An independent deep copy of the current graph state."""
        g = DynamicGraph(self._n)
        g._adj = [set(s) for s in self._adj]
        g._m = self._m
        return g

    def clear(self) -> None:
        """Remove every edge, keeping the vertex universe and the adjacency
        set objects (live references from hot loops stay valid)."""
        for s in self._adj:
            s.clear()
        self._m = 0
        self._version += 1

    # ------------------------------------------------------------------
    # Batch mutation
    # ------------------------------------------------------------------
    def insert_batch(self, edges: EdgeBatch | Iterable[Edge], *, strict: bool = False) -> int:
        """Insert a batch of edges; return how many were actually new.

        Already-present edges are skipped (or rejected with
        :class:`~repro.errors.EdgeStateError` when ``strict``), matching the
        batch pre-processing in the paper's framework.
        """
        return self._apply_canonical(self._canonical_batch(edges), True, strict)

    def delete_batch(self, edges: EdgeBatch | Iterable[Edge], *, strict: bool = False) -> int:
        """Delete a batch of edges; return how many were actually removed."""
        return self._apply_canonical(self._canonical_batch(edges), False, strict)

    def _apply_canonical(
        self, edges: Iterable[Edge], insert: bool, strict: bool = False
    ) -> int:
        """Insert (``insert``) or delete a batch that is already canonical:
        every edge ``u < v``, in range, listed once — what
        :meth:`_canonical_batch` and the filters return, or a decoded
        checkpoint.  Edges already present (absent, for a delete) are
        skipped, or raise :class:`~repro.errors.EdgeStateError` when
        ``strict``, before any edge is applied; returns how many edges
        changed."""
        adj = self._adj
        if strict:
            edges = list(edges)
            for u, v in edges:
                if (v in adj[u]) == insert:
                    state = "already present" if insert else "not present"
                    raise EdgeStateError(f"edge ({u}, {v}) {state}")
        count = 0
        if insert:
            for u, v in edges:
                row = adj[u]
                if v in row:
                    continue
                row.add(v)
                adj[v].add(u)
                count += 1
            self._m += count
        else:
            for u, v in edges:
                row = adj[u]
                if v not in row:
                    continue
                row.discard(v)
                adj[v].discard(u)
                count += 1
            self._m -= count
        if count:
            self._version += 1
        return count

    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert one edge; return ``True`` if it was new."""
        return self.insert_batch([(u, v)]) == 1

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete one edge; return ``True`` if it was present."""
        return self.delete_batch([(u, v)]) == 1

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def filter_new_edges(self, edges: Iterable[Edge]) -> list[Edge]:
        """Canonical sub-batch of ``edges`` not already in the graph.

        Validates every endpoint before returning (see
        :meth:`_canonical_batch`), so a caller that filters before it
        mutates never half-applies a batch with a bad edge in it.
        """
        adj = self._adj
        return [e for e in self._canonical_batch(edges) if e[1] not in adj[e[0]]]

    def filter_present_edges(
        self, edges: Iterable[Edge], inserted: Iterable[Edge] = ()
    ) -> list[Edge]:
        """Canonical sub-batch of ``edges`` currently in the graph, or in
        ``inserted`` (edges the caller inserts before deleting these).

        Validates every endpoint, like :meth:`filter_new_edges`.
        """
        adj = self._adj
        pending = set(inserted)
        return [
            e
            for e in self._canonical_batch(edges)
            if e[1] in adj[e[0]] or e in pending
        ]

    def _canonical_batch(self, edges: Iterable[Edge]) -> list[Edge]:
        """:func:`~repro.types.canonicalize_batch` that also validates.

        Raises :class:`~repro.errors.VertexOutOfRange` or
        :class:`~repro.errors.SelfLoopError` for the first bad edge, after
        reading the batch and before anything is mutated.
        """
        n = self._n
        seen: set[Edge] = set()
        out: list[Edge] = []
        for u, v in edges:
            if u > v:
                u, v = v, u
            if u < 0 or v >= n or u == v:
                self._check_edge_endpoints(u, v)
            e = (u, v)
            if e not in seen:
                seen.add(e)
                out.append(e)
        return out

    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < self._n:
            raise VertexOutOfRange(v, self._n)

    def _check_edge_endpoints(self, u: Vertex, v: Vertex) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(u)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicGraph(n={self._n}, m={self._m})"
