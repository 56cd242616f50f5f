"""Batch vertex insertions/deletions on top of edge batches.

The paper focuses on edge updates "for simplicity, but most batch-dynamic
solutions can be modified to support vertex updates as well" (footnote 1).
This module is that modification: the vertex universe stays preallocated
(ids in ``[0, capacity)``), vertices toggle between *active* and *inactive*,
and vertex-level batches are compiled down to the edge batches the CPLDS
already handles — so linearizability of reads carries over unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.cplds import ReadResult
from repro.errors import VertexOutOfRange, WorkloadError
from repro.lds.params import LDSParams
from repro.types import Edge, Vertex


class VertexUpdatableKCore:
    """A CPLDS with vertex-granularity batch updates.

    Parameters
    ----------
    capacity:
        Maximum number of vertex ids, fixed for the structure's lifetime
        (matching the paper's fixed vertex universe).
    params:
        Optional :class:`LDSParams` (sized for ``capacity``).
    backend:
        Level-store backend for the underlying engine (``"object"`` or
        ``"columnar-frontier"``).

    Examples
    --------
    >>> ku = VertexUpdatableKCore(10)
    >>> ku.insert_vertices([(0, []), (1, [0]), (2, [0, 1])])
    3
    >>> ku.num_active
    3
    >>> ku.delete_vertices([0])
    2
    >>> ku.is_active(0)
    False
    """

    def __init__(
        self,
        capacity: int,
        params: LDSParams | None = None,
        *,
        backend: str = "object",
    ) -> None:
        from repro import engines

        self.cplds = engines.create(
            "cplds", capacity, params=params, backend=backend
        )
        self.capacity = capacity
        self._active: list[bool] = [False] * capacity

    # ------------------------------------------------------------------
    # Vertex-batch updates
    # ------------------------------------------------------------------
    def insert_vertices(
        self, vertices: Iterable[tuple[Vertex, Sequence[Vertex]]]
    ) -> int:
        """Activate a batch of vertices, each with its incident edges.

        Each entry is ``(v, neighbours)``; every neighbour must be already
        active or appear anywhere in the same batch (the batch activates
        collectively, like the paper's collectively-executed edge batches).
        Returns the number of edges inserted.
        """
        batch = list(vertices)
        activating = []
        edges: list[Edge] = []
        pending_active: set[Vertex] = set()
        for v, _nbrs in batch:
            self._check_vertex(v)
            if self._active[v] or v in pending_active:
                raise WorkloadError(f"vertex {v} is already active")
            pending_active.add(v)
        for v, nbrs in batch:
            for w in nbrs:
                self._check_vertex(w)
                if not (self._active[w] or w in pending_active):
                    raise WorkloadError(
                        f"vertex {v} lists inactive neighbour {w}"
                    )
                edges.append((v, w))
            activating.append(v)
        applied = self.cplds.insert_batch(edges) if edges else 0
        for v in activating:
            self._active[v] = True
        return applied

    def delete_vertices(self, vertices: Iterable[Vertex]) -> int:
        """Deactivate a batch of vertices, removing all incident edges.

        Returns the number of edges removed.
        """
        victims = list(vertices)
        edges: list[Edge] = []
        for v in victims:
            self._check_vertex(v)
            if not self._active[v]:
                raise WorkloadError(f"vertex {v} is not active")
            for w in self.cplds.graph.neighbors(v):
                edges.append((v, w))
        applied = self.cplds.delete_batch(edges) if edges else 0
        for v in victims:
            self._active[v] = False
        return applied

    # ------------------------------------------------------------------
    # Edge updates still available
    # ------------------------------------------------------------------
    def insert_edges(self, edges: Iterable[Edge]) -> int:
        """Edge batch between active vertices."""
        batch = list(edges)
        for u, v in batch:
            if not (self.is_active(u) and self.is_active(v)):
                raise WorkloadError(f"edge ({u}, {v}) touches inactive vertex")
        return self.cplds.insert_batch(batch)

    def delete_edges(self, edges: Iterable[Edge]) -> int:
        return self.cplds.delete_batch(list(edges))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, v: Vertex) -> float:
        """Linearizable coreness estimate; inactive vertices read as 0."""
        if not self._active[v]:
            return 0.0
        return self.cplds.read(v)

    def read_verbose(self, v: Vertex) -> ReadResult:
        return self.cplds.read_verbose(v)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def is_active(self, v: Vertex) -> bool:
        self._check_vertex(v)
        return self._active[v]

    @property
    def num_active(self) -> int:
        return sum(self._active)

    @property
    def graph(self):
        return self.cplds.graph

    def check_invariants(self) -> None:
        self.cplds.check_invariants()
        for v in range(self.capacity):
            if not self._active[v] and self.cplds.graph.degree(v):
                raise AssertionError(
                    f"inactive vertex {v} still has incident edges"
                )

    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < self.capacity:
            raise VertexOutOfRange(v, self.capacity)
