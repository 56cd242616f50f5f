"""Sequential Level Data Structure (Bhattacharya et al.; Henzinger et al.).

This is the classic single-update structure the paper's Section 3.1
describes: after each edge insertion or deletion, any vertex violating one of
the two degree invariants moves one level at a time (up for Invariant 1, down
for Invariant 2) until a fixpoint is reached; every move can cascade to
neighbours.  It maintains a (2+ε)-approximate coreness for every vertex.

The PLDS (:mod:`repro.lds.plds`) is the batch-parallel evolution of this
structure and shares its bookkeeping; this sequential version is kept as the
semantic reference — the test suite checks that both end up with levels that
satisfy the same invariants and yield estimates within the same bounds.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import LDSError
from repro.graph.dynamic_graph import DynamicGraph
from repro.lds.params import LDSParams
from repro.lds.store import LevelStore, make_store
from repro.types import Edge, Vertex


class LDS:
    """Sequential LDS over a dynamic graph.

    Parameters
    ----------
    num_vertices:
        Size of the vertex universe.
    params:
        Optional :class:`LDSParams`; defaults to the paper's (δ=0.2, λ=9).
    graph:
        Optional existing :class:`DynamicGraph` to adopt; it must be empty
        (bring edges in through :meth:`insert_edge` so levels stay correct).
    backend:
        Level-store backend name (``"object"`` or ``"columnar-frontier"``);
        see :mod:`repro.lds.store`.

    Examples
    --------
    >>> lds = LDS(5)
    >>> for e in [(0, 1), (0, 2), (1, 2)]:
    ...     _ = lds.insert_edge(*e)
    >>> lds.coreness_estimate(0) >= 1.0
    True
    """

    def __init__(
        self,
        num_vertices: int,
        params: LDSParams | None = None,
        graph: DynamicGraph | None = None,
        backend: str = "object",
    ) -> None:
        if graph is not None and graph.num_edges:
            raise LDSError(
                "adopted graph must be empty; stream edges through insert_edge"
            )
        self.graph = graph if graph is not None else DynamicGraph(num_vertices)
        self.params = params if params is not None else LDSParams(num_vertices)
        self.state: LevelStore = make_store(backend, self.graph, self.params)
        self.backend = self.state.backend
        #: Safety valve for the rebalance fixpoint (theory guarantees
        #: termination; this catches implementation bugs loudly).
        self._max_moves = max(1, num_vertices) * self.params.num_levels * 4 + 64

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def level(self, v: Vertex) -> int:
        """The current level of ``v``."""
        return self.state.get_level(v)

    def coreness_estimate(self, v: Vertex) -> float:
        """The (2+ε)-approximate coreness of ``v`` (Definition 3.1)."""
        return self.params.coreness_estimate(self.state.get_level(v))

    def levels(self) -> list[int]:
        """A snapshot of all levels."""
        return self.state.levels_snapshot()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert ``(u, v)`` and rebalance; ``False`` if already present."""
        if not self.graph.insert_edge(u, v):
            return False
        self.state.on_edge_inserted(u, v)
        self._rebalance({u, v})
        return True

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete ``(u, v)`` and rebalance; ``False`` if absent."""
        if not self.graph.delete_edge(u, v):
            return False
        self.state.on_edge_deleted(u, v)
        self._rebalance({u, v})
        return True

    def insert_edges(self, edges: Iterable[Edge]) -> int:
        """Insert edges one at a time (sequential semantics); return count."""
        return sum(1 for u, v in edges if self.insert_edge(u, v))

    def delete_edges(self, edges: Iterable[Edge]) -> int:
        """Delete edges one at a time; return count."""
        return sum(1 for u, v in edges if self.delete_edge(u, v))

    # ------------------------------------------------------------------
    # CoreEngine adapter surface (see repro.engines)
    # ------------------------------------------------------------------
    def insert_batch(self, edges: Iterable[Edge]) -> int:
        """Engine-protocol alias: sequential one-at-a-time insertion."""
        return self.insert_edges(edges)

    def delete_batch(self, edges: Iterable[Edge]) -> int:
        """Engine-protocol alias: sequential one-at-a-time deletion."""
        return self.delete_edges(edges)

    def read(self, v: Vertex) -> float:
        """Engine-protocol alias for :meth:`coreness_estimate`."""
        return self.coreness_estimate(v)

    def snapshot_state(self) -> dict:
        """Capture the full structure state (graph edges + level store)."""
        return {
            "edges": tuple(self.graph.edges()),
            "store": self.state.snapshot(),
        }

    def restore_state(self, snap: dict) -> None:
        """Restore a :meth:`snapshot_state` capture in place."""
        self.graph.clear()
        self.graph.insert_batch(snap["edges"])
        self.state.restore(snap["store"])

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def _rebalance(self, seeds: set[Vertex]) -> None:
        """Move invariant violators one level at a time until fixpoint.

        The worklist over-approximates: after any move of ``v`` we re-enqueue
        ``v`` and all of its neighbours, which is always sound (a vertex whose
        invariants still hold is simply popped and dropped) and terminates by
        the LDS potential argument.
        """
        state = self.state
        work = set(seeds)
        moves = 0
        while work:
            v = work.pop()
            if not state.satisfies_invariant1(v):
                state.set_level(v, state.level[v] + 1)
            elif not state.satisfies_invariant2(v):
                state.set_level(v, state.level[v] - 1)
            else:
                continue
            moves += 1
            if moves > self._max_moves:
                raise LDSError(
                    "rebalance fixpoint exceeded the theoretical move budget; "
                    "this indicates a bookkeeping bug"
                )
            work.add(v)
            work.update(self.graph.neighbors_unsafe(v))

    # ------------------------------------------------------------------
    # Verification support
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise if any vertex violates Invariant 1 or 2 (quiescent use)."""
        from repro.lds.invariants import check_all_invariants

        check_all_invariants(self.state)
