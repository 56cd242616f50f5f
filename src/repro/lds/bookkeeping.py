"""Per-vertex level state and degree counters shared by LDS / PLDS / CPLDS.

For every vertex ``v`` the structure maintains:

* ``level[v]`` — v's current level (the *live level* read by CPLDS readers);
* ``up_deg[v]`` — the number of neighbours ``w`` with ``level[w] >= level[v]``
  (the induced degree in ``Z_{ℓ(v)}``, the quantity bounded by Invariant 1);
* ``down[v]`` — a sparse ``{level: count}`` map of neighbours strictly below
  ``v`` (zero entries pruned), from which Invariant 2 counts and desire
  levels are computed.

``level`` is a plain Python list of ints: element reads and writes are atomic
under the CPython GIL, which is exactly the single-word-read/write atomicity
the paper's algorithm assumes for ``LDS.get_level``.  The counter structures
are only ever touched by the update path, never by readers, so they need no
synchronisation in the single-writer configurations this library runs
(see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import LDSError
from repro.graph.dynamic_graph import DynamicGraph
from repro.lds.params import LDSParams
from repro.types import Vertex


class ObjectLevelStore:
    """Mutable level/degree bookkeeping for all vertices of one graph.

    The class is a pure state holder plus local update rules; the rebalancing
    *policies* (when to move which vertex) live in :class:`~repro.lds.lds.LDS`
    and :class:`~repro.lds.plds.PLDS`.

    This is the ``"object"`` backend of the :class:`~repro.lds.store.LevelStore`
    seam — the original plain-Python representation, kept as the semantic
    reference that the ``"columnar-frontier"`` array store is
    differentially tested against.
    """

    backend = "object"

    __slots__ = ("params", "graph", "level", "up_deg", "down")

    def __init__(self, graph: DynamicGraph, params: LDSParams) -> None:
        if params.num_vertices != graph.num_vertices:
            raise ValueError(
                f"params sized for n={params.num_vertices} but graph has "
                f"n={graph.num_vertices}"
            )
        self.params = params
        self.graph = graph
        n = graph.num_vertices
        self.level: list[int] = [0] * n
        self.up_deg: list[int] = [0] * n
        self.down: list[dict[int, int]] = [dict() for _ in range(n)]
        # Account for any edges already present in the graph (all vertices
        # start at level 0, so every existing neighbour is an up-neighbour).
        for v in range(n):
            self.up_deg[v] = graph.degree(v)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_level(self, v: Vertex) -> int:
        """The live level of ``v`` — a single atomic list read.

        This is the only method on this class that concurrent readers call.
        """
        return self.level[v]

    # ------------------------------------------------------------------
    # Edge bookkeeping (called after the graph itself has been mutated)
    # ------------------------------------------------------------------
    def on_edge_inserted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a newly inserted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] += 1
        else:
            self.down[u][lv] = self.down[u].get(lv, 0) + 1
        if lu >= lv:
            self.up_deg[v] += 1
        else:
            self.down[v][lu] = self.down[v].get(lu, 0) + 1

    def on_edge_deleted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a just-deleted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] -= 1
        else:
            self._dec_down(u, lv)
        if lu >= lv:
            self.up_deg[v] -= 1
        else:
            self._dec_down(v, lu)

    def _dec_down(self, v: Vertex, lvl: int) -> None:
        d = self.down[v]
        c = d[lvl] - 1
        if c:
            d[lvl] = c
        else:
            del d[lvl]

    # ------------------------------------------------------------------
    # Level changes
    # ------------------------------------------------------------------
    def set_level(self, v: Vertex, new_level: int) -> None:
        """Move ``v`` to ``new_level``, fixing all affected counters.

        O(deg(v)).  The live level write happens *last*, after every counter
        is consistent, so a concurrent reader either sees the old or the new
        level with matching semantics (counters are writer-private anyway).
        """
        old = self.level[v]
        if new_level == old:
            return
        if not 0 <= new_level < self.params.num_levels:
            raise ValueError(
                f"new_level {new_level} out of range [0, {self.params.num_levels})"
            )
        level = self.level
        lo, hi = (old, new_level) if old < new_level else (new_level, old)
        moving_up = new_level > old
        down_v = self.down[v]
        for w in self.graph.neighbors_unsafe(v):
            lw = level[w]
            # --- fix w's view of v ---
            was_up = old >= lw  # v counted in up_deg[w] before the move
            is_up = new_level >= lw
            if was_up and not is_up:
                self.up_deg[w] -= 1
                self.down[w][new_level] = self.down[w].get(new_level, 0) + 1
            elif not was_up and is_up:
                self._dec_down(w, old)
                self.up_deg[w] += 1
            elif not was_up and not is_up:
                self._dec_down(w, old)
                self.down[w][new_level] = self.down[w].get(new_level, 0) + 1
            # --- fix v's view of w ---
            if lw >= hi or lw < lo:
                continue  # w stays on the same side of v
            if moving_up:
                # old <= lw < new: w drops out of v's up set.
                self.up_deg[v] -= 1
                down_v[lw] = down_v.get(lw, 0) + 1
            else:
                # new <= lw < old: w joins v's up set.
                self._dec_down(v, lw)
                self.up_deg[v] += 1
        level[v] = new_level

    # ------------------------------------------------------------------
    # Invariant predicates
    # ------------------------------------------------------------------
    def satisfies_invariant1(self, v: Vertex) -> bool:
        """Degree upper bound: ``up_deg(v) <= (2+3/λ)(1+δ)^{group(ℓ)}``.

        Vertices on the top level cannot move up, so they vacuously satisfy
        the invariant (with theory-sized parameters the top level is never
        reached; shallow ``levels_per_group`` overrides can reach it).
        """
        lvl = self.level[v]
        if lvl >= self.params.max_level:
            return True
        return self.up_deg[v] <= self.params.upper_threshold(lvl)

    def satisfies_invariant2(self, v: Vertex) -> bool:
        """Degree lower bound: ``#nbrs at >= ℓ−1`` is at least ``(1+δ)^{group(ℓ−1)}``."""
        lvl = self.level[v]
        if lvl == 0:
            return True
        at_or_above = self.up_deg[v] + self.down[v].get(lvl - 1, 0)
        return at_or_above >= self.params.lower_threshold(lvl)

    def desire_level(self, v: Vertex) -> int:
        """The highest level ``d <= ℓ(v)`` at which ``v`` satisfies Invariant 2.

        Feasibility is downward-closed (lowering ``d`` only adds neighbours to
        the count and weakens the threshold), so the maximum feasible level is
        found by scanning candidate *breakpoints* — the only levels where the
        count or the threshold can change — from high to low.  Breakpoints are
        ``ℓ`` itself, ``key+1`` for every populated down-level, and group
        boundaries; this keeps the scan O(deg + num_groups) instead of O(K).
        """
        lvl = self.level[v]
        if lvl == 0:
            return 0
        params = self.params
        height = params.group_height
        down_v = self.down[v]

        bps = {lvl}
        for key in down_v:
            d = key + 1
            if 1 <= d <= lvl:
                bps.add(d)
        # Threshold drops when d crosses a multiple of the group height.
        g = height
        while g <= lvl:
            bps.add(g)
            g += height

        keys_desc = sorted(down_v, reverse=True)
        ki = 0
        cnt = self.up_deg[v]  # neighbours at >= lvl so far
        for d in sorted(bps, reverse=True):
            # Fold in down-neighbours at levels >= d − 1.
            while ki < len(keys_desc) and keys_desc[ki] >= d - 1:
                cnt += down_v[keys_desc[ki]]
                ki += 1
            if cnt >= params.lower_threshold(d):
                return d
        return 0

    # ------------------------------------------------------------------
    # Consistency checking (test / debug support)
    # ------------------------------------------------------------------
    def recompute_counters(self) -> tuple[list[int], list[dict[int, int]]]:
        """Recompute ``up_deg`` / ``down`` from scratch (for verification)."""
        n = self.graph.num_vertices
        up = [0] * n
        down: list[dict[int, int]] = [dict() for _ in range(n)]
        for v in range(n):
            lv = self.level[v]
            for w in self.graph.neighbors_unsafe(v):
                lw = self.level[w]
                if lw >= lv:
                    up[v] += 1
                else:
                    down[v][lw] = down[v].get(lw, 0) + 1
        return up, down

    def assert_counters_consistent(self) -> None:
        """Raise ``AssertionError`` if any counter drifted from the graph."""
        up, down = self.recompute_counters()
        for v in range(self.graph.num_vertices):
            if up[v] != self.up_deg[v]:
                raise AssertionError(
                    f"up_deg[{v}] = {self.up_deg[v]}, recomputed {up[v]}"
                )
            if down[v] != self.down[v]:
                raise AssertionError(
                    f"down[{v}] = {self.down[v]}, recomputed {down[v]}"
                )

    def levels_snapshot(self) -> list[int]:
        """A copy of all live levels (quiescent use only)."""
        return list(self.level)

    def snapshot_levels(self) -> list[int]:
        """An indexable copy of the live levels (same as the list snapshot)."""
        return list(self.level)

    def apply_edges(
        self, edges: Iterable[tuple[Vertex, Vertex]], kind: str
    ) -> list[tuple[Vertex, Vertex]]:
        """Apply one pre-filtered batch to the graph, then fix counters.

        Callers (PLDS) canonicalise and dedup the batch against the graph
        first, so the whole batch is applied in one call without a second
        canonicalisation pass; the per-edge counter updates are
        order-independent because levels are held fixed while a batch is
        applied.
        """
        batch = list(edges)
        if not batch:
            return batch
        if kind == "insert":
            book_op = self.on_edge_inserted
        elif kind == "delete":
            book_op = self.on_edge_deleted
        else:
            raise ValueError(f"unknown edge-batch kind {kind!r}")
        applied = self.graph._apply_canonical(batch, kind == "insert")
        if applied != len(batch):
            raise LDSError(
                f"apply_edges expects a pre-filtered batch: {len(batch)} "
                f"edges submitted but {applied} applied"
            )
        for u, v in batch:
            book_op(u, v)
        return batch

    # ------------------------------------------------------------------
    # State management (snapshot / restore / reload)
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all levels and recompute counters for the current graph
        (every vertex back at level 0)."""
        n = self.graph.num_vertices
        self.level[:] = [0] * n
        self.down[:] = [dict() for _ in range(n)]
        self.up_deg[:] = [self.graph.degree(v) for v in range(n)]

    def load_levels(self, levels) -> None:
        """Adopt a level assignment and rebuild all counters from the graph."""
        n = self.graph.num_vertices
        lv = [int(x) for x in levels]
        if len(lv) != n:
            raise ValueError(f"expected {n} levels, got {len(lv)}")
        if lv and (min(lv) < 0 or max(lv) >= self.params.num_levels):
            raise ValueError("level assignment out of range")
        self.level[:] = lv
        up, down = self.recompute_counters()
        self.up_deg[:] = up
        self.down[:] = down

    def snapshot(self):
        """A deep-enough copy of the full counter state (levels + degrees)."""
        return (
            list(self.level),
            list(self.up_deg),
            [dict(d) for d in self.down],
        )

    def restore(self, snap) -> None:
        """Restore a :meth:`snapshot` (the snapshot stays reusable).

        ``level``/``up_deg`` are written in place so references held by the
        read hot path stay valid.
        """
        level, up_deg, down = snap
        self.level[:] = level
        self.up_deg[:] = up_deg
        self.down[:] = [dict(d) for d in down]


#: Historical name for the object backend, kept for callers/tests that
#: predate the LevelStore seam.
LevelState = ObjectLevelStore
