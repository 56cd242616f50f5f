"""PLDS: parallel batch-dynamic level data structure (Liu et al., SPAA 2022).

Updates arrive in batches; each batch has an insertion phase and a deletion
phase.  The insertion phase sweeps levels in increasing order moving
Invariant-1 violators up one level per round; the deletion phase repeatedly
moves every vertex whose *desire level* equals the current minimum down to
that level.  Both phases process each round "in parallel" through an
:class:`~repro.runtime.executor.Executor`.

Parallel-round safety
---------------------
Rounds are split into a read-only *decision* step (which vertices violate an
invariant / what is each desire level), which the executor may genuinely run
concurrently, and a mutation step applying the level changes, which runs on
the calling thread.  This mirrors the real PLDS, whose concurrent counter
updates are aggregated with atomics; see DESIGN.md for why the Python port
serialises the mutation step.

Hooks
-----
:class:`UpdateHooks` is the extension seam the CPLDS plugs into: it observes
batch boundaries and is called *before* each level change, which is exactly
where the paper's marking step (Algorithm 2) must run so that a vertex's
descriptor is published before its live level moves.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Literal, Sequence

from repro.errors import LDSError
from repro.graph.dynamic_graph import DynamicGraph
from repro.lds.params import LDSParams
from repro.lds.store import LevelStore, make_store
from repro.obs import COUNT_BUCKETS, REGISTRY as _OBS
from repro.obs.flightrec import RECORDER as _REC, EventType as _EV
from repro.runtime.executor import Executor, SequentialExecutor
from repro.types import Edge, Vertex

Phase = Literal["insert", "delete"]

# Handles looked up once; MetricsRegistry.reset() zeroes them in place, so
# caching stays correct across test resets.  Every use is guarded by
# ``_OBS.enabled`` — the disabled hot path costs one branch.
_MOVES = _OBS.counter("plds_moves_total")
_ROUNDS = _OBS.counter("plds_rounds_total")
_ROUNDS_HIST = _OBS.histogram("plds_rounds_per_batch", COUNT_BUCKETS)
_MOVES_HIST = _OBS.histogram("plds_moves_per_batch", COUNT_BUCKETS)


class UpdateHooks:
    """No-op hook base; override any subset of the callbacks.

    The CPLDS overrides all of them; tests override :meth:`round_boundary`
    to inject reads at deterministic points inside a batch.
    """

    #: Hooks that can consume whole-frontier move notifications (arrays of
    #: movers plus their gathered neighbour rows) set this to True; the
    #: frontier round driver then skips the per-vertex ``before_move`` loop.
    #: See :class:`repro.core.frontier.FrontierMarkingHooks`.
    supports_bulk_moves = False

    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        """Called once per phase, after edges are applied to the graph."""

    def before_move(self, v: Vertex, old_level: int, new_level: int, phase: Phase) -> None:
        """Called immediately before ``v``'s live level changes."""

    def round_boundary(self) -> None:
        """Called after every parallel round inside a phase."""

    def batch_end(self) -> None:
        """Called once per phase, after the last level change."""


class PLDS:
    """Batch-dynamic approximate k-core structure.

    Parameters
    ----------
    num_vertices:
        Size of the (fixed) vertex universe.
    params:
        :class:`LDSParams`; defaults to the paper's (δ=0.2, λ=9) with
        theory-sized groups.
    executor:
        Round executor; defaults to :class:`SequentialExecutor`.
    hooks:
        :class:`UpdateHooks` for batch instrumentation (CPLDS marking).
    backend:
        Level-store backend name (``"object"`` or ``"columnar-frontier"``);
        see :mod:`repro.lds.store`.

    Examples
    --------
    >>> plds = PLDS(6)
    >>> plds.batch_insert([(0, 1), (1, 2), (0, 2), (3, 4)])
    4
    >>> plds.coreness_estimate(0) >= plds.coreness_estimate(3)
    True
    """

    def __init__(
        self,
        num_vertices: int,
        params: LDSParams | None = None,
        graph: DynamicGraph | None = None,
        executor: Executor | None = None,
        hooks: UpdateHooks | None = None,
        backend: str = "object",
    ) -> None:
        if graph is not None and graph.num_edges:
            raise LDSError(
                "adopted graph must be empty; stream edges through batches"
            )
        self.graph = graph if graph is not None else DynamicGraph(num_vertices)
        self.params = params if params is not None else LDSParams(num_vertices)
        self.state: LevelStore = make_store(backend, self.graph, self.params)
        self.backend = self.state.backend
        self.executor: Executor = executor if executor is not None else SequentialExecutor()
        self.hooks: UpdateHooks = hooks if hooks is not None else UpdateHooks()
        #: Move/round counters for the last executed batch (bench telemetry).
        self.last_batch_moves = 0
        self.last_batch_rounds = 0
        self._move_budget = max(1, num_vertices) * self.params.num_levels * 4 + 64

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def level(self, v: Vertex) -> int:
        """Current level of ``v`` (atomic list read)."""
        return self.state.get_level(v)

    def coreness_estimate(self, v: Vertex) -> float:
        """Current (2+ε)-approximate coreness of ``v``."""
        return self.params.coreness_estimate(self.state.get_level(v))

    def levels(self) -> list[int]:
        """Snapshot of all levels (quiescent use)."""
        return self.state.levels_snapshot()

    # ------------------------------------------------------------------
    # Batch updates
    # ------------------------------------------------------------------
    def batch_insert(self, edges: Iterable[Edge]) -> int:
        """Apply a batch of insertions; return the number of new edges.

        The filter validates every edge first: an out-of-range or self-loop
        edge raises before the graph, levels or counters change.
        """
        batch = self.graph.filter_new_edges(edges)
        self._reset_batch_counters()
        self._insert_phase(batch)
        return len(batch)

    def batch_delete(self, edges: Iterable[Edge]) -> int:
        """Apply a batch of deletions; return the number of removed edges."""
        batch = self.graph.filter_present_edges(edges)
        self._reset_batch_counters()
        self._delete_phase(batch)
        return len(batch)

    # CoreEngine aliases (see repro.engines.base).
    def insert_batch(self, edges: Iterable[Edge]) -> int:
        return self.batch_insert(edges)

    def delete_batch(self, edges: Iterable[Edge]) -> int:
        return self.batch_delete(edges)

    def read(self, v: Vertex) -> float:
        return self.coreness_estimate(v)

    def apply_batch(
        self, insertions: Iterable[Edge] = (), deletions: Iterable[Edge] = ()
    ) -> tuple[int, int]:
        """Mixed batch: pre-processed into an insertion and a deletion phase.

        Mirrors the paper's pre-processing ("batches contain a mix of
        insertions and deletions, which are separated into insertion and
        deletion sub-batches").  Edges appearing in both sub-batches are
        treated as insert-then-delete.
        """
        # Both sub-batches are filtered, which validates them, before either
        # phase mutates anything; an edge in both counts as present for the
        # deletion filter because the insertion phase runs first.
        ins = self.graph.filter_new_edges(insertions)
        dels = self.graph.filter_present_edges(deletions, inserted=ins)
        self._reset_batch_counters()
        if ins:
            self._insert_phase(ins)
        if dels:
            self._delete_phase(dels)
        return len(ins), len(dels)

    def _reset_batch_counters(self) -> None:
        self.last_batch_moves = 0
        self.last_batch_rounds = 0

    # ------------------------------------------------------------------
    # Insertion phase: bottom-up sweep of Invariant-1 violators
    # ------------------------------------------------------------------
    def _insert_phase(self, batch: Sequence[Edge]) -> None:
        state = self.state
        moves0, rounds0 = self.last_batch_moves, self.last_batch_rounds
        with _OBS.span("plds.insert_phase") as sp:
            applied = state.apply_edges(batch, "insert")
            self._run_insert_rounds(applied)
            if _OBS.enabled:
                moved = self.last_batch_moves - moves0
                rounds = self.last_batch_rounds - rounds0
                sp.set(edges=len(applied), moves=moved, rounds=rounds)
                _MOVES_HIST.observe(moved)
                _ROUNDS_HIST.observe(rounds)

    def _run_insert_rounds(self, applied: Sequence[Edge]) -> None:
        state = self.state
        if getattr(state, "supports_frontier", False):
            # The columnar-frontier store runs the whole phase as numpy
            # array passes (same rounds, same counters — differentially
            # pinned); see repro.core.frontier.
            from repro.core.frontier import run_insert_rounds

            run_insert_rounds(self, applied)
            return
        self.hooks.batch_begin("insert", applied)
        try:
            pending: dict[int, set[Vertex]] = {}
            heap: list[int] = []

            def enqueue(v: Vertex, lvl: int) -> None:
                bucket = pending.get(lvl)
                if bucket is None:
                    pending[lvl] = {v}
                    heapq.heappush(heap, lvl)
                else:
                    bucket.add(v)

            for u, v in applied:
                enqueue(u, int(state.level[u]))
                enqueue(v, int(state.level[v]))

            max_level = self.params.max_level
            while heap:
                lvl = heapq.heappop(heap)
                cand = pending.pop(lvl, None)
                if cand is None:
                    continue
                movers = self._decide_inv1_violators(
                    [v for v in cand if state.level[v] == lvl]
                )
                if not movers or lvl >= max_level:
                    # Top-level vertices cannot move up (only reachable with
                    # shallow levels_per_group overrides; see LDSParams).
                    continue
                new_level = lvl + 1
                for v in movers:
                    self.hooks.before_move(v, lvl, new_level, "insert")
                    state.set_level(v, new_level)
                self._count_moves(len(movers))
                # Movers re-check at the next level; their new same-level
                # neighbours gained an up-neighbour and must re-check too.
                for v in movers:
                    enqueue(v, new_level)
                    for w in self.graph.neighbors_unsafe(v):
                        if state.level[w] == new_level:
                            enqueue(w, new_level)
                self.hooks.round_boundary()
        finally:
            self.hooks.batch_end()

    def _decide_inv1_violators(self, cands: Sequence[Vertex]) -> list[Vertex]:
        """Read-only parallel decision: which candidates violate Invariant 1."""
        if not cands:
            return []
        state = self.state
        flags = [False] * len(cands)

        def check(i: int) -> None:
            flags[i] = not state.satisfies_invariant1(cands[i])

        self.executor.run_round(check, range(len(cands)))
        return [v for v, f in zip(cands, flags) if f]

    # ------------------------------------------------------------------
    # Deletion phase: desire-level rounds in increasing level order
    # ------------------------------------------------------------------
    def _delete_phase(self, batch: Sequence[Edge]) -> None:
        state = self.state
        moves0, rounds0 = self.last_batch_moves, self.last_batch_rounds
        with _OBS.span("plds.delete_phase") as sp:
            applied = state.apply_edges(batch, "delete")
            self._run_delete_rounds(applied)
            if _OBS.enabled:
                moved = self.last_batch_moves - moves0
                rounds = self.last_batch_rounds - rounds0
                sp.set(edges=len(applied), moves=moved, rounds=rounds)
                _MOVES_HIST.observe(moved)
                _ROUNDS_HIST.observe(rounds)

    def _run_delete_rounds(self, applied: Sequence[Edge]) -> None:
        state = self.state
        if getattr(state, "supports_frontier", False):
            from repro.core.frontier import run_delete_rounds

            run_delete_rounds(self, applied)
            return
        self.hooks.batch_begin("delete", applied)
        try:
            outstanding: set[Vertex] = set()
            for u, v in applied:
                outstanding.add(u)
                outstanding.add(v)
            while True:
                desires = self._decide_desire_levels(outstanding)
                if not desires:
                    break
                lstar = min(d for _, d in desires)
                movers = sorted(v for v, d in desires if d == lstar)
                for v in movers:
                    old = int(state.level[v])
                    self.hooks.before_move(v, old, lstar, "delete")
                    state.set_level(v, lstar)
                self._count_moves(len(movers))
                # Vertices strictly above the landing level may have lost an
                # Invariant-2 supporter; everyone still outstanding re-checks
                # next round anyway (cheap, read-only).
                for v in movers:
                    for w in self.graph.neighbors_unsafe(v):
                        if state.level[w] > lstar:
                            outstanding.add(w)
                self.hooks.round_boundary()
        finally:
            self.hooks.batch_end()

    def _decide_desire_levels(
        self, outstanding: set[Vertex]
    ) -> list[tuple[Vertex, int]]:
        """Read-only parallel decision: desire levels of Invariant-2 violators.

        Non-violators are dropped from ``outstanding`` as a side effect so the
        working set shrinks as the phase converges.
        """
        if not outstanding:
            return []
        state = self.state
        cands = list(outstanding)
        desires: list[int] = [-1] * len(cands)

        def check(i: int) -> None:
            v = cands[i]
            if state.level[v] > 0 and not state.satisfies_invariant2(v):
                desires[i] = state.desire_level(v)

        self.executor.run_round(check, range(len(cands)))
        result: list[tuple[Vertex, int]] = []
        for v, d in zip(cands, desires):
            if d >= 0:
                result.append((v, d))
            else:
                outstanding.discard(v)
        return result

    def _count_moves(self, moved: int) -> None:
        self.last_batch_moves += moved
        self.last_batch_rounds += 1
        if _OBS.enabled:
            _MOVES.inc(moved)
            _ROUNDS.inc()
        if _REC.enabled:
            # One event per rebalancing round; ``moved`` is the frontier size.
            _REC.record(
                _EV.ROUND, moved, self.last_batch_moves, self.last_batch_rounds
            )
        if self.last_batch_moves > self._move_budget:
            raise LDSError(
                "batch rebalance exceeded the theoretical move budget; "
                "this indicates a bookkeeping bug"
            )

    # ------------------------------------------------------------------
    # State management (quiescent use)
    # ------------------------------------------------------------------
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
    # Verification support
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise if any vertex violates an invariant (quiescent use)."""
        from repro.lds.invariants import check_all_invariants

        check_all_invariants(self.state)
