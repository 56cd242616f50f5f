"""The vectorized batch-update engine (``columnar-frontier``).

This module rewrites the CPLDS batch pipeline as whole-frontier numpy array
passes while keeping the *observable algorithm* bit-identical to the object
engine — same movers, same rounds, same move/round/marked/DAG counters, same
read protocol answers — which is what lets ``bench_gate`` treat the work
counters as a proof that only the execution strategy changed:

* the PLDS phase loops run per-level/per-round over int64 frontier arrays
  (:func:`run_insert_rounds` / :func:`run_delete_rounds`), with neighbour
  gathers served by the per-phase CSR view of
  :class:`~repro.lds.store.FrontierLevelStore` and level changes applied by
  its scatter kernels;
* the marking discipline of :class:`~repro.core.marking.DescriptorTable` is
  replaced by flat ``marked``/``old_level`` arrays plus a
  :class:`~repro.unionfind.vectorized.VectorizedUnionFind` parent forest
  (:class:`FrontierMarkingHooks`); dependency-DAG edges are derived from the
  same gathered rows the level kernels use, and merged in one grouped union
  per phase;
* reads walk the parent array instead of descriptor objects
  (:meth:`FrontierCPLDS._dag_steps` inside the shared
  :func:`~repro.core.cplds.read_steps`, hand-inlined in the hot
  :meth:`FrontierCPLDS.read`) — same sandwich, same MARKED/NOT_MARKED
  semantics, because unions are deferred to the phase end: mid-phase
  every marked vertex is its own root, so a reader that finds
  ``marked[v]`` returns ``old_level[v]`` exactly as ``check_DAG`` would.

Hook dispatch
-------------
The round drivers adapt to whatever hooks are installed:

* hooks that leave :meth:`~repro.lds.plds.UpdateHooks.before_move` as
  the no-op (the plain PLDS engine, the NonSync/SyncReads baselines'
  batch counter) — no per-mover work at all;
* :class:`FrontierMarkingHooks` (``supports_bulk_moves``) — whole-frontier
  marking from the gathered rows, zero per-vertex Python; so does a
  :class:`~repro.runtime.inject.HookChain` that puts it first and chains
  only boundary observers (probes, the stepped-read scheduler, monitors);
* anything else (a chain carrying chaos hooks or ledgers, which watch
  every move, or a classic :class:`~repro.core.cplds._MarkingHooks`) — the
  scalar per-mover ``before_move`` loop, preserving every observer's call
  sequence.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from typing import Generator, Sequence

import numpy as np

from repro.core.cplds import CPLDS, _READ_RETRIES
from repro.arrays import unique
from repro.errors import ReproError
from repro.lds.plds import PLDS, Phase, UpdateHooks
from repro.obs import REGISTRY as _OBS
from repro.obs.flightrec import RECORDER as _REC, EventType as _EV
from repro.obs.staleness import (
    READS_DESCRIPTOR as _READS_DESCRIPTOR,
    READS_LIVE as _READS_LIVE,
    STALENESS_EPOCHS as _STALENESS,
)
from repro.runtime.executor import Executor, SequentialExecutor
from repro.types import Edge, Vertex
from repro.unionfind.vectorized import VectorizedUnionFind

_EMPTY = np.empty(0, dtype=np.int64)

#: Rounds with at most this many movers run through the scalar per-vertex
#: path — for one or two movers a couple of set_level calls beat the fixed
#: cost of a dozen array kernels.  Both paths produce identical observable
#: state (differentially pinned), so the threshold is purely a performance
#: knob; 4 measured best on the bundled datasets (larger values regress —
#: the array kernels win surprisingly early).
_SMALL_FRONTIER = 4

#: While other threads exist, the round drivers release the GIL for a moment
#: once this much round work has run since the last release.  A reader that
#: wakes behind a busy writer otherwise waits out the interpreter's switch
#: interval (5 ms): the kernels' own GIL-free stretches are too short for a
#: waiting thread to take the GIL, and each one restarts its wait.
_READER_YIELD_S = 0.00015


def _next_yield() -> float:
    """When the round drivers next release the GIL: never while this is the
    only thread, since no reader can be waiting."""
    if threading.active_count() == 1:
        return math.inf
    return time.perf_counter() + _READER_YIELD_S


def _hook_mode(hooks: UpdateHooks) -> str:
    """``noop`` / ``bulk`` / ``scalar`` — see the module docstring."""
    if getattr(hooks, "supports_bulk_moves", False):
        return "bulk"
    if type(hooks).before_move is UpdateHooks.before_move:
        return "noop"
    return "scalar"


def _noop(i: int) -> None:
    """Placeholder round item for vectorised decisions — keeps executor
    round and work accounting identical across storage backends."""


def _noop_round(executor: Executor, size: int) -> None:
    """Account one decision round of ``size`` items without the O(size)
    no-op Python calls when the executor is the plain sequential one (the
    observable state — ``executor.stats`` — is identical either way)."""
    if type(executor) is SequentialExecutor:
        executor.stats.note(size)
    else:
        executor.run_round(_noop, range(size))


# ----------------------------------------------------------------------
# Phase drivers (replacing PLDS._run_insert_rounds / _run_delete_rounds)
# ----------------------------------------------------------------------
def run_insert_rounds(plds: PLDS, applied: Sequence[Edge]) -> None:
    """Insertion sweep over whole per-level frontiers (Invariant 1).

    A large batch lifts the same cohort of movers level after level in
    lock-step.  When a round's movers equal those of the round just run
    at ``lvl − 1``, that round's gathered rows are reused instead of
    gathered again, less the rows that can no longer matter to the climb:
    co-mover rows (the level kernel ignores them and the marking hook
    buffered them in the cohort's first round) and rows whose neighbour
    sits below ``lvl`` (only the cohort moves, so a non-mover's level and
    ``marked`` flag stay put while it rises).  Rounds, movers and every
    round-boundary state are those of a fresh gather.
    """
    state = plds.state
    hooks = plds.hooks
    mode = _hook_mode(hooks)
    executor = plds.executor
    level_arr = state._level_arr
    max_level = plds.params.max_level
    hooks.batch_begin("insert", applied)
    try:
        pending: dict[int, list[np.ndarray]] = {}
        heap: list[int] = []

        def enqueue(arr: np.ndarray, lvl: int) -> None:
            bucket = pending.get(lvl)
            if bucket is None:
                pending[lvl] = [arr]
                heapq.heappush(heap, lvl)
            else:
                bucket.append(arr)

        if applied:
            eps = unique(
                np.asarray(applied, dtype=np.int64).reshape(-1, 2).ravel()
            )
            lv = level_arr[eps]
            order = np.argsort(lv, kind="stable")
            se, sl = eps[order], lv[order]
            starts = np.flatnonzero(np.r_[True, sl[1:] != sl[:-1]])
            bounds = np.append(starts, len(se))
            for i, s0 in enumerate(starts):
                enqueue(se[s0 : bounds[i + 1]], int(sl[s0]))

        # The last array round's movers and rows.  Reusing rows is sound
        # because the CSR stays frozen for the whole phase (the batch's
        # edges were applied before the rounds), so CSR positions and the
        # marking hook's per-phase ``seen`` filter stay valid.
        kept: tuple | None = None
        yield_at = _next_yield()
        while heap:
            if time.perf_counter() >= yield_at:
                time.sleep(0)
                yield_at = _next_yield()
            lvl = heapq.heappop(heap)
            chunks = pending.pop(lvl, None)
            if chunks is None:
                continue
            cand = (
                chunks[0]
                if len(chunks) == 1
                else unique(np.concatenate(chunks))
            )
            cands = cand[level_arr[cand] == lvl]
            if cands.size:
                _noop_round(executor, int(cands.size))
                movers = state.bulk_inv1_violators_arr(cands)
            else:
                movers = _EMPTY
            if movers.size == 0 or lvl >= max_level:
                continue
            new_level = lvl + 1
            if movers.size <= _SMALL_FRONTIER:
                # Tiny round: the fixed cost of a dozen array kernels
                # exceeds a handful of scalar moves.  Identical observable
                # state — hooks fire first (as in the bulk path), then
                # per-vertex set_level, then the post-move requeue scan.
                kept = None
                movers_list = movers.tolist()
                if mode != "noop":
                    for v in movers_list:
                        hooks.before_move(v, lvl, new_level, "insert")
                for v in movers_list:
                    state.set_level(v, new_level)
                plds._count_moves(len(movers_list))
                enqueue(movers, new_level)
                level = state.level
                graph = plds.graph
                req = [
                    w
                    for v in movers_list
                    for w in graph.neighbors_unsafe(v)
                    if level[w] == new_level
                ]
                if req:
                    enqueue(unique(np.asarray(req, dtype=np.int64)), new_level)
                hooks.round_boundary()
                continue
            if kept is not None and np.array_equal(kept[0], movers):
                # Movers only rise, and only in array or scalar rounds (a
                # scalar round drops ``kept``), so equal movers last moved
                # at ``lvl - 1``.  Non-mover levels did not change since,
                # so ``lw`` is current for every row but the co-mover ones,
                # which still hold ``lvl - 1`` and fall to the same test.
                src, flat, pos, co, lw = kept[1]
                live = lw >= lvl
                src, flat, pos, co, lw = (
                    src[live], flat[live], pos[live], co[live], lw[live]
                )
            else:
                src, flat, pos, co, lw = state.gather_round(movers)
            kept = (movers, (src, flat, pos, co, lw))
            if mode == "bulk":
                hooks.bulk_insert_moves(movers, lvl, src, flat, pos, co, lw)
            elif mode == "scalar":
                for v in movers.tolist():
                    hooks.before_move(v, lvl, new_level, "insert")
            requeue = state.bulk_raise_level_rows(movers, lvl, src, flat, co, lw)
            plds._count_moves(int(movers.size))
            enqueue(movers, new_level)
            if requeue.size:
                enqueue(requeue, new_level)
            hooks.round_boundary()
    finally:
        hooks.batch_end()


def run_delete_rounds(plds: PLDS, applied: Sequence[Edge]) -> None:
    """Deletion rounds over the whole outstanding frontier (Invariant 2)."""
    state = plds.state
    hooks = plds.hooks
    mode = _hook_mode(hooks)
    executor = plds.executor
    hooks.batch_begin("delete", applied)
    try:
        if applied:
            outstanding = unique(
                np.asarray(applied, dtype=np.int64).reshape(-1, 2).ravel()
            )
        else:
            outstanding = _EMPTY
        yield_at = _next_yield()
        while outstanding.size:
            if time.perf_counter() >= yield_at:
                time.sleep(0)
                yield_at = _next_yield()
            _noop_round(executor, int(outstanding.size))
            viols, desires = state.bulk_desire_levels_arr(outstanding)
            if viols.size == 0:
                break
            lstar = int(desires.min())
            movers = viols[desires == lstar]
            if movers.size <= _SMALL_FRONTIER:
                # Tiny round: interleaved scalar moves, as in the object
                # engine's delete loop (hook-time levels matter for the
                # marking trigger scans).
                level = state.level
                for v in movers.tolist():
                    if mode != "noop":
                        hooks.before_move(v, level[v], lstar, "delete")
                    state.set_level(v, lstar)
                plds._count_moves(int(movers.size))
                graph = plds.graph
                grow = [
                    w
                    for v in movers.tolist()
                    for w in graph.neighbors_unsafe(v)
                    if level[w] > lstar
                ]
                if grow:
                    outstanding = unique(
                        np.concatenate(
                            [viols, np.asarray(grow, dtype=np.int64)]
                        )
                    )
                else:
                    outstanding = viols
                hooks.round_boundary()
                continue
            src, flat, pos, co, lw = state.gather_round(movers)
            if mode == "scalar":
                level = state.level
                for v in movers.tolist():
                    old = level[v]
                    hooks.before_move(v, old, lstar, "delete")
                    state.set_level(v, lstar)
            else:
                if mode == "bulk":
                    hooks.bulk_delete_moves(movers, lstar, src, flat, pos, co, lw)
                state.bulk_move_to_level_rows(movers, lstar, src, flat, co, lw)
            plds._count_moves(int(movers.size))
            # Non-mover neighbours left strictly above the landing level
            # re-check next round, alongside every current violator (movers
            # included — they may violate again at lstar).
            if flat.size:
                grow = flat[(lw > lstar) & ~co]
                outstanding = unique(np.concatenate([viols, grow]))
            else:
                outstanding = viols
            hooks.round_boundary()
    finally:
        hooks.batch_end()


# ----------------------------------------------------------------------
# Array marking (replacing DescriptorTable for the frontier engine)
# ----------------------------------------------------------------------
class FrontierMarkingHooks(UpdateHooks):
    """The paper's marking discipline over flat arrays.

    State lives on the owning :class:`FrontierCPLDS`: ``_marked`` (bool),
    ``_old_level`` (int64, valid where marked) and ``_uf`` (the parent
    forest; self-root convention).  DAG-edge *pairs* are accumulated in
    buffers during the rounds and merged with one grouped union at phase
    end — deferring the unions is safe because a mid-phase reader that
    finds ``marked[v]`` set must return ``old_level[v]`` no matter which
    DAG ``v`` belongs to.  Rounds re-derive the same dependency edge in
    every round that moves an endpoint, so each gathered row is buffered at
    most once per phase, keyed by its CSR position: the buffer never holds
    more rows than the CSR has positions (2·m).

    Pair derivation matches the hook-time trigger scans of
    :class:`~repro.core.cplds._MarkingHooks` exactly (the differential suite
    pins marked/DAG counts): for an insertion round at level ℓ a gathered
    row (mover ``v``, neighbour ``w``) yields a pair iff ``level(w) >= ℓ``
    and ``w`` is marked or a co-mover (a co-mover edge once, from its
    lower-numbered endpoint's row); for a deletion round the mover→
    non-mover and mover→mover cases encode the two hook orderings of the
    scalar interleaving; and batch-edge partner pairs reduce to "both
    endpoints marked by phase end" (each hook-time partner pair implies it,
    and it implies the pair the later-marked endpoint would have added).
    """

    supports_bulk_moves = True

    __slots__ = (
        "cp", "_edges", "_pair_chunks", "_pairs_scalar", "_seen", "_seen_version"
    )

    def __init__(self, cp: "FrontierCPLDS") -> None:
        self.cp = cp
        self._edges: Sequence[Edge] = ()
        self._pair_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self._pairs_scalar: list[tuple[int, int]] = []
        #: The CSR positions buffered this phase, valid for the CSR build
        #: ``_seen_version`` (-1: none yet this phase).
        self._seen = np.zeros(0, dtype=bool)
        self._seen_version = -1

    # -- phase boundaries ----------------------------------------------
    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        self.cp._begin_phase(kind, edges)
        self._edges = edges
        self._clear_pairs()

    # -- scalar mode (chained hooks) -----------------------------------
    def before_move(self, v: Vertex, old: int, new: int, phase: Phase) -> None:
        """Per-mover marking, identical trigger scan to ``_MarkingHooks``
        (partner pairs are handled uniformly at :meth:`batch_end`)."""
        cp = self.cp
        marked = cp._marked
        level = cp.plds.state.level
        lv = level[v]
        pairs = self._pairs_scalar
        if phase == "insert":
            for w in cp.plds.graph.neighbors_unsafe(v):
                if level[w] >= lv and marked[w]:
                    pairs.append((v, w))
        else:
            bound = lv - 1
            for w in cp.plds.graph.neighbors_unsafe(v):
                if level[w] < bound and marked[w]:
                    pairs.append((v, w))
        if not marked[v]:
            cp._old_level[v] = old
            marked[v] = True  # published after old_level, like the table

    # -- bulk mode (whole-frontier rounds) ------------------------------
    def bulk_insert_moves(
        self,
        movers: np.ndarray,
        lvl: int,
        src: np.ndarray,
        flat: np.ndarray,
        pos: np.ndarray,
        co: np.ndarray,
        lw: np.ndarray,
    ) -> None:
        cp = self.cp
        marked = cp._marked
        if flat.size:
            # A mover–mover edge appears as two rows; keep one.  batch_end
            # dedups pairs as unordered keys, so the union input is the same.
            trigger = (lw >= lvl) & (marked[flat] | co) & (~co | (src < flat))
            self._buffer_pairs(trigger, src, flat, pos)
        newly = movers[~marked[movers]]
        cp._old_level[newly] = lvl
        marked[movers] = True

    def bulk_delete_moves(
        self,
        movers: np.ndarray,
        lstar: int,
        src: np.ndarray,
        flat: np.ndarray,
        pos: np.ndarray,
        co: np.ndarray,
        lw: np.ndarray,
    ) -> None:
        cp = self.cp
        marked = cp._marked
        if flat.size:
            # lw: pre-move levels.
            below = lw < cp.plds.state._level_arr[src] - 1
            # mover → marked non-mover strictly below ℓ(v) − 1 …
            pair = ~co & marked[flat] & below
            # … and mover–mover pairs, once per edge (src < flat row): the
            # later-processed endpoint sees the earlier one at lstar, or the
            # earlier one saw the later one already marked below the bound.
            pair |= co & (src < flat) & ((lstar < lw - 1) | (marked[flat] & below))
            self._buffer_pairs(pair, src, flat, pos)
        newly = movers[~marked[movers]]
        cp._old_level[newly] = cp.plds.state._level_arr[newly]  # pre-move
        marked[movers] = True

    # -- the pair buffer ------------------------------------------------
    def _buffer_pairs(
        self, rows: np.ndarray, src: np.ndarray, flat: np.ndarray, pos: np.ndarray
    ) -> None:
        """Buffer the pairs of the ``rows`` mask, skipping the CSR positions
        already buffered this phase (``rows`` is consumed)."""
        state = self.cp.plds.state
        if self._seen_version != state._csr_version:
            self._seen = np.zeros(state._csr_targets.size, dtype=bool)
            self._seen_version = state._csr_version
        rows &= ~self._seen[pos]
        if np.count_nonzero(rows):
            self._seen[pos[rows]] = True
            self._pair_chunks.append((src[rows], flat[rows]))

    def _clear_pairs(self) -> None:
        self._pair_chunks.clear()
        self._pairs_scalar.clear()
        self._seen_version = -1

    # -- phase end: union, telemetry, unmark ----------------------------
    def batch_end(self) -> None:
        cp = self.cp
        marked = cp._marked
        uf = cp._uf
        # Batch-edge partner pairs: both endpoints marked by phase end.
        edges = self._edges
        if edges:
            earr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            both = marked[earr[:, 0]] & marked[earr[:, 1]]
            if both.any():
                self._pair_chunks.append((earr[both, 0], earr[both, 1]))
        if self._pairs_scalar:
            sarr = np.asarray(self._pairs_scalar, dtype=np.int64).reshape(-1, 2)
            self._pair_chunks.append((sarr[:, 0], sarr[:, 1]))
        if self._pair_chunks:
            # Sorted distinct unordered keys min * n + max: an edge can still
            # arrive from both endpoints' rows and as a partner pair, and
            # union cost scales with the pair count.
            n = np.int64(marked.shape[0])
            a = np.concatenate([x for x, _ in self._pair_chunks])
            b = np.concatenate([x for _, x in self._pair_chunks])
            key = unique(np.minimum(a, b) * n + np.maximum(a, b))
            uf.union_pairs(key // n, key % n)
            if _REC.enabled:
                # One grouped event per phase-end union (the object engine
                # emits one per CAS link): root=-1, merged=deduped pair count.
                _REC.record(_EV.DAG_MERGE, -1, int(key.size))
        marked_idx = np.flatnonzero(marked)
        roots = uf.find_many(marked_idx)
        cp._end_phase(
            int(marked_idx.size),
            int(unique(roots).size),
            dict(zip(marked_idx.tolist(), roots.tolist())),
        )
        # Same executor accounting as DescriptorTable.unmark_all's three
        # parfor rounds (classify / clear roots / clear rest).
        executor = cp.plds.executor
        size = int(marked_idx.size)
        _noop_round(executor, size)
        _noop_round(executor, size)
        _noop_round(executor, size)
        # Reader-visible unmark, roots first: a walker that reaches a
        # cleared root falls back to the live level, exactly like check_DAG.
        is_root = uf.parent[marked_idx] == marked_idx
        marked[marked_idx[is_root]] = False
        marked[marked_idx[~is_root]] = False
        # Reset the forest to singletons for the next phase (unions only
        # ever touch marked vertices).
        uf.parent[marked_idx] = marked_idx
        self._clear_pairs()
        self._edges = ()
        cp._publish_epoch()


class FrontierCPLDS(CPLDS):
    """CPLDS running entirely on the frontier pipeline.

    Constructed by ``engines.create(..., backend="columnar-frontier")``.
    Public surface, protocol guarantees and work counters are identical to
    :class:`~repro.core.cplds.CPLDS`; the inherited (empty)
    ``DescriptorTable`` keeps checkpointing and introspection tooling
    working unchanged.
    """

    def __init__(
        self,
        num_vertices: int,
        params=None,
        executor: Executor | None = None,
        max_read_retries: int = 10_000_000,
        backend: str = "columnar-frontier",
    ) -> None:
        super().__init__(
            num_vertices,
            params=params,
            executor=executor,
            max_read_retries=max_read_retries,
            backend=backend,
        )
        self._marked = np.zeros(num_vertices, dtype=bool)
        self._old_level = np.zeros(num_vertices, dtype=np.int64)
        self._uf = VectorizedUnionFind(num_vertices)
        self.plds.hooks = FrontierMarkingHooks(self)

    # ------------------------------------------------------------------
    # Reads: the sandwich over the parent array
    # ------------------------------------------------------------------
    def _dag_steps(self, v: Vertex) -> Generator[None, None, int]:
        """The parent-chain walk of :func:`~repro.core.cplds.read_steps`,
        one step per ``marked``/``parent`` load: ``v``'s old level while
        its DAG is marked, else -1 (see :meth:`read`)."""
        marked = self._marked
        parent = self._uf.parent
        node = v
        while True:
            flag = marked[node]
            yield
            if not flag:
                return -1
            p = int(parent[node])
            yield
            if p == node:
                break
            node = p
        old = int(self._old_level[v])
        yield
        return old

    def read(self, v: Vertex) -> float:
        """Algorithm 4 against the array marking state: the hand-inlined
        transcription of :func:`~repro.core.cplds.read_steps` with
        :meth:`_dag_steps` (pinned to it by the tests).

        ``v`` counts as marked iff walking its parent chain reaches a node
        that is both marked and a root — the array transcription of
        ``check_DAG`` (an unmarked node on the path means the DAG's root
        was already cleared, roots being unmarked first).
        """
        level = self.plds.state.level
        marked = self._marked
        parent = self._uf.parent
        old_level = self._old_level
        estimates = self.params.estimate_table
        retries = 0
        while True:
            b1 = self.batch_number
            l1 = level[v]
            node = v
            in_dag = False
            while marked[node]:
                p = int(parent[node])
                if p == node:
                    in_dag = True
                    break
                node = p
            l2 = level[v]
            b2 = self.batch_number
            if b1 == b2:
                if in_dag:
                    if _OBS.enabled:
                        _READS_DESCRIPTOR.inc()
                        _STALENESS.observe(1)
                    return estimates[int(old_level[v])]
                if l1 == l2:
                    if _OBS.enabled:
                        _READS_LIVE.inc()
                        _STALENESS.observe(0)
                    return estimates[l1]
            retries += 1
            if _OBS.enabled:
                _READ_RETRIES.inc()
            if _REC.enabled:
                _REC.record(_EV.READ_RETRY, v, b1, b2, retries)
            if retries > self.max_read_retries:
                raise ReproError(
                    f"read({v}) exceeded {self.max_read_retries} retries; "
                    "the update stream is outpacing the reader"
                )

    # ------------------------------------------------------------------
    # Recovery / state management
    # ------------------------------------------------------------------
    def _reset_marking(self) -> None:
        # The hooks' pair buffer needs no reset: every batch_begin clears it.
        self._marked[:] = False
        parent = self._uf.parent
        parent[:] = np.arange(len(parent), dtype=np.int64)

    def restore_state(self, snap: dict) -> None:
        self._reset_marking()
        super().restore_state(snap)

    def rebuild(self) -> None:
        self._reset_marking()
        super().rebuild()

    def check_invariants(self) -> None:
        super().check_invariants()
        if self._marked.any():
            leaked = np.flatnonzero(self._marked)[:10].tolist()
            raise AssertionError(f"marked flags leaked past batch end: {leaked}")
