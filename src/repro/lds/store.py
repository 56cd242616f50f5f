"""Level-store backends: the storage seam under LDS/PLDS/CPLDS.

Every level structure in this library maintains the live ``level`` and the
up-degree ``up_deg`` of each vertex, plus enough below-level counts to
decide Invariant 2; nothing about the *algorithms* (rebalance sweeps,
marking, the read sandwich) depends on how that state is laid out in
memory.  Two layouts implement the contract:

* :class:`~repro.lds.bookkeeping.ObjectLevelStore` (``"object"``) — plain
  Python lists + a per-vertex dict of below-level counts.  Kept as the
  semantic reference; the array store is differentially tested against it.
* :class:`FrontierLevelStore` (``"columnar-frontier"``) — GBBS-style flat
  per-vertex words driven by whole-frontier rounds.  ``level`` is one
  ``int64`` buffer seen two ways (an ``array("q")`` for scalar reads and a
  numpy view for the kernels); ``up_deg`` and ``down1`` (the number of
  neighbours at exactly ``ℓ(v) − 1``, all Invariant 2 reads besides
  ``up_deg``) are ``int64[n]`` arrays, so the counters take O(n) memory
  whatever the levels.  Desire levels are computed from the neighbour
  levels in the vertex's own adjacency row.  An incrementally maintained
  flat edge list is frozen into a CSR view once per phase
  (:meth:`FrontierLevelStore.sync_csr`); neighbour gathers are
  ``offsets``/``targets`` slices, and the array-in/array-out round kernels
  (:meth:`~FrontierLevelStore.bulk_inv1_violators_arr`,
  :meth:`~FrontierLevelStore.bulk_desire_levels_arr`,
  :meth:`~FrontierLevelStore.bulk_raise_level_rows`,
  :meth:`~FrontierLevelStore.bulk_move_to_level_rows`) are consumed by the
  frontier round driver in :mod:`repro.core.frontier`.

Both expose the same surface (see :class:`LevelStore`); pick one with
:func:`make_store` or — at the system level — via
``repro.engines.create(name, backend=...)``.

Concurrency note: ``level[v]`` is the paper's single-word read.  The
object store keeps a plain Python list; the array store an ``array("q")``
whose memory the kernels' numpy view ``_level_arr`` shares, so a read
returns a Python ``int`` and every write — a scalar store in
:meth:`~FrontierLevelStore.set_level`, one scatter in the round kernels —
lands in the reader-visible word itself.  Each slot is one aligned
``int64``; a scatter may run without the GIL, so a reader can see a round
partly applied, and the marking hooks publish ``marked``/``old_level``
before the scatter for exactly that reason.  The counter structures remain
writer-private.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.arrays import unique
from repro.errors import LDSError
from repro.graph.csr import csr_view
from repro.graph.dynamic_graph import DynamicGraph
from repro.lds.params import LDSParams
from repro.obs import REGISTRY as _OBS
from repro.types import Vertex

#: Registered storage backends, in preference order.
BACKENDS = ("object", "columnar-frontier")

# Cached kernel-call counters: one label per vectorised kernel, plus a rows
# counter so a snapshot shows both call counts and work volume.
_K_SCATTER = _OBS.counter("columnar_kernel_calls_total", {"kernel": "scatter_counters"})
_K_RAISE = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_raise_level"})
_K_INV1 = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_inv1_violators"})
_K_DESIRE = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_desire_levels"})
_K_MOVE = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_move_to_level"})
_K_CSR = _OBS.counter("columnar_kernel_calls_total", {"kernel": "csr_rebuild"})
_K_ROWS = _OBS.counter("columnar_kernel_rows_total")


@runtime_checkable
class LevelStore(Protocol):
    """The storage contract shared by every level-store backend.

    Attributes
    ----------
    backend:
        The backend's registry name (one of :data:`BACKENDS`).
    level:
        Indexable per-vertex live levels; element reads must be GIL-atomic
        (this is what concurrent readers touch).
    """

    backend: str
    params: LDSParams
    graph: DynamicGraph

    # -- reads ----------------------------------------------------------
    def get_level(self, v: Vertex) -> int: ...
    def levels_snapshot(self) -> list[int]: ...
    def snapshot_levels(self): ...

    # -- edge/level bookkeeping -----------------------------------------
    def on_edge_inserted(self, u: Vertex, v: Vertex) -> None: ...
    def on_edge_deleted(self, u: Vertex, v: Vertex) -> None: ...
    def apply_edges(
        self, edges: Iterable[tuple[Vertex, Vertex]], kind: str
    ) -> list[tuple[Vertex, Vertex]]: ...
    def set_level(self, v: Vertex, new_level: int) -> None: ...

    # -- invariant predicates -------------------------------------------
    def satisfies_invariant1(self, v: Vertex) -> bool: ...
    def satisfies_invariant2(self, v: Vertex) -> bool: ...
    def desire_level(self, v: Vertex) -> int: ...

    # -- state management -----------------------------------------------
    def reset(self) -> None: ...
    def load_levels(self, levels: Sequence[int]) -> None: ...
    def snapshot(self): ...
    def restore(self, snap) -> None: ...

    # -- verification ----------------------------------------------------
    def assert_counters_consistent(self) -> None: ...


class FrontierLevelStore:
    """Flat-array level state, a per-phase CSR view and whole-frontier
    round kernels: the backend behind the ``columnar-frontier`` engine.

    ``up_deg`` and ``down1`` are flat ``int64[n]`` arrays: ``up_deg[v]``
    counts neighbours at ``>= ℓ(v)`` and ``down1[v]`` neighbours at exactly
    ``ℓ(v) − 1``, so Invariant 2 reads ``up_deg[v] + down1[v]``.  No other
    below-level count is kept: desire levels come from the neighbour levels
    themselves (:meth:`desire_level`, :meth:`bulk_desire_levels_arr`).  The
    per-level invariant thresholds are precomputed once into arrays.

    The store also keeps a flat edge list (``_eu``/``_ev`` slot arrays with
    an alive mask, appended/killed incrementally by :meth:`apply_edges` and
    compacted when dead slots dominate).  At the start of each update phase
    the round driver calls :meth:`sync_csr`, which freezes the live edges
    into ``offsets``/``targets`` CSR arrays with one stable integer argsort
    — O(m) radix work amortised against the whole phase's neighbour
    gathers, and skipped entirely when the edge set did not change since
    the last build (keyed on :attr:`DynamicGraph.version`, so out-of-band
    mutations such as ``restore_state``/``rebuild`` trigger a full resync
    instead of silent staleness).

    The ``*_arr`` / ``*_rows`` kernels are the array-in/array-out forms of
    the scalar round decisions and of :meth:`set_level`; each is
    differentially pinned to the object store by the backend differential
    suite.
    """

    backend = "columnar-frontier"
    #: The frontier round driver (repro.core.frontier) takes over the PLDS
    #: phase loops when the store advertises this.
    supports_frontier = True

    __slots__ = (
        "params", "graph", "level", "up_deg", "down1",
        "_level_arr", "_stamp", "_upper", "_lower", "_lower_list",
        "_eu", "_ev", "_alive", "_n_slots", "_dead", "_slot_of",
        "_graph_version", "_csr_offsets", "_csr_targets", "_csr_version",
        "_iota",
    )

    #: Below this neighbour count ``set_level`` uses a scalar loop (the
    #: numpy fixed overhead dominates for tiny degrees).
    _VECTOR_MIN_DEG = 16

    def __init__(self, graph: DynamicGraph, params: LDSParams) -> None:
        if params.num_vertices != graph.num_vertices:
            raise ValueError(
                f"params sized for n={params.num_vertices} but graph has "
                f"n={graph.num_vertices}"
            )
        self.params = params
        self.graph = graph
        n = graph.num_vertices
        # The live, reader-visible levels: one int64 buffer, read as Python
        # ints through the array("q") and written by the kernels through
        # the numpy view.  Never rebound (and the view's buffer export
        # forbids a resize), so references held by readers stay live.
        self.level = array("q", bytes(8 * n))
        self._level_arr = np.frombuffer(self.level, dtype=np.int64)
        self.up_deg = np.zeros(n, dtype=np.int64)
        self.down1 = np.zeros(n, dtype=np.int64)
        self._stamp = np.zeros(n, dtype=bool)  # scratch for bulk kernels
        self._upper, self._lower = params.threshold_arrays()
        self._lower_list = self._lower.tolist()
        self._graph_version = -1
        self._csr_version = -1
        self._csr_offsets = np.zeros(n + 1, dtype=np.int64)
        self._csr_targets = np.empty(0, dtype=np.int64)
        self._iota = np.arange(1024, dtype=np.int64)
        self._resync_edges()
        self.reset()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_level(self, v: Vertex) -> int:
        """The live level of ``v`` — a single atomic list read."""
        return self.level[v]

    def levels_snapshot(self) -> list[int]:
        """A plain-int copy of all live levels (quiescent use only)."""
        return self.level.tolist()

    def snapshot_levels(self) -> np.ndarray:
        """An O(n) array copy of the live levels (indexable snapshot)."""
        return self._level_arr.copy()

    # ------------------------------------------------------------------
    # Edge bookkeeping
    # ------------------------------------------------------------------
    def on_edge_inserted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a newly inserted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] += 1
        elif lv == lu - 1:
            self.down1[u] += 1
        if lu >= lv:
            self.up_deg[v] += 1
        elif lu == lv - 1:
            self.down1[v] += 1

    def on_edge_deleted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a just-deleted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] -= 1
        elif lv == lu - 1:
            self.down1[u] -= 1
        if lu >= lv:
            self.up_deg[v] -= 1
        elif lu == lv - 1:
            self.down1[v] -= 1

    def apply_edges(
        self, edges: Iterable[tuple[Vertex, Vertex]], kind: str
    ) -> list[tuple[Vertex, Vertex]]:
        """Apply one pre-filtered batch to the graph, fix all counters with
        two ``np.add.at`` scatter kernels (one per endpoint side), and track
        the batch in the flat edge list.

        The batch must already be canonical (PLDS filters it), so it goes
        to the graph without a second canonicalisation pass."""
        batch = list(edges)
        if not batch:
            return batch
        if kind not in ("insert", "delete"):
            raise ValueError(f"unknown edge-batch kind {kind!r}")
        pre = self.graph.version
        sign = 1 if kind == "insert" else -1
        applied = self.graph._apply_canonical(batch, sign > 0)
        if applied != len(batch):
            raise LDSError(
                f"apply_edges expects a pre-filtered batch: {len(batch)} "
                f"edges submitted but {applied} applied"
            )
        arr = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
        self._scatter_counters(arr, sign)
        if self._graph_version == pre:
            # In sync before the batch: track it incrementally.  When stale
            # (out-of-band graph mutation), stay stale and let sync_csr
            # trigger the full resync.
            if sign > 0:
                self._append_edges(batch)
            else:
                self._kill_edges(batch)
            self._graph_version = self.graph.version
        return batch

    def _scatter_counters(self, arr: np.ndarray, sign: int) -> None:
        """Accumulate counter deltas for an edge array (levels held fixed,
        so the updates are order-independent)."""
        if _OBS.enabled:
            _K_SCATTER.inc()
            _K_ROWS.inc(int(arr.shape[0]))
        level = self._level_arr
        for a, b in ((arr[:, 0], arr[:, 1]), (arr[:, 1], arr[:, 0])):
            la = level[a]
            lb = level[b]
            up = lb >= la
            if up.any():
                np.add.at(self.up_deg, a[up], sign)
            d1 = lb == la - 1
            if d1.any():
                np.add.at(self.down1, a[d1], sign)

    # ------------------------------------------------------------------
    # Level changes
    # ------------------------------------------------------------------
    def set_level(self, v: Vertex, new_level: int) -> None:
        """Move ``v`` to ``new_level``, fixing all affected counters.

        Semantics identical to the object store's; the live level write
        (one store into the shared buffer) happens last.  ``v``'s own
        counters are recounted from its neighbours, each neighbour's view of
        ``v`` is patched; large neighbourhoods use array kernels, tiny ones a
        scalar loop.
        """
        old = self.level[v]
        new_level = int(new_level)
        if new_level == old:
            return
        if not 0 <= new_level < self.params.num_levels:
            raise ValueError(
                f"new_level {new_level} out of range [0, {self.params.num_levels})"
            )
        nbrs = self.graph.neighbors_unsafe(v)
        if len(nbrs) >= self._VECTOR_MIN_DEG:
            self._set_level_vector(v, old, new_level, nbrs)
        elif nbrs:
            self._set_level_scalar(v, old, new_level, nbrs)
        self.level[v] = new_level

    def _set_level_scalar(
        self, v: Vertex, old: int, new_level: int, nbrs: set
    ) -> None:
        level = self.level
        up_deg = self.up_deg
        down1 = self.down1
        up = d1 = 0
        for w in nbrs:
            lw = level[w]
            # w's view of v: up iff ℓ(v) >= lw, one below iff ℓ(v) == lw - 1.
            delta = (new_level >= lw) - (old >= lw)
            if delta:
                up_deg[w] += delta
            delta = (new_level == lw - 1) - (old == lw - 1)
            if delta:
                down1[w] += delta
            if lw >= new_level:
                up += 1
            elif lw == new_level - 1:
                d1 += 1
        up_deg[v] = up
        down1[v] = d1

    def _set_level_vector(
        self, v: Vertex, old: int, new_level: int, nbrs: set
    ) -> None:
        w = np.fromiter(nbrs, count=len(nbrs), dtype=np.int64)
        lw = self._level_arr[w]
        # w's view of v (neighbour sets are duplicate-free, so plain fancy
        # updates are safe).
        self.up_deg[w] += (lw <= new_level).astype(np.int64) - (lw <= old)
        self.down1[w] += (lw == new_level + 1).astype(np.int64) - (lw == old + 1)
        self.up_deg[v] = np.count_nonzero(lw >= new_level)
        self.down1[v] = np.count_nonzero(lw == new_level - 1)

    # ------------------------------------------------------------------
    # Invariant predicates
    # ------------------------------------------------------------------
    def satisfies_invariant1(self, v: Vertex) -> bool:
        """Degree upper bound (vacuous at the top level)."""
        lvl = self.level[v]
        if lvl >= self.params.max_level:
            return True
        return bool(self.up_deg[v] <= self._upper[lvl])

    def satisfies_invariant2(self, v: Vertex) -> bool:
        """Degree lower bound at ``ℓ − 1``."""
        lvl = self.level[v]
        if lvl == 0:
            return True
        return bool(self.up_deg[v] + self.down1[v] >= self._lower[lvl])

    def desire_level(self, v: Vertex) -> int:
        """Max feasible level ``d <= ℓ(v)``, from ``v``'s neighbour levels.

        With the neighbour levels sorted descending, ``lw₍₁₎ >= lw₍₂₎ >= …``,
        level ``d`` has at least ``k`` neighbours at ``>= d − 1`` iff
        ``d <= lw₍ₖ₎ + 1``, and ``k`` neighbours meet its threshold iff
        ``d <= D(k)``, the highest level with ``lower_threshold <= k``
        (thresholds never decrease).  So the answer is
        ``max_k min(D(k), lw₍ₖ₎ + 1, ℓ(v))``, or 0 without neighbours.
        Equivalent to the object store's breakpoint scan (differentially
        tested).
        """
        lvl = self.level[v]
        if lvl == 0:
            return 0
        level = self.level
        lower = self._lower_list
        best = 0
        lws = sorted((level[w] for w in self.graph.neighbors_unsafe(v)), reverse=True)
        for k, lw in enumerate(lws, 1):
            if lw + 1 <= best:
                break  # lw₍ₖ₎ + 1 only falls from here on
            d = min(bisect_right(lower, k) - 1, lw + 1, lvl)
            if d > best:
                best = d
        return best

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all levels and recompute counters for the current graph
        (every vertex back at level 0)."""
        self.load_levels(np.zeros(self.graph.num_vertices, dtype=np.int64))

    def load_levels(self, levels: Sequence[int]) -> None:
        """Adopt a level assignment and rebuild all counters from the graph
        (one vectorised pass over the edge array)."""
        arr = np.asarray(levels, dtype=np.int64)
        n = self.graph.num_vertices
        if arr.shape != (n,):
            raise ValueError(f"expected {n} levels, got shape {arr.shape}")
        if n and (arr.min() < 0 or arr.max() >= self.params.num_levels):
            raise ValueError("level assignment out of range")
        self._level_arr[:] = arr
        self.up_deg[:] = 0
        self.down1[:] = 0
        edges = self.graph.edge_array()
        if edges.size:
            self._scatter_counters(edges, 1)

    def snapshot(self):
        """O(n) state snapshot: three array copies."""
        return (
            self._level_arr.copy(), self.up_deg.copy(), self.down1.copy()
        )

    def restore(self, snap) -> None:
        """Restore a :meth:`snapshot` (the snapshot stays reusable).

        Every array is written in place, so references held by the read
        hot path and the round drivers stay valid.
        """
        level, up_deg, down1 = snap
        self._level_arr[:] = level
        self.up_deg[:] = up_deg
        self.down1[:] = down1

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def assert_counters_consistent(self) -> None:
        """Raise ``AssertionError`` if any counter drifted from the graph.

        Whole-array, O(n + m): ``up_deg`` and ``down1`` are recomputed with
        one ``bincount`` each over the graph's CSR snapshot.  Only on a
        mismatch does the per-vertex scan run, to name the first bad vertex
        exactly as the object store's check does.
        """
        if not self._counters_match():
            self._scan_counters()

    def _counters_match(self) -> bool:
        """The whole-array comparison."""
        level = self._level_arr
        n = level.size
        csr = csr_view(self.graph)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.offsets))
        ls = level[src]
        lw = level[csr.targets]
        return np.array_equal(
            np.bincount(src[lw >= ls], minlength=n), self.up_deg
        ) and np.array_equal(
            np.bincount(src[lw == ls - 1], minlength=n), self.down1
        )

    def _scan_counters(self) -> None:
        """Per-vertex counter check (raises on the first bad vertex)."""
        level = self.level
        for v in range(self.graph.num_vertices):
            lv = level[v]
            lws = [level[w] for w in self.graph.neighbors_unsafe(v)]
            up = sum(1 for lw in lws if lw >= lv)
            if up != int(self.up_deg[v]):
                raise AssertionError(
                    f"up_deg[{v}] = {int(self.up_deg[v])}, recomputed {up}"
                )
            d1 = lws.count(lv - 1)
            if d1 != int(self.down1[v]):
                raise AssertionError(
                    f"down1[{v}] = {int(self.down1[v])}, recomputed {d1}"
                )

    # ------------------------------------------------------------------
    # Incremental edge list
    # ------------------------------------------------------------------
    def _resync_edges(self) -> None:
        """Rebuild the slot arrays from the graph (restore/rebuild path)."""
        edge_list = list(self.graph.edges())
        k = len(edge_list)
        cap = max(16, 2 * k)
        self._eu = np.empty(cap, dtype=np.int64)
        self._ev = np.empty(cap, dtype=np.int64)
        self._alive = np.zeros(cap, dtype=bool)
        if k:
            arr = np.asarray(edge_list, dtype=np.int64)
            self._eu[:k] = arr[:, 0]
            self._ev[:k] = arr[:, 1]
            self._alive[:k] = True
        self._slot_of = {e: i for i, e in enumerate(edge_list)}
        self._n_slots = k
        self._dead = 0
        self._graph_version = self.graph.version
        self._csr_version = -1

    def _grow_slots(self, need: int) -> None:
        cap = max(2 * len(self._eu), need)
        for name in ("_eu", "_ev"):
            old = getattr(self, name)
            grown = np.empty(cap, dtype=np.int64)
            grown[: self._n_slots] = old[: self._n_slots]
            setattr(self, name, grown)
        alive = np.zeros(cap, dtype=bool)
        alive[: self._n_slots] = self._alive[: self._n_slots]
        self._alive = alive

    def _append_edges(self, batch: list[tuple[Vertex, Vertex]]) -> None:
        k = len(batch)
        s = self._n_slots
        if s + k > len(self._eu):
            self._grow_slots(s + k)
        arr = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
        self._eu[s : s + k] = arr[:, 0]
        self._ev[s : s + k] = arr[:, 1]
        self._alive[s : s + k] = True
        slot_of = self._slot_of
        for i, e in enumerate(batch):
            slot_of[e] = s + i
        self._n_slots = s + k

    def _kill_edges(self, batch: list[tuple[Vertex, Vertex]]) -> None:
        slot_of = self._slot_of
        idx = np.fromiter(
            (slot_of.pop(e) for e in batch), dtype=np.int64, count=len(batch)
        )
        self._alive[idx] = False
        self._dead += len(batch)
        if self._dead > max(256, self._n_slots - self._dead):
            self._compact_slots()

    def _compact_slots(self) -> None:
        live = self._alive[: self._n_slots]
        eu = self._eu[: self._n_slots][live]
        ev = self._ev[: self._n_slots][live]
        k = len(eu)
        self._eu[:k] = eu
        self._ev[:k] = ev
        self._alive[:k] = True
        self._alive[k:] = False
        self._slot_of = {
            (int(u), int(v)): i
            for i, (u, v) in enumerate(zip(eu.tolist(), ev.tolist()))
        }
        self._n_slots = k
        self._dead = 0

    # ------------------------------------------------------------------
    # CSR view + gathers
    # ------------------------------------------------------------------
    def sync_csr(self) -> None:
        """Freeze the live edge set into CSR arrays (no-op when current)."""
        version = self.graph.version
        if self._graph_version != version:
            self._resync_edges()
        if self._csr_version == version:
            return
        n = self.graph.num_vertices
        k = self._n_slots
        eu = self._eu[:k]
        ev = self._ev[:k]
        if self._dead:
            live = self._alive[:k]
            eu = eu[live]
            ev = ev[live]
        src = np.concatenate([eu, ev])
        dst = np.concatenate([ev, eu])
        if _OBS.enabled:
            _K_CSR.inc()
            _K_ROWS.inc(int(src.size))
        order = np.argsort(src, kind="stable")
        self._csr_targets = dst[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        if src.size:
            counts = np.bincount(src, minlength=n)
            np.cumsum(counts, out=offsets[1:])
        self._csr_offsets = offsets
        self._csr_version = version

    def gather_rows(
        self, varr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All CSR adjacency rows of ``varr`` flattened: ``(src, flat, pos)``
        where ``flat[i]`` is a neighbour of ``src[i]``, found at
        ``_csr_targets[pos[i]]``.  Syncs the CSR view on demand (a
        two-comparison no-op when already current), so phases that never
        gather skip the rebuild entirely."""
        self.sync_csr()
        offsets = self._csr_offsets
        start = offsets[varr]
        cnt = offsets[varr + 1] - start
        total = int(cnt.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if total > len(self._iota):
            self._iota = np.arange(
                max(total, 2 * len(self._iota)), dtype=np.int64
            )
        cum = np.cumsum(cnt)
        # iota - repeat(exclusive-cumsum - start): one repeat pass instead
        # of two, and the iota ramp is a cached slice, not a fresh arange.
        pos = self._iota[:total] - np.repeat(cum - cnt - start, cnt)
        return np.repeat(varr, cnt), self._csr_targets[pos], pos

    # ------------------------------------------------------------------
    # Array-in/array-out round kernels
    # ------------------------------------------------------------------
    def bulk_inv1_violators_arr(self, cands: np.ndarray) -> np.ndarray:
        """The candidates that violate Invariant 1, as an array (sorted input
        stays sorted — the mask preserves order)."""
        if _OBS.enabled:
            _K_INV1.inc()
            _K_ROWS.inc(int(cands.size))
        lv = self._level_arr[cands]
        viol = (lv < self.params.max_level) & (self.up_deg[cands] > self._upper[lv])
        return cands[viol]

    def bulk_desire_levels_arr(
        self, cands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Desire levels of the Invariant-2 violators among ``cands``:
        ``(violators, desires)`` with the violators in input order.

        The closed form of :meth:`desire_level` over all violators at once:
        one sort of their neighbour levels by (violator, descending level)
        gives each neighbour's rank ``k``; ``D(k)`` is a ``searchsorted``
        into the threshold array, and a segmented max picks each violator's
        level.  The rows come from the adjacency sets, not
        :meth:`gather_rows`, so a round whose movers take the scalar path
        leaves the CSR view unbuilt.
        """
        if _OBS.enabled:
            _K_DESIRE.inc()
            _K_ROWS.inc(int(cands.size))
        lv = self._level_arr[cands]
        # lower[0] == 0, so level-0 candidates never violate.
        viol = self.up_deg[cands] + self.down1[cands] < self._lower[lv]
        v = cands[viol]
        desire = np.zeros(v.size, dtype=np.int64)
        nbrs = self.graph.neighbors_unsafe
        rows = [nbrs(x) for x in v.tolist()]
        cnt = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        total = int(cnt.sum())
        if total:
            num = self.params.num_levels
            flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)
            start = np.cumsum(cnt) - cnt
            # Sorting this key keeps each violator's rows together, in
            # violator order, and orders them by descending level.
            grp = np.repeat(np.arange(v.size, dtype=np.int64), cnt)
            key = np.sort(grp * num + (num - 1 - self._level_arr[flat]))
            lw = num - 1 - key % num
            rank = np.arange(1, total + 1, dtype=np.int64) - start[grp]
            reach = np.minimum(
                np.searchsorted(self._lower, rank, side="right") - 1, lw + 1
            )
            has = cnt > 0
            desire[has] = np.maximum.reduceat(reach, start[has])
            np.minimum(desire, lv[viol], out=desire)
        return v, desire

    def gather_round(self, movers: np.ndarray) -> tuple[np.ndarray, ...]:
        """One round's neighbour pass, shared by the marking hooks and the
        level kernels: :meth:`gather_rows`' ``(src, flat, pos)`` plus the
        co-mover mask ``co`` (the row's neighbour moves too) and the
        neighbour levels ``lw`` before the round."""
        src, flat, pos = self.gather_rows(movers)
        stamp = self._stamp
        stamp[movers] = True
        co = stamp[flat]
        stamp[movers] = False
        return src, flat, pos, co, self._level_arr[flat]

    def bulk_raise_level_rows(
        self,
        movers: np.ndarray,
        old: int,
        src: np.ndarray,
        flat: np.ndarray,
        co: np.ndarray,
        lw: np.ndarray,
    ) -> np.ndarray:
        """Move every vertex in ``movers`` from ``old`` to ``old + 1`` in one
        scatter pass over the rows of :meth:`gather_round`; returns the
        requeue set (non-mover neighbours at the destination level) as a
        sorted array.

        The counter delta of a simultaneous single-level raise reduces to
        three non-mover neighbour masks (mover–mover edges change nothing:
        both endpoints stay mutually "up", neither is the other's
        ``ℓ − 1``):

        * neighbour at ``old``   — mover loses an up-neighbour, and these
          are exactly its neighbours at its new ``ℓ − 1``;
        * neighbour at ``old+1`` — the mover becomes its up-neighbour and
          leaves its ``ℓ − 1``;
        * neighbour at ``old+2`` — the mover reaches its ``ℓ − 1``.

        Every mover sits at ``old``, so only the first mask can hold a
        co-mover row.  Equivalent to calling :meth:`set_level` once per
        mover (the counter state is a pure function of the final levels);
        the level scatter comes last, after all counters.

        Each mover's ``down1`` restarts from zero and is refilled by the
        first mask, so rows of neighbours below ``old`` and co-mover rows
        may be left out (the reused rows of a climbing cohort, see
        :func:`~repro.core.frontier.run_insert_rounds`); the reset runs
        even when no row is left.
        """
        new = old + 1
        if _OBS.enabled:
            _K_RAISE.inc()
            _K_ROWS.inc(int(movers.size))
        requeue = np.empty(0, dtype=np.int64)
        self.down1[movers] = 0
        if flat.size:
            # count_nonzero is the cheap emptiness test on the small masks
            # of typical rounds.
            at_old = (lw == old) & ~co
            if np.count_nonzero(at_old):
                t = src[at_old]
                np.add.at(self.up_deg, t, -1)
                np.add.at(self.down1, t, 1)
            at_new = lw == new
            if np.count_nonzero(at_new):
                t = flat[at_new]
                np.add.at(self.up_deg, t, 1)
                np.add.at(self.down1, t, -1)
                requeue = unique(t)
            above = lw == new + 1
            if np.count_nonzero(above):
                np.add.at(self.down1, flat[above], 1)
        self._level_arr[movers] = new
        return requeue

    def bulk_move_to_level_rows(
        self,
        movers: np.ndarray,
        lstar: int,
        src: np.ndarray,
        flat: np.ndarray,
        co: np.ndarray,
        lw: np.ndarray,
    ) -> None:
        """Move every mover to ``lstar`` (a strict down-move) in one scatter
        pass over the rows of :meth:`gather_round`.

        The rows are the movers' whole adjacency, so each mover's counters
        are recounted from its neighbours' final levels; each non-mover
        neighbour ``w`` patches its view of every adjacent mover (an up
        neighbour while ``lw <= ℓ(v)``, its ``ℓ − 1`` while
        ``ℓ(v) == lw − 1``; several movers may share a ``w``, hence
        ``np.add.at``).  Equivalent to interleaved :meth:`set_level` calls;
        the level scatter comes last.
        """
        if _OBS.enabled:
            _K_MOVE.inc()
            _K_ROWS.inc(int(movers.size))
        if flat.size:
            lw_new = np.where(co, lstar, lw)
            self.up_deg[movers] = 0
            self.down1[movers] = 0
            np.add.at(self.up_deg, src[lw_new >= lstar], 1)
            np.add.at(self.down1, src[lw_new == lstar - 1], 1)
            nm = ~co
            t = flat[nm]
            ov = self._level_arr[src[nm]]
            lw = lw[nm]
            # lstar < ov: v stops being up for lstar < lw <= ov.
            np.add.at(self.up_deg, t[(lw > lstar) & (lw <= ov)], -1)
            np.add.at(self.down1, t[lw == ov + 1], -1)
            np.add.at(self.down1, t[lw == lstar + 1], 1)
        self._level_arr[movers] = lstar


def make_store(
    backend: str, graph: DynamicGraph, params: LDSParams
) -> LevelStore:
    """Construct the level store named ``backend`` over ``graph``."""
    from repro.lds.bookkeeping import ObjectLevelStore

    if backend == "object":
        return ObjectLevelStore(graph, params)
    if backend == "columnar-frontier":
        return FrontierLevelStore(graph, params)
    raise ValueError(
        f"unknown level-store backend {backend!r} (available: {BACKENDS})"
    )
