"""Level-store backends: the storage seam under LDS/PLDS/CPLDS.

Every level structure in this library maintains the same three per-vertex
quantities — the live ``level``, the up-degree ``up_deg`` and the
below-level counter map ``down`` — but nothing about the *algorithms*
(rebalance sweeps, marking, the read sandwich) depends on how those
quantities are laid out in memory.  Two layouts implement the contract:

* :class:`~repro.lds.bookkeeping.ObjectLevelStore` (``"object"``) — plain
  Python lists + dict-of-counts.  Kept as the semantic reference; the
  array store is differentially tested against it.
* :class:`FrontierLevelStore` (``"columnar-frontier"``) — GBBS-style flat
  state driven by whole-frontier rounds.  ``level`` is mirrored into an
  ``int64`` array, ``up_deg`` is an ``int64`` array and ``down`` is a dense
  ``(n × width)`` counter matrix (``width`` grows lazily with the highest
  occupied level).  An incrementally maintained flat edge list is frozen
  into a CSR view once per phase (:meth:`FrontierLevelStore.sync_csr`);
  neighbour gathers are ``offsets``/``targets`` slices, and the
  array-in/array-out round kernels
  (:meth:`~FrontierLevelStore.bulk_inv1_violators_arr`,
  :meth:`~FrontierLevelStore.bulk_desire_levels_arr`,
  :meth:`~FrontierLevelStore.bulk_raise_level_rows`,
  :meth:`~FrontierLevelStore.bulk_move_to_level_rows`) are consumed by the
  frontier round driver in :mod:`repro.core.frontier`.

Both expose the same surface (see :class:`LevelStore`); pick one with
:func:`make_store` or — at the system level — via
``repro.engines.create(name, backend=...)``.

Concurrency note: both layouts expose ``level`` as a plain Python list —
element reads are one C-level operation under the CPython GIL, which is the
single-word-read atomicity the paper's read protocol assumes (and a list
read returns an unboxed ``int``, keeping the reader hot path allocation
free).  The array store mirrors the list into a private ``int64`` array
for its vectorised kernels; the list is always written last, so it is the
reader-visible word.  The counter structures remain writer-private.
"""

from __future__ import annotations

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
    def recompute_counters(self): ...
    def assert_counters_consistent(self) -> None: ...


class FrontierLevelStore:
    """Flat-array level state, a per-phase CSR view and whole-frontier
    round kernels: the backend behind the ``columnar-frontier`` engine.

    ``up_deg`` is a flat ``int64`` array and ``down`` a dense ``(n, width)``
    counter matrix whose ``width`` lazily doubles to cover the highest level
    any vertex has occupied (bounded by ``params.num_levels``); the
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
        "params", "graph", "level", "up_deg", "down",
        "_level_arr", "_stamp", "_width", "_upper", "_lower", "_lower_list",
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
        num_levels = params.num_levels
        # The live, reader-visible levels: a plain list (fast unboxed scalar
        # reads for the read protocol and the per-move hot loops), mirrored
        # into an int64 array for the vectorised kernels.
        self.level = [0] * n
        self._level_arr = np.zeros(n, dtype=np.int64)
        self.up_deg = np.zeros(n, dtype=np.int64)
        self._width = min(num_levels, 8)
        self.down = np.zeros((n, self._width), dtype=np.int64)
        self._stamp = np.zeros(n, dtype=bool)  # scratch for bulk kernels
        self._upper, self._lower = params.threshold_arrays()
        self._lower_list = self._lower.tolist()
        # All vertices start at level 0: every pre-existing neighbour is up.
        for v in range(n):
            d = graph.degree(v)
            if d:
                self.up_deg[v] = d
        self._graph_version = -1
        self._csr_version = -1
        self._csr_offsets = np.zeros(n + 1, dtype=np.int64)
        self._csr_targets = np.empty(0, dtype=np.int64)
        self._iota = np.arange(1024, dtype=np.int64)
        self._resync_edges()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_level(self, v: Vertex) -> int:
        """The live level of ``v`` — a single atomic list read."""
        return self.level[v]

    def levels_snapshot(self) -> list[int]:
        """A plain-int copy of all live levels (quiescent use only)."""
        return list(self.level)

    def snapshot_levels(self) -> np.ndarray:
        """An O(n) array copy of the live levels (indexable snapshot)."""
        return self._level_arr.copy()

    # ------------------------------------------------------------------
    # Capacity management for the dense down matrix
    # ------------------------------------------------------------------
    def _width_for(self, lvl: int) -> int:
        """The matrix width that covers level ``lvl`` (doubling growth)."""
        num_levels = self.params.num_levels
        width = self._width
        while width <= lvl:
            width = min(num_levels, max(width * 2, lvl + 1))
        return width

    def _ensure_width(self, lvl: int) -> None:
        if lvl < self._width:
            return
        new = self._width_for(lvl)
        grown = np.zeros((self.down.shape[0], new), dtype=np.int64)
        grown[:, : self._width] = self.down
        self.down = grown
        self._width = new

    def _down_flat(self) -> np.ndarray:
        """``down`` as a flat writable view: cell ``(v, l)`` sits at
        ``v * width + l``.

        Scatters whose column varies per row use ``np.add.at`` on this view
        with precomputed indices: the 2-D tuple form ``(rows, cols)`` takes
        NumPy's multi-index path, 2.4–4× slower from ~1k indices up.
        Re-take the view after :meth:`_ensure_width` or :meth:`load_levels`,
        which may reallocate ``down``.

        Unlike the 2-D forms, a flat index does not bounds-check its column:
        ``l >= width`` would land in row ``v + 1`` instead of raising.  Every
        flat scatter writes a "below" cell, whose column is a neighbour level
        under the row vertex's own level, and every level is published only
        after the width covers it, so ``l < level(v) < width``.
        A level corrupted past ``width`` is therefore not caught here, but by
        :meth:`assert_counters_consistent` (level mirror check, and any
        neighbour level ``>= width`` counts as a mismatch).
        """
        flat = self.down.ravel()
        # Every assignment to `down` allocates a fresh C-contiguous matrix,
        # so ravel() is a view; a copy would silently drop the scatters.
        assert flat.base is not None
        return flat

    # ------------------------------------------------------------------
    # Edge bookkeeping
    # ------------------------------------------------------------------
    def on_edge_inserted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a newly inserted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] += 1
        else:
            self.down[u, lv] += 1
        if lu >= lv:
            self.up_deg[v] += 1
        else:
            self.down[v, lu] += 1

    def on_edge_deleted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a just-deleted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] -= 1
        else:
            self.down[u, lv] -= 1
        if lu >= lv:
            self.up_deg[v] -= 1
        else:
            self.down[v, lu] -= 1

    def apply_edges(
        self, edges: Iterable[tuple[Vertex, Vertex]], kind: str
    ) -> list[tuple[Vertex, Vertex]]:
        """Apply one pre-filtered batch to the graph, fix all counters with
        two ``np.add.at`` scatter kernels (one per endpoint side), and track
        the batch in the flat edge list."""
        batch = list(edges)
        if not batch:
            return batch
        pre = self.graph.version
        if kind == "insert":
            applied = self.graph.insert_batch(batch)
            sign = 1
        elif kind == "delete":
            applied = self.graph.delete_batch(batch)
            sign = -1
        else:
            raise ValueError(f"unknown edge-batch kind {kind!r}")
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
        down = self._down_flat()
        width = self._width
        for a, b in ((arr[:, 0], arr[:, 1]), (arr[:, 1], arr[:, 0])):
            la = level[a]
            lb = level[b]
            up = lb >= la
            if up.any():
                np.add.at(self.up_deg, a[up], sign)
            dn = ~up
            if dn.any():
                np.add.at(down, a[dn] * width + lb[dn], sign)

    # ------------------------------------------------------------------
    # Level changes
    # ------------------------------------------------------------------
    def set_level(self, v: Vertex, new_level: int) -> None:
        """Move ``v`` to ``new_level``, fixing all affected counters.

        Semantics identical to the object store's; the live level write
        happens last.  Large neighbourhoods are reclassified with masked
        array kernels, tiny ones with a scalar loop.
        """
        old = self.level[v]
        new_level = int(new_level)
        if new_level == old:
            return
        if not 0 <= new_level < self.params.num_levels:
            raise ValueError(
                f"new_level {new_level} out of range [0, {self.params.num_levels})"
            )
        self._ensure_width(new_level)
        nbrs = self.graph.neighbors_unsafe(v)
        if len(nbrs) >= self._VECTOR_MIN_DEG:
            self._set_level_vector(v, old, new_level, nbrs)
        elif nbrs:
            self._set_level_scalar(v, old, new_level, nbrs)
        self._level_arr[v] = new_level
        self.level[v] = new_level

    def _set_level_scalar(
        self, v: Vertex, old: int, new_level: int, nbrs: set
    ) -> None:
        level = self.level
        up_deg = self.up_deg
        down = self.down
        moving_up = new_level > old
        lo, hi = (old, new_level) if moving_up else (new_level, old)
        for w in nbrs:
            lw = level[w]
            was_up = old >= lw
            is_up = new_level >= lw
            if was_up and not is_up:
                up_deg[w] -= 1
                down[w, new_level] += 1
            elif not was_up and is_up:
                down[w, old] -= 1
                up_deg[w] += 1
            elif not was_up and not is_up:
                down[w, old] -= 1
                down[w, new_level] += 1
            if lw >= hi or lw < lo:
                continue
            if moving_up:
                up_deg[v] -= 1
                down[v, lw] += 1
            else:
                down[v, lw] -= 1
                up_deg[v] += 1

    def _set_level_vector(
        self, v: Vertex, old: int, new_level: int, nbrs: set
    ) -> None:
        w = np.fromiter(nbrs, count=len(nbrs), dtype=np.int64)
        lw = self._level_arr[w]
        was_up = lw <= old
        is_up = lw <= new_level
        # w's view of v (neighbour sets are duplicate-free, so plain fancy
        # assignment is safe on the w side).
        up2down = was_up & ~is_up
        if up2down.any():
            t = w[up2down]
            self.up_deg[t] -= 1
            self.down[t, new_level] += 1
        down2up = ~was_up & is_up
        if down2up.any():
            t = w[down2up]
            self.down[t, old] -= 1
            self.up_deg[t] += 1
        down2down = ~was_up & ~is_up
        if down2down.any():
            t = w[down2down]
            self.down[t, old] -= 1
            self.down[t, new_level] += 1
        # v's view of w: only neighbours whose level sits between the old
        # and new level switch sides (duplicates possible per level, so
        # scatter with np.add.at).
        if new_level > old:
            crossed = (lw >= old) & (lw < new_level)
            k = int(crossed.sum())
            if k:
                self.up_deg[v] -= k
                np.add.at(self.down[v], lw[crossed], 1)
        else:
            crossed = (lw >= new_level) & (lw < old)
            k = int(crossed.sum())
            if k:
                self.up_deg[v] += k
                np.subtract.at(self.down[v], lw[crossed], 1)

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
        at_or_above = self.up_deg[v] + self.down[v, lvl - 1]
        return bool(at_or_above >= self._lower[lvl])

    def desire_level(self, v: Vertex) -> int:
        """Max feasible level ``d <= ℓ(v)`` — descending suffix scan.

        ``cnt(d) = up_deg(v) + Σ_{j >= d-1} down(v)[j]`` is the number of
        neighbours at ``>= d − 1``; the answer is the highest ``d`` with
        ``cnt(d) >= lower_threshold(d)``.  One row ``tolist`` then plain-int
        arithmetic: levels are O(log² n), so a Python scan beats the numpy
        fixed costs of a cumsum kernel on every realistic input.
        Equivalent to the object store's breakpoint scan (differentially
        tested).
        """
        lvl = self.level[v]
        if lvl == 0:
            return 0
        m = min(lvl, self._width)
        row = self.down[v, :m].tolist()
        up = int(self.up_deg[v])
        lower = self._lower_list
        suffix = 0
        for d in range(lvl, 0, -1):
            if d - 1 < m:
                suffix += row[d - 1]
            if up + suffix >= lower[d]:
                return d
        return 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all levels and recompute counters for the current graph
        (every vertex back at level 0)."""
        n = self.graph.num_vertices
        self.level[:] = [0] * n
        self._level_arr[:] = 0
        self.up_deg[:] = 0
        self.down[:] = 0
        graph = self.graph
        for v in range(graph.num_vertices):
            d = graph.degree(v)
            if d:
                self.up_deg[v] = d

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
        self.level[:] = arr.tolist()
        self.up_deg[:] = 0
        # A fresh zero matrix at the covering width: growing the old one
        # would copy counters that are about to be discarded.
        if n:
            self._width = self._width_for(int(arr.max()))
        self.down = np.zeros((n, self._width), dtype=np.int64)
        edges = self.graph.edge_array()
        if edges.size:
            self._scatter_counters(edges, 1)

    def snapshot(self):
        """O(1)-ish state snapshot: three array copies."""
        return (
            self._level_arr.copy(), self.up_deg.copy(), self.down.copy()
        )

    def restore(self, snap) -> None:
        """Restore a :meth:`snapshot` (the snapshot stays reusable).

        ``level``/``up_deg`` are written in place so references held by the
        read hot path stay valid.
        """
        level, up_deg, down = snap
        self._level_arr[:] = level
        self.level[:] = level.tolist()
        self.up_deg[:] = up_deg
        if down.shape[1] != self._width:
            self.down = down.copy()
            self._width = down.shape[1]
        else:
            self.down[:] = down

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def recompute_counters(self) -> tuple[list[int], list[dict[int, int]]]:
        """Recompute ``up_deg`` / ``down`` from scratch, in the common
        (list, dict-per-vertex) exchange format."""
        n = self.graph.num_vertices
        up = [0] * n
        down: list[dict[int, int]] = [dict() for _ in range(n)]
        level = self.level
        for v in range(n):
            lv = level[v]
            for w in self.graph.neighbors_unsafe(v):
                lw = level[w]
                if lw >= lv:
                    up[v] += 1
                else:
                    key = int(lw)
                    down[v][key] = down[v].get(key, 0) + 1
        return up, down

    def assert_counters_consistent(self) -> None:
        """Raise ``AssertionError`` if any counter drifted from the graph.

        Whole-array, O(n + m + nnz(down)): ``up_deg`` is recomputed with one
        ``bincount`` over the graph's CSR snapshot, and the below-level
        neighbour counts as sorted ``(vertex, level)`` keys with counts,
        compared against the nonzero cells of ``down`` (a neighbour level
        outside the matrix has no cell, so it counts as a mismatch).  Only
        on a mismatch does the per-vertex scan run, to name the first bad
        vertex exactly as the object store's check does.
        """
        mirror = self._level_arr.tolist()
        if self.level != mirror:
            v = next(
                (i for i, (a, b) in enumerate(zip(self.level, mirror)) if a != b),
                min(len(self.level), len(mirror)),
            )
            raise AssertionError(
                f"level list and its array mirror diverged at vertex {v}"
            )
        if not self._counters_match():
            self._scan_counters()

    def _counters_match(self) -> bool:
        """The whole-array comparison; False may also mean "cannot tell"
        (negative levels), which the exact scan then settles."""
        level = self._level_arr
        n = level.size
        if n and level.min() < 0:
            return False  # no key radix below; the scan names the vertex
        csr = csr_view(self.graph)
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.offsets))
        ls = level[src]
        lw = level[csr.targets]
        is_up = lw >= ls
        if not np.array_equal(np.bincount(src[is_up], minlength=n), self.up_deg):
            return False
        width = self._width
        # Keys v * span + level(w), with span above every level present.
        span = max(width, int(level.max()) + 1 if n else 0)
        below = ~is_up
        keys, counts = unique(src[below] * span + lw[below], return_counts=True)
        flat = self._down_flat()
        cells = np.flatnonzero(flat)
        return np.array_equal(
            keys, cells // width * span + cells % width
        ) and np.array_equal(counts, flat[cells])

    def _scan_counters(self) -> None:
        """Per-vertex counter check (raises on the first bad vertex)."""
        up, down = self.recompute_counters()
        width = self._width
        for v in range(self.graph.num_vertices):
            if up[v] != int(self.up_deg[v]):
                raise AssertionError(
                    f"up_deg[{v}] = {int(self.up_deg[v])}, recomputed {up[v]}"
                )
            row = {
                lvl: int(c)
                for lvl, c in enumerate(self.down[v, :width].tolist())
                if c
            }
            if down[v] != row:
                raise AssertionError(
                    f"down[{v}] = {row}, recomputed {down[v]}"
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

    def gather_rows(self, varr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All CSR adjacency rows of ``varr`` flattened: ``(src, flat)``
        where ``flat[i]`` is a neighbour of ``src[i]``.  Syncs the CSR view
        on demand (a two-comparison no-op when already current), so phases
        that never gather skip the rebuild entirely."""
        self.sync_csr()
        offsets = self._csr_offsets
        start = offsets[varr]
        cnt = offsets[varr + 1] - start
        total = int(cnt.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if total > len(self._iota):
            self._iota = np.arange(
                max(total, 2 * len(self._iota)), dtype=np.int64
            )
        cum = np.cumsum(cnt)
        # iota - repeat(exclusive-cumsum - start): one repeat pass instead
        # of two, and the iota ramp is a cached slice, not a fresh arange.
        idx = self._iota[:total] - np.repeat(cum - cnt - start, cnt)
        return np.repeat(varr, cnt), self._csr_targets[idx]

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

        The desire level — the highest ``d <= ℓ(v)`` whose neighbour count
        ``up_deg + Σ_{j >= d-1} down[j]`` meets ``lower_threshold(d)`` — is
        computed for all violators at once from a reversed-cumsum suffix
        matrix, replacing the per-vertex descending Python scan.
        """
        if _OBS.enabled:
            _K_DESIRE.inc()
            _K_ROWS.inc(int(cands.size))
        lv = self._level_arr[cands]
        positive = lv > 0
        below = np.where(positive, lv - 1, 0)
        cnt0 = self.up_deg[cands] + np.where(positive, self.down[cands, below], 0)
        viol = positive & (cnt0 < self._lower[lv])
        v = cands[viol]
        if v.size == 0:
            return v, np.empty(0, dtype=np.int64)
        lvl_v = lv[viol]
        width = self._width
        rows = self.down[v]
        # suffix[:, j] = Σ_{k >= j} rows[:, k]; padded with a zero column at
        # index `width` so `d - 1 >= width` contributes nothing.
        suffix = np.zeros((len(v), width + 1), dtype=np.int64)
        suffix[:, :width] = rows[:, ::-1].cumsum(axis=1)[:, ::-1]
        d = np.arange(1, int(lvl_v.max()) + 1, dtype=np.int64)
        cnt = self.up_deg[v][:, None] + suffix[:, np.minimum(d - 1, width)]
        feasible = (cnt >= self._lower[d][None, :]) & (d[None, :] <= lvl_v[:, None])
        desire = np.where(feasible, d[None, :], 0).max(axis=1)
        return v, desire

    def bulk_raise_level_rows(
        self, movers: np.ndarray, old: int, src: np.ndarray, flat: np.ndarray
    ) -> np.ndarray:
        """Move every vertex in ``movers`` from ``old`` to ``old + 1`` in one
        scatter pass over the pre-gathered CSR rows; returns the requeue set
        (non-mover neighbours at the destination level) as a sorted array.

        The counter delta of a simultaneous single-level raise reduces to
        three neighbour masks (mover–mover edges cancel: both endpoints
        stay mutually "up"):

        * neighbour at ``old``   — mover loses an up-neighbour, gains
          ``down[old]``;
        * neighbour at ``old+1`` — neighbour's ``down[old]`` becomes an
          up-neighbour;
        * neighbour above        — neighbour's ``down[old]`` shifts to
          ``down[old+1]``.

        Equivalent to calling :meth:`set_level` once per mover (the counter
        state is a pure function of the final levels); the live level list
        is written last, after all counters.
        """
        new = old + 1
        self._ensure_width(new)
        if _OBS.enabled:
            _K_RAISE.inc()
            _K_ROWS.inc(int(movers.size))
        requeue = np.empty(0, dtype=np.int64)
        if flat.size:
            stamp = self._stamp
            stamp[movers] = True
            keep = ~stamp[flat]
            stamp[movers] = False
            f = flat[keep]
            s = src[keep]
            lw = self._level_arr[f]
            # Single-column scatters stay on column views, which measured
            # as fast as the flat view (see _down_flat) and faster on small
            # rounds.  count_nonzero is the cheap emptiness test on the
            # small masks of typical rounds.
            at_old = lw == old
            if np.count_nonzero(at_old):
                t = s[at_old]
                np.add.at(self.up_deg, t, -1)
                np.add.at(self.down[:, old], t, 1)
            # Neighbours above old (all at >= new) leave v's down[old]
            # class …
            above_old = lw > old
            if np.count_nonzero(above_old):
                fa = f[above_old]
                np.add.at(self.down[:, old], fa, -1)
                # … landing in up_deg (== new) or down[new] (> new).
                at_new = lw[above_old] == new
                t = fa[at_new]
                if t.size:
                    np.add.at(self.up_deg, t, 1)
                    requeue = unique(t)
                t = fa[~at_new]
                if t.size:
                    np.add.at(self.down[:, new], t, 1)
        self._level_arr[movers] = new
        level = self.level
        for v in movers.tolist():
            level[v] = new
        return requeue

    def bulk_move_to_level_rows(
        self, movers: np.ndarray, lstar: int, src: np.ndarray, flat: np.ndarray
    ) -> None:
        """Move every mover to ``lstar`` (a strict down-move) in one scatter
        pass over the pre-gathered rows.

        Counter state is a pure function of the final levels, so each row
        (``v=src[i]`` mover, ``w=flat[i]``) contributes a remove-old-class /
        add-new-class delta to ``v``'s ledger and — for non-mover ``w`` — to
        ``w``'s view of ``v``; mover–mover edges appear as two rows, one per
        direction, and intermediate cancellations are harmless under
        ``np.add.at``.  Equivalent to interleaved :meth:`set_level` calls;
        the live level list is written last.
        """
        self._ensure_width(lstar)
        if _OBS.enabled:
            _K_MOVE.inc()
            _K_ROWS.inc(int(movers.size))
        if flat.size:
            stamp = self._stamp
            stamp[movers] = True
            w_moves = stamp[flat]
            stamp[movers] = False
            lw_old = self._level_arr[flat]
            old_src = self._level_arr[src]
            lw_new = np.where(w_moves, lstar, lw_old)
            down = self._down_flat()
            width = self._width
            # v's ledger: remove w's old class, add its new class.
            row = src * width
            old_up = lw_old >= old_src
            np.add.at(self.up_deg, src[old_up], -1)
            dn = ~old_up
            np.add.at(down, row[dn] + lw_old[dn], -1)
            new_up = lw_new >= lstar
            np.add.at(self.up_deg, src[new_up], 1)
            dn = ~new_up
            np.add.at(down, row[dn] + lw_new[dn], 1)
            # Non-mover w's view of v (mover w rows are covered by their own
            # symmetric row).
            nm = ~w_moves
            t = flat[nm]
            ov = old_src[nm]
            lw = lw_old[nm]
            was_up = ov >= lw
            np.add.at(self.up_deg, t[was_up], -1)
            np.add.at(down, t[~was_up] * width + ov[~was_up], -1)
            is_up = lstar >= lw
            np.add.at(self.up_deg, t[is_up], 1)
            np.add.at(self.down[:, lstar], t[~is_up], 1)
        self._level_arr[movers] = lstar
        level = self.level
        for v in movers.tolist():
            level[v] = lstar


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
