"""Multi-version epoch-snapshot read tier (the paper's async reads, scaled).

The paper's sandwich protocol (Algorithm 4) guarantees every read is at
most one epoch behind the live structure — but every reader still walks
the *live* arrays, so read fan-out shares cache lines (and, in CPython,
the GIL) with the update path.  This module pushes the asynchronous-reads
contribution to its production conclusion: the engine publishes an
**immutable level snapshot per batch epoch** (a cheap copy of the int64
level array at ``batch_end``), and any number of readers run **bulk**
queries — ``coreness_many``, top-k, level histograms, whole-subgraph
coreness — against a pinned epoch without ever touching the write path.

Three classes:

* :class:`EpochSnapshot` — one frozen ``(epoch, levels, params)`` triple
  with vectorized bulk query methods.  The level array is marked
  read-only; everything derived from it is a pure function, so a snapshot
  can be shared across threads (and cached downstream keyed by its epoch
  number) without synchronization.  The per-level estimate array is
  ``params.estimate_array``, built once per :class:`LDSParams` and shared
  by every snapshot of those params, so a publish costs one level copy.
  Query costs for ``q`` requested vertices: ``level`` / ``estimate``
  O(1); ``levels_many`` / ``coreness_many`` / ``subgraph_coreness`` O(q)
  (O(n) for ``coreness_many()`` of every vertex); ``level_histogram``
  O(n + levels); ``top_k`` O(n + levels + k log k) on its first call per
  snapshot, a selection rather than a sort, ordered by descending
  estimate with ties by ascending vertex id.  The snapshot keeps the
  longest top-k prefix selected so far, so a later call with k up to the
  largest k asked so far costs O(k): a bulk reader that asks an epoch
  the same question on every poll pays the selection once per epoch.
* :class:`EpochPin` — a reader's lease on one epoch.  All reads through a
  pin are **linearizable at that epoch**: they reflect exactly the state
  after the pinned batch, for as long as the pin holds.  The store's
  bounded-staleness policy may *force-advance* a pin that falls too far
  behind (or whose epoch was rolled back by recovery); the pin records
  how often that happened in :attr:`EpochPin.advanced`.
* :class:`EpochSnapshotStore` — the bounded multi-version window.  The
  write path calls :meth:`EpochSnapshotStore.publish` once per epoch (and
  :meth:`EpochSnapshotStore.reseed` after a recovery rolled history
  back); readers call :meth:`EpochSnapshotStore.pin`.  Unpinned epochs
  older than the retention window are evicted; pinned epochs survive
  until released unless the staleness budget forces the pin forward.

Concurrency contract: one writer thread publishes; any number of reader
threads pin and read.  The store's internal lock guards only O(window)
bookkeeping — never an O(n) copy (the copy happens on the write path,
outside any reader's critical section) and never a bulk query (those run
on the pinned snapshot without the lock).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import EpochUnavailableError
from repro.lds.params import LDSParams
from repro.obs import REGISTRY as _OBS
from repro.obs.staleness import (
    EPOCH_PINS as _EPOCH_PINS,
    EPOCH_PINS_ADVANCED as _EPOCH_PINS_ADVANCED,
    EPOCH_READS as _EPOCH_READS,
    EPOCH_READ_STALENESS as _EPOCH_READ_STALENESS,
    EPOCH_TOP_K_SELECTIONS as _EPOCH_TOP_K_SELECTIONS,
)
from repro.types import Vertex

__all__ = ["EpochPin", "EpochSnapshot", "EpochSnapshotStore"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: The empty top-k prefix every snapshot starts with.
_NO_TOP = (_frozen(np.empty(0, np.int64)), _frozen(np.empty(0, np.float64)))


class EpochSnapshot:
    """One immutable per-epoch view: the level array frozen at a batch end.

    Takes ownership of ``levels`` (callers pass a private copy, e.g. from
    ``LevelStore.snapshot_levels``); the array is coerced to int64 and
    marked read-only.  All query methods are pure and thread-safe.
    """

    __slots__ = ("epoch", "levels", "params", "_estimates", "_top")

    def __init__(
        self, epoch: int, levels, params: LDSParams
    ) -> None:
        arr = np.asarray(levels, dtype=np.int64)
        arr.setflags(write=False)
        self.epoch = int(epoch)
        self.levels = arr
        self.params = params
        # Per-level coreness estimates as an array, shared by every snapshot
        # of these params: bulk reads become one fancy-indexing gather.
        self._estimates = params.estimate_array
        # The longest top-k prefix selected so far: (vertex ids, estimates).
        self._top = _NO_TOP

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EpochSnapshot(epoch={self.epoch}, n={self.num_vertices})"

    @property
    def num_vertices(self) -> int:
        """Size of the vertex universe this snapshot covers."""
        return int(self.levels.shape[0])

    # -- scalar reads ---------------------------------------------------
    def level(self, v: Vertex) -> int:
        """Level of ``v`` as of this epoch."""
        return int(self.levels[v])

    def estimate(self, v: Vertex) -> float:
        """Coreness estimate of ``v`` as of this epoch."""
        return float(self._estimates[self.levels[v]])

    # -- bulk reads -----------------------------------------------------
    def levels_many(self, vertices: Sequence[Vertex]) -> np.ndarray:
        """Levels of ``vertices`` (int64 array, same order)."""
        idx = np.asarray(vertices, dtype=np.int64)
        return self.levels[idx]

    def coreness_many(
        self, vertices: Optional[Sequence[Vertex]] = None
    ) -> np.ndarray:
        """Coreness estimates of ``vertices`` (default: every vertex)."""
        if vertices is None:
            return self._estimates[self.levels]
        idx = np.asarray(vertices, dtype=np.int64)
        return self._estimates[self.levels[idx]]

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """The ``k`` highest-coreness vertices as ``(vertex, estimate)``.

        Deterministic: descending estimate, ties broken by ascending
        vertex id.  The first call per snapshot costs O(n + levels +
        k log k); later calls with k up to the largest k asked so far
        cost O(k), sliced from the stored prefix.
        """
        k = min(k, self.levels.size)
        if k <= 0:
            return []
        # The order is total, so the top k of any k is the first k entries
        # of any longer prefix.  No lock: the prefix is one attribute that
        # holds both arrays, so a reader never sees a torn pair.  Readers
        # that race on a miss compute equal prefixes, and a shorter prefix
        # overwriting a longer one only costs a later recompute.
        ids, est = self._top
        if ids.size < k:
            ids, est = self._top = self._select_top(k)
            if _OBS.enabled:
                _EPOCH_TOP_K_SELECTIONS.inc()
        return list(zip(ids[:k].tolist(), est[:k].tolist()))

    def _select_top(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(ids, estimates)`` of the top ``k``, ``1 <= k <= n``.

        A selection, not a sort: estimates take one value per level
        group, so they tie heavily, and only the fewer than ``k`` vertices
        strictly above the k-th largest estimate ``thr`` are sorted; the
        rest are the lowest-id vertices at ``thr``.
        """
        est = self._estimates[self.levels]
        # Estimates never fall as the level rises, so ``thr`` is the
        # estimate of the k-th largest level, read off the level histogram.
        # (``np.partition`` over the estimates is ten times slower when a
        # minority of vertices holds the top one of two distinct values.)
        at_or_above = np.cumsum(np.bincount(self.levels)[::-1])
        top = at_or_above.size - 1 - int(np.searchsorted(at_or_above, k))
        thr = self._estimates[top]
        above = np.flatnonzero(est > thr)
        above = above[np.argsort(-est[above], kind="stable")]
        ties = np.flatnonzero(est == thr)[: k - above.size]
        order = np.concatenate((above, ties))
        return _frozen(order), _frozen(est[order])

    def level_histogram(self) -> np.ndarray:
        """Vertex count per level (length ``params.num_levels``, int64)."""
        return np.bincount(
            self.levels, minlength=self.params.num_levels
        ).astype(np.int64)

    def subgraph_coreness(self, vertices: Iterable[Vertex]) -> Dict[int, float]:
        """Coreness estimates of a vertex subset as ``{vertex: estimate}``."""
        idx = np.asarray(list(vertices), dtype=np.int64)
        est = self._estimates[self.levels[idx]] if idx.size else idx
        return {int(v): float(c) for v, c in zip(idx, est)}


class EpochPin:
    """A reader's lease on one epoch: linearizable-at-epoch bulk reads.

    Constructed by :meth:`EpochSnapshotStore.pin`; usable as a context
    manager (releases on exit).  Every read method first lets the store
    apply its bounded-staleness policy (:meth:`EpochSnapshotStore.
    maybe_advance`): a pin within budget keeps returning bit-identical
    results; a pin over budget — or whose epoch was rolled back by
    recovery — is silently advanced to the newest retained epoch, with
    :attr:`advanced` incremented so callers can detect the jump.
    """

    __slots__ = ("_store", "_snap", "advanced", "_released")

    def __init__(self, store: "EpochSnapshotStore", snap: EpochSnapshot) -> None:
        self._store = store
        self._snap = snap
        #: How many times the staleness policy force-advanced this pin.
        self.advanced = 0
        self._released = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else f"epoch={self._snap.epoch}"
        return f"EpochPin({state}, advanced={self.advanced})"

    # -- lease management ----------------------------------------------
    @property
    def epoch(self) -> int:
        """The currently pinned epoch (may grow if force-advanced)."""
        return self._snap.epoch

    @property
    def released(self) -> bool:
        """True once :meth:`release` ran; reads then raise."""
        return self._released

    def release(self) -> None:
        """Give the epoch back to the store (idempotent)."""
        if not self._released:
            self._released = True
            self._store._release(self)

    def __enter__(self) -> "EpochPin":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def _read_snap(self) -> EpochSnapshot:
        """The snapshot to serve this read from, with obs accounting."""
        if self._released:
            raise EpochUnavailableError("epoch pin already released")
        self._store.maybe_advance(self)
        snap = self._snap
        if _OBS.enabled:
            _EPOCH_READS.inc()
            latest = self._store.latest_epoch
            if latest is not None:
                _EPOCH_READ_STALENESS.observe(max(0, latest - snap.epoch))
        return snap

    # -- reads (all linearizable at the pinned epoch) -------------------
    @property
    def snapshot(self) -> EpochSnapshot:
        """The pinned snapshot itself (after the staleness policy ran)."""
        return self._read_snap()

    def level(self, v: Vertex) -> int:
        """Level of ``v`` at the pinned epoch."""
        return self._read_snap().level(v)

    def estimate(self, v: Vertex) -> float:
        """Coreness estimate of ``v`` at the pinned epoch."""
        return self._read_snap().estimate(v)

    def levels_many(self, vertices: Sequence[Vertex]) -> np.ndarray:
        """Bulk levels at the pinned epoch."""
        return self._read_snap().levels_many(vertices)

    def coreness_many(
        self, vertices: Optional[Sequence[Vertex]] = None
    ) -> np.ndarray:
        """Bulk coreness estimates at the pinned epoch."""
        return self._read_snap().coreness_many(vertices)

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """Top-k coreness at the pinned epoch."""
        return self._read_snap().top_k(k)

    def level_histogram(self) -> np.ndarray:
        """Level histogram at the pinned epoch."""
        return self._read_snap().level_histogram()

    def subgraph_coreness(self, vertices: Iterable[Vertex]) -> Dict[int, float]:
        """Subgraph coreness at the pinned epoch."""
        return self._read_snap().subgraph_coreness(vertices)


class EpochSnapshotStore:
    """Bounded multi-version window of epoch snapshots with pin/release.

    Parameters
    ----------
    window:
        Retain at most this many snapshots (the newest ones).  Older
        *unpinned* snapshots are evicted on publish; pinned ones survive
        until released.
    max_staleness:
        Bounded-staleness budget in epochs.  A pin whose epoch falls more
        than this many epochs behind the newest published epoch is
        force-advanced to the newest snapshot (on publish, or lazily at
        its next read).  ``None`` disables force-advancing — pins then
        only move when their epoch is rolled back by :meth:`reseed`.
    publish_every:
        Publish cadence: :meth:`accepts` admits only epochs divisible by
        this, so a huge graph can trade read-tier freshness for fewer
        O(n) copies.  :meth:`reseed` ignores the cadence (the recovery
        point must always be retained).
    """

    def __init__(
        self,
        *,
        window: int = 8,
        max_staleness: Optional[int] = None,
        publish_every: int = 1,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if publish_every < 1:
            raise ValueError("publish_every must be >= 1")
        if max_staleness is not None and max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        self.window = window
        self.max_staleness = max_staleness
        self.publish_every = publish_every
        self._lock = threading.Lock()
        self._snaps: Dict[int, EpochSnapshot] = {}
        self._pincount: Dict[int, int] = {}
        self._live: Set[EpochPin] = set()
        self._latest: Optional[int] = None
        #: Lifetime counters (monotonic; cheap introspection for tests).
        self.published_total = 0
        self.evicted_total = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EpochSnapshotStore(latest={self._latest}, "
            f"retained={len(self._snaps)}, pins={len(self._live)})"
        )

    # -- write path (single publisher) ----------------------------------
    def accepts(self, epoch: int) -> bool:
        """Whether the publish cadence admits ``epoch``."""
        return epoch % self.publish_every == 0

    def publish(
        self, epoch: int, levels, *, params: LDSParams
    ) -> EpochSnapshot:
        """Publish the level array frozen at the end of ``epoch``.

        Takes ownership of ``levels``.  Evicts unpinned snapshots beyond
        the window and force-advances pins over the staleness budget.
        """
        snap = EpochSnapshot(epoch, levels, params)
        with self._lock:
            self._snaps[snap.epoch] = snap
            if self._latest is None or snap.epoch > self._latest:
                self._latest = snap.epoch
            self.published_total += 1
            self._advance_over_budget_locked()
            self._evict_locked()
        return snap

    def reseed(self, epoch: int, levels, *, params: LDSParams) -> EpochSnapshot:
        """Re-anchor the store at ``epoch`` after a recovery.

        Epochs *newer* than ``epoch`` were rolled back (the crash lost
        them) and are dropped — pins holding them advance at their next
        read.  Epochs at or before ``epoch`` stay retained, so a pinned
        pre-crash epoch keeps serving bit-identical reads across the
        recovery.  Bypasses the publish cadence.
        """
        snap = EpochSnapshot(epoch, levels, params)
        with self._lock:
            for e in [e for e in self._snaps if e > snap.epoch]:
                del self._snaps[e]
                self.evicted_total += 1
            self._snaps[snap.epoch] = snap
            self._latest = snap.epoch
            self.published_total += 1
            self._advance_over_budget_locked()
            self._evict_locked()
        return snap

    # -- read path (any thread) -----------------------------------------
    @property
    def latest_epoch(self) -> Optional[int]:
        """The newest published epoch (None before the first publish)."""
        return self._latest

    def newest(self) -> Optional[EpochSnapshot]:
        """The newest retained snapshot (None before the first publish)."""
        with self._lock:
            if self._latest is None:
                return None
            return self._snaps.get(self._latest)

    def pin(self, epoch: Optional[int] = None) -> EpochPin:
        """Lease ``epoch`` (default: the newest) for reading.

        Raises :class:`~repro.errors.EpochUnavailableError` when the
        epoch was evicted or never published.
        """
        with self._lock:
            if self._latest is None:
                raise EpochUnavailableError("no epoch published yet")
            e = self._latest if epoch is None else int(epoch)
            snap = self._snaps.get(e)
            if snap is None:
                raise EpochUnavailableError(
                    f"epoch {e} is not retained "
                    f"(window: {sorted(self._snaps)})"
                )
            pin = EpochPin(self, snap)
            self._pincount[e] = self._pincount.get(e, 0) + 1
            self._live.add(pin)
        if _OBS.enabled:
            _EPOCH_PINS.inc()
        return pin

    def maybe_advance(self, pin: EpochPin) -> bool:
        """Apply the staleness policy to one pin; True if it moved.

        A pin moves only when its epoch is gone from the store (rolled
        back by :meth:`reseed`) or over the ``max_staleness`` budget.
        Pins of a superseded store (e.g. held across a simulated process
        death) are left untouched: their snapshots stay bit-identical.
        """
        with self._lock:
            if pin._released or pin not in self._live:
                return False
            snap = pin._snap
            gone = snap.epoch not in self._snaps
            over = (
                self.max_staleness is not None
                and self._latest is not None
                and self._latest - snap.epoch > self.max_staleness
            )
            if not (gone or over):
                return False
            if self._latest is None or self._latest not in self._snaps:
                return False  # pragma: no cover - store emptied defensively
            self._advance_pin_locked(pin)
            self._evict_locked()
            return True

    def retained_epochs(self) -> Tuple[int, ...]:
        """The epochs currently retained, oldest first."""
        with self._lock:
            return tuple(sorted(self._snaps))

    @property
    def pins(self) -> int:
        """Number of live (unreleased) pins."""
        return len(self._live)

    # -- internals (lock held) ------------------------------------------
    def _release(self, pin: EpochPin) -> None:
        with self._lock:
            if pin not in self._live:
                return
            self._live.discard(pin)
            e = pin._snap.epoch
            cnt = self._pincount.get(e, 0) - 1
            if cnt > 0:
                self._pincount[e] = cnt
            else:
                self._pincount.pop(e, None)
            self._evict_locked()

    def _evict_locked(self) -> None:
        epochs = sorted(self._snaps)
        keep = set(epochs[-self.window:])
        for e in epochs:
            if e not in keep and self._pincount.get(e, 0) == 0:
                del self._snaps[e]
                self.evicted_total += 1

    def _advance_over_budget_locked(self) -> None:
        if self.max_staleness is None or self._latest is None:
            return
        for pin in list(self._live):
            if self._latest - pin._snap.epoch > self.max_staleness:
                self._advance_pin_locked(pin)

    def _advance_pin_locked(self, pin: EpochPin) -> None:
        assert self._latest is not None
        newest = self._snaps[self._latest]
        old = pin._snap.epoch
        if newest.epoch == old:
            return
        cnt = self._pincount.get(old, 0) - 1
        if cnt > 0:
            self._pincount[old] = cnt
        else:
            self._pincount.pop(old, None)
        pin._snap = newest
        pin.advanced += 1
        self._pincount[newest.epoch] = self._pincount.get(newest.epoch, 0) + 1
        if _OBS.enabled:
            _EPOCH_PINS_ADVANCED.inc()
