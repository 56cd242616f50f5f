"""The two baselines of the paper's evaluation: NonSync and SyncReads.

* :class:`NonSyncKCore` — unsynchronized reads: a read returns the estimate
  from the vertex's *current* live level, whatever mid-batch intermediate
  state that is.  Fastest reads, **not linearizable**, and the estimate error
  is unbounded relative to the batch-boundary truth (§6.3 of the paper).
* :class:`SyncReadsKCore` — fully synchronous reads: a read generated while a
  batch is in flight blocks until the batch completes, then executes.  Always
  linearizable, but the read latency is dominated by the remaining batch
  time — this is the "orders of magnitude" gap of Fig 3/4.

Both expose the same surface as :class:`~repro.core.cplds.CPLDS` (``read``,
``read_verbose``, ``insert_batch``, ``delete_batch``), so harnesses and
examples can swap implementations freely.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

from repro.core.cplds import ReadResult
from repro.lds.params import LDSParams
from repro.lds.plds import PLDS, Phase, UpdateHooks
from repro.runtime.executor import Executor
from repro.types import Edge, Vertex


class _BatchCounter(UpdateHooks):
    """Counts phases into ``owner.batch_number``, as the CPLDS does.

    ``batch_begin`` fires once per phase after the edge filter has
    validated the batch, so a batch rejected for a bad edge leaves the
    number unchanged.  ``before_move`` stays the no-op, so the frontier
    round driver does no per-mover work for it.
    """

    __slots__ = ("owner",)

    def __init__(self, owner) -> None:
        self.owner = owner

    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        self.owner.batch_number += 1


class NonSyncKCore:
    """Unsynchronized (non-linearizable) baseline.

    The update path is the plain PLDS — no descriptors, no marking — which
    is why the paper's Fig 5 shows NonSync with the lowest update times.
    """

    def __init__(
        self,
        num_vertices: int,
        params: LDSParams | None = None,
        executor: Executor | None = None,
        backend: str = "object",
    ) -> None:
        self.plds = PLDS(
            num_vertices,
            params=params,
            executor=executor,
            hooks=_BatchCounter(self),
            backend=backend,
        )
        self.params = self.plds.params
        self.batch_number = 0

    # -- updates -------------------------------------------------------
    def insert_batch(self, edges: Iterable[Edge]) -> int:
        return self.plds.batch_insert(edges)

    def delete_batch(self, edges: Iterable[Edge]) -> int:
        return self.plds.batch_delete(edges)

    def apply_batch(
        self, insertions: Iterable[Edge] = (), deletions: Iterable[Edge] = ()
    ) -> tuple[int, int]:
        return self.plds.apply_batch(insertions, deletions)

    # -- reads ----------------------------------------------------------
    def read(self, v: Vertex) -> float:
        """Immediate read of the live level — may be a mid-batch level."""
        return self.params.coreness_estimate(self.plds.state.level[v])

    def read_level(self, v: Vertex) -> int:
        return self.plds.state.level[v]

    def read_verbose(self, v: Vertex) -> ReadResult:
        lvl = self.plds.state.level[v]
        return ReadResult(
            estimate=self.params.coreness_estimate(lvl),
            level=lvl,
            from_descriptor=False,
            retries=0,
            batch=self.batch_number,
        )

    # -- conveniences ----------------------------------------------------
    def coreness_estimate(self, v: Vertex) -> float:
        return self.plds.coreness_estimate(v)

    def levels(self) -> list[int]:
        return self.plds.levels()

    @property
    def graph(self):
        return self.plds.graph

    @property
    def backend(self) -> str:
        return self.plds.state.backend

    def snapshot_state(self) -> dict:
        """Capture the full quiescent state."""
        return {
            "backend": self.backend,
            "batch_number": self.batch_number,
            "plds": self.plds.snapshot_state(),
        }

    def restore_state(self, snap: dict) -> None:
        """Restore a :meth:`snapshot_state` capture in place."""
        self.plds.restore_state(snap["plds"])
        self.batch_number = snap["batch_number"]

    def check_invariants(self) -> None:
        self.plds.check_invariants()


class SyncReadsKCore:
    """Synchronous-reads baseline: reads wait for the in-flight batch.

    A condition variable models the paper's SyncReads discipline ("reads
    ... are performed ... at the end of the batch"): readers that arrive
    mid-batch block until the update thread signals batch completion; reads
    that arrive between batches execute immediately.  Holding the condition
    while reading also prevents the next batch from starting under a read,
    which is the batch/read mutual exclusion SyncReads implies.
    """

    def __init__(
        self,
        num_vertices: int,
        params: LDSParams | None = None,
        executor: Executor | None = None,
        backend: str = "object",
    ) -> None:
        self.plds = PLDS(
            num_vertices,
            params=params,
            executor=executor,
            hooks=_BatchCounter(self),
            backend=backend,
        )
        self.params = self.plds.params
        self.batch_number = 0
        self._cond = threading.Condition()
        self._in_batch = False
        self._waiting = 0

    # -- updates -------------------------------------------------------
    def _run_batch(self, fn, *args):
        with self._cond:
            self._in_batch = True
        try:
            return fn(*args)
        finally:
            with self._cond:
                self._in_batch = False
                self._cond.notify_all()

    def drain(self, timeout: float = 30.0) -> None:
        """Block until every read queued during the last batch was served.

        The paper folds the synchronous reads into the batch update time
        ("updates are blocked and cannot be performed until all synchronous
        reads finish"); the harness calls this right after each batch and
        counts the drain into the measured batch duration.
        """
        with self._cond:
            while self._waiting:
                if not self._cond.wait(timeout=timeout):
                    raise TimeoutError("SyncReads drain timed out")

    def insert_batch(self, edges: Iterable[Edge]) -> int:
        return self._run_batch(self.plds.batch_insert, list(edges))

    def delete_batch(self, edges: Iterable[Edge]) -> int:
        return self._run_batch(self.plds.batch_delete, list(edges))

    def apply_batch(
        self, insertions: Iterable[Edge] = (), deletions: Iterable[Edge] = ()
    ) -> tuple[int, int]:
        return self._run_batch(
            self.plds.apply_batch, list(insertions), list(deletions)
        )

    # -- reads ----------------------------------------------------------
    def read(self, v: Vertex) -> float:
        return self.read_verbose(v).estimate

    def read_level(self, v: Vertex) -> int:
        return self.read_verbose(v).level

    def read_verbose(self, v: Vertex) -> ReadResult:
        waited = 0
        with self._cond:
            if self._in_batch:
                self._waiting += 1
                try:
                    while self._in_batch:
                        self._cond.wait()
                        waited += 1
                finally:
                    self._waiting -= 1
                    if self._waiting == 0:
                        self._cond.notify_all()
            lvl = self.plds.state.level[v]
            batch = self.batch_number
        return ReadResult(
            estimate=self.params.coreness_estimate(lvl),
            level=lvl,
            from_descriptor=False,
            retries=waited,
            batch=batch,
        )

    # -- conveniences ----------------------------------------------------
    def coreness_estimate(self, v: Vertex) -> float:
        return self.plds.coreness_estimate(v)

    def levels(self) -> list[int]:
        return self.plds.levels()

    @property
    def graph(self):
        return self.plds.graph

    @property
    def backend(self) -> str:
        return self.plds.state.backend

    def snapshot_state(self) -> dict:
        """Capture the full quiescent state (no batch in flight)."""
        return {
            "backend": self.backend,
            "batch_number": self.batch_number,
            "plds": self.plds.snapshot_state(),
        }

    def restore_state(self, snap: dict) -> None:
        """Restore a :meth:`snapshot_state` capture in place."""
        self.plds.restore_state(snap["plds"])
        self.batch_number = snap["batch_number"]

    def check_invariants(self) -> None:
        self.plds.check_invariants()
