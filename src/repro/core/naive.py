"""The Section 4 strawman: per-vertex descriptors *without* DAG tracking.

"A first and naive version of our algorithm ... if a read of v finds that v
is marked with an active descriptor, the read must return the old level of
v."  The strawman prevents a reader from observing an individual vertex's
intermediate level, but it does **not** prevent *new-old inversions* between
causally dependent vertices: at batch end the descriptors are cleared one by
one with no root-first ordering, so a reader can observe one vertex of a
dependency chain already unmarked (new level) and then another vertex of the
same chain still marked (old level) — impossible in any sequential
execution.

The linearizability tests construct exactly that schedule through the
``on_unmark_step`` hook and show the checker rejecting this structure while
accepting the CPLDS, reproducing the paper's motivation for the DAG
atomicity rule.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional, Sequence

from repro.core.cplds import ReadResult, drive, read_steps
from repro.core.descriptor import Descriptor, UNMARKED
from repro.lds.params import LDSParams
from repro.lds.plds import PLDS, Phase, UpdateHooks
from repro.runtime.executor import Executor
from repro.types import Edge, Vertex


class _NaiveHooks(UpdateHooks):
    __slots__ = ("owner", )

    def __init__(self, owner: "NaiveMarkedKCore") -> None:
        self.owner = owner

    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        self.owner.batch_number += 1

    def before_move(self, v: Vertex, old: int, new: int, phase: Phase) -> None:
        owner = self.owner
        if owner.slots[v] is UNMARKED:
            owner.slots[v] = Descriptor(
                v, old_level=old, batch=owner.batch_number
            )
            owner._marked.append(v)

    def batch_end(self) -> None:
        owner = self.owner
        # Unmark one vertex at a time, in marking order, with NO atomicity
        # across a dependency chain — this is the strawman's flaw.
        for v in owner._marked:
            owner.slots[v] = UNMARKED
            if owner.on_unmark_step is not None:
                owner.on_unmark_step(v)
        owner._marked.clear()


class NaiveMarkedKCore:
    """Strawman structure: marked reads return old levels, no DAGs.

    Exposes the same surface as :class:`~repro.core.cplds.CPLDS`.  The
    ``on_unmark_step`` attribute, when set, is invoked after each individual
    descriptor clear at batch end — the seam tests use to interleave reads
    into the unmark sequence deterministically.
    """

    def __init__(
        self,
        num_vertices: int,
        params: LDSParams | None = None,
        executor: Executor | None = None,
        max_read_retries: int = 10_000_000,
        backend: str = "object",
    ) -> None:
        self.plds = PLDS(
            num_vertices,
            params=params,
            executor=executor,
            hooks=_NaiveHooks(self),
            backend=backend,
        )
        self.params = self.plds.params
        self.slots: list[Optional[Descriptor]] = [UNMARKED] * num_vertices
        self.batch_number = 0
        self.max_read_retries = max_read_retries
        self._marked: list[Vertex] = []
        self.on_unmark_step: Optional[Callable[[Vertex], None]] = None

    # -- updates -------------------------------------------------------
    def insert_batch(self, edges: Iterable[Edge]) -> int:
        return self.plds.batch_insert(edges)

    def delete_batch(self, edges: Iterable[Edge]) -> int:
        return self.plds.batch_delete(edges)

    # -- reads ----------------------------------------------------------
    def read(self, v: Vertex) -> float:
        return self.read_verbose(v).estimate

    def read_level(self, v: Vertex) -> int:
        return self.read_verbose(v).level

    def _dag_steps(self, v: Vertex) -> Generator[None, None, int]:
        """The single-descriptor check of :func:`~repro.core.cplds.read_steps`:
        the old level if ``v`` itself is marked, else -1.  There is no DAG
        walk — the strawman's flaw."""
        desc = self.slots[v]
        yield
        return -1 if desc is UNMARKED else desc.old_level

    def read_verbose(self, v: Vertex) -> ReadResult:
        """Sandwiched read against the single descriptor (no DAG check).

        The sandwich keeps reads from mixing state across *batches* (so any
        violation the checker finds is attributable to the missing DAG rule,
        not to torn batch numbers).
        """
        level, from_descriptor, retries, batch, _ = drive(
            read_steps(self, v, self.max_read_retries)
        )
        return ReadResult(
            estimate=self.params.coreness_estimate(level),
            level=level,
            from_descriptor=from_descriptor,
            retries=retries,
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
        """Capture the full quiescent state."""
        return {
            "backend": self.backend,
            "batch_number": self.batch_number,
            "plds": self.plds.snapshot_state(),
        }

    def restore_state(self, snap: dict) -> None:
        """Restore a :meth:`snapshot_state` capture in place."""
        self.slots[:] = [UNMARKED] * len(self.slots)
        self._marked.clear()
        self.plds.restore_state(snap["plds"])
        self.batch_number = snap["batch_number"]

    def check_invariants(self) -> None:
        self.plds.check_invariants()
