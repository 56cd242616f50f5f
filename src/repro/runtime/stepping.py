"""Step-level interleaving of the CPLDS read protocol (Algorithm 4).

The thread harness and round-boundary injection interleave *whole* reads
with updates; this module goes one level finer.  A :class:`SteppedRead`
drives :func:`repro.core.cplds.read_steps` — the one implementation of
Algorithm 4, which yields after **every shared memory access** (the two
batch-number collects, the two level collects, and each load of the
engine's DAG check) — so a scheduler can suspend a reader at any protocol
step, run an arbitrary amount of update work, and resume it.  This is
exactly the adversary the sandwich (double-collect) exists to defeat, and
it is the only way to exercise the two retry branches (`b1 != b2`,
`l1 != l2`) deterministically.  It works on every engine that supplies the
DAG check: both CPLDS engines (the descriptor table of ``object``, the
``marked``/``parent`` arrays of ``columnar-frontier``) and the naive
strawman.

:class:`InterleavedScheduler` drives a population of stepped readers against
a real batch stream, advancing each reader by a seeded random number of
steps at every update round boundary (and between batches).  Completed reads
are validated on the spot:

* the returned level must be one of the vertex's batch-boundary levels seen
  so far (no intermediate values), and
* every retry must have a *cause* — the batch number or the live level
  changed across the sandwich — which is the paper's lock-freedom witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cplds import CPLDS, read_steps
from repro.errors import SimulationError
from repro.lds.plds import UpdateHooks
from repro.runtime.inject import HookChain
from repro.types import Vertex


@dataclass
class SteppedResult:
    """Outcome of one stepped read."""

    vertex: Vertex
    level: int
    estimate: float
    from_descriptor: bool
    retries: int
    #: Cause of each retry: "batch" (b1 != b2) or "level" (l1 != l2).
    retry_causes: list[str] = field(default_factory=list)
    steps: int = 0


class SteppedRead:
    """Algorithm 4 as a resumable coroutine over any engine's
    :func:`~repro.core.cplds.read_steps`.

    ``advance(k)`` executes up to ``k`` protocol steps; returns the
    :class:`SteppedResult` once the read completes, else ``None``.
    """

    def __init__(self, cplds: CPLDS, vertex: Vertex, max_retries: int = 100_000) -> None:
        self.cplds = cplds
        self.vertex = vertex
        self.max_retries = max_retries
        self.result: Optional[SteppedResult] = None
        self._steps = 0
        self._gen = read_steps(cplds, vertex, max_retries)

    def advance(self, steps: int) -> Optional[SteppedResult]:
        """Run up to ``steps`` protocol steps; result once complete."""
        for _ in range(steps):
            if self.result is not None:
                break
            out = next(self._gen)
            if out is None:
                self._steps += 1
                continue
            level, from_descriptor, retries, _batch, causes = out
            self.result = SteppedResult(
                vertex=self.vertex,
                level=level,
                estimate=self.cplds.params.coreness_estimate(level),
                from_descriptor=from_descriptor,
                retries=retries,
                retry_causes=causes,
                steps=self._steps,
            )
        return self.result


class _SchedulerHooks(UpdateHooks):
    __slots__ = ("scheduler",)

    def __init__(self, scheduler: "InterleavedScheduler") -> None:
        self.scheduler = scheduler

    def round_boundary(self) -> None:
        self.scheduler._pump()

    def batch_end(self) -> None:
        # This hook runs after the CPLDS's own batch_end (unmark_all), so
        # the live levels are the new batch boundary: record them *before*
        # letting readers complete against them.
        self.scheduler._record_boundary()
        self.scheduler._pump()


class InterleavedScheduler:
    """Interleave stepped readers with a CPLDS update stream, seeded.

    Parameters
    ----------
    cplds:
        A fresh engine with a DAG check — either CPLDS engine or the naive
        strawman (this scheduler chains its own boundary hooks).
    num_readers:
        Concurrent stepped reads kept in flight.
    seed:
        Drives which vertices are read and how many steps each reader
        advances per scheduling point — every interleaving is reproducible.
    """

    def __init__(
        self,
        cplds: CPLDS,
        num_readers: int = 4,
        seed: int = 0,
        max_step_burst: int = 4,
    ) -> None:
        self.cplds = cplds
        self.num_readers = num_readers
        self.rng = random.Random(seed)
        self.max_step_burst = max_step_burst
        self.completed: list[SteppedResult] = []
        #: Per-vertex levels observed at batch boundaries (validation set).
        self.boundary_levels: dict[Vertex, set[int]] = {
            v: {cplds.plds.state.level[v]}
            for v in range(cplds.graph.num_vertices)
        }
        self._active: list[SteppedRead] = []
        cplds.plds.hooks = HookChain(cplds.plds.hooks, _SchedulerHooks(self))

    # ------------------------------------------------------------------
    def _record_boundary(self) -> None:
        levels = self.cplds.plds.state.level
        for v in range(self.cplds.graph.num_vertices):
            self.boundary_levels[v].add(levels[v])

    def _spawn(self) -> SteppedRead:
        v = self.rng.randrange(self.cplds.graph.num_vertices)
        return SteppedRead(self.cplds, v)

    def _pump(self) -> None:
        """Advance every active reader by a random burst of steps."""
        while len(self._active) < self.num_readers:
            self._active.append(self._spawn())
        still_active: list[SteppedRead] = []
        for reader in self._active:
            result = reader.advance(self.rng.randint(0, self.max_step_burst))
            if result is not None:
                self._validate(result)
                self.completed.append(result)
            else:
                still_active.append(reader)
        self._active = still_active

    def _validate(self, result: SteppedResult) -> None:
        allowed = self.boundary_levels[result.vertex]
        if result.level not in allowed:
            raise AssertionError(
                f"stepped read of {result.vertex} returned level "
                f"{result.level}, not a batch-boundary level {sorted(allowed)}"
            )

    # ------------------------------------------------------------------
    def run(self, batches) -> list[SteppedResult]:
        """Apply the batch stream, interleaving reads; drain at the end."""
        for batch in batches:
            # Boundary recording happens inside the batch_end hook, before
            # any reader can complete against the new levels.
            if batch.kind == "insert":
                self.cplds.insert_batch(batch.edges)
            else:
                self.cplds.delete_batch(batch.edges)
            self._pump()  # quiescent window between batches
        # Drain: no more updates, so every read completes promptly.
        guard = 0
        while self._active:
            self._pump()
            guard += 1
            if guard > 1_000_000:  # pragma: no cover - safety net
                raise SimulationError("stepped readers failed to drain")
        return self.completed
