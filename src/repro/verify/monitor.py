"""Online invariant monitoring during batches.

The quiescent checkers (`check_all_invariants`) certify end-of-batch states;
this monitor hooks into the PLDS rounds and samples *mid-batch* consistency
— the counters must track the graph at every round boundary, and the
descriptor table must satisfy its structural rules (non-root parents point
at marked vertices, parent vertex ids differ from their children) whenever
marks exist.  Catching a drift at the round it happens, instead of at batch
end, turns bookkeeping bugs from archaeology into stack traces.  The
``columnar-frontier`` engine marks in flat arrays instead of the
descriptor table, so on it the monitor also checks its ``_marked`` flags
and ``_uf.parent`` forest.

Intended for tests and debugging (it adds O(n + m) work per sampled round);
attach with :func:`attach_monitor`, which returns the monitor for later
interrogation.
"""

from __future__ import annotations

import numpy as np

from repro.core.descriptor import I_AM_ROOT
from repro.core.frontier import FrontierCPLDS
from repro.errors import InvariantViolation
from repro.lds.plds import Phase, UpdateHooks
from repro.runtime.inject import HookChain


class InvariantMonitor(UpdateHooks):
    """Sample mid-batch consistency every ``sample_every`` rounds."""

    def __init__(self, cplds, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.cplds = cplds
        self.sample_every = sample_every
        self.rounds_seen = 0
        self.samples_taken = 0

    # ------------------------------------------------------------------
    def round_boundary(self) -> None:
        self.rounds_seen += 1
        if self.rounds_seen % self.sample_every == 0:
            self.sample()

    def batch_end(self) -> None:
        self.sample()

    # ------------------------------------------------------------------
    def sample(self) -> None:
        """Run all mid-batch checks once."""
        self.samples_taken += 1
        self._check_counters()
        self._check_descriptor_structure()
        if isinstance(self.cplds, FrontierCPLDS):
            self._check_frontier_forest()

    def _check_counters(self) -> None:
        state = self.cplds.plds.state
        state.assert_counters_consistent()

    def _check_descriptor_structure(self) -> None:
        table = self.cplds.descriptors
        slots = table.slots
        for v in table.marked_vertices:
            desc = slots[v]
            if desc is None:
                continue  # already unmarked (end-of-batch rounds)
            parent = desc.parent
            if parent == I_AM_ROOT:
                continue
            if parent == desc.vertex:
                raise InvariantViolation(
                    f"descriptor of {v} points at itself", vertex=v
                )
            if not 0 <= parent < len(slots):
                raise InvariantViolation(
                    f"descriptor of {v} has out-of-range parent {parent}",
                    vertex=v,
                )
            # Chains must terminate: walk with a step bound.
            seen = 0
            node = desc
            while node is not None and node.parent != I_AM_ROOT:
                node = slots[node.parent]
                seen += 1
                if seen > len(slots):
                    raise InvariantViolation(
                        f"descriptor chain from {v} does not terminate",
                        vertex=v,
                    )

    def _check_frontier_forest(self) -> None:
        """Parents in range, chains that reach a root, and every unmarked
        vertex its own parent (unions only touch marked vertices, and each
        phase end resets the forest to singletons)."""
        marked = self.cplds._marked
        parent = self.cplds._uf.parent
        n = parent.shape[0]
        bad = np.flatnonzero((parent < 0) | (parent >= n))
        if bad.size:
            v = int(bad[0])
            raise InvariantViolation(
                f"forest parent of {v} is out of range ({int(parent[v])})",
                vertex=v,
            )
        foreign = np.flatnonzero(~marked & (parent != np.arange(n)))
        if foreign.size:
            v = int(foreign[0])
            raise InvariantViolation(
                f"unmarked vertex {v} has forest parent {int(parent[v])}",
                vertex=v,
            )
        # Pointer doubling: in a forest of depth d, ``jump`` maps every
        # vertex to its root after about log2(d) squarings and then stops
        # changing; a vertex on a cycle never lands on a root.
        jump = parent
        for _ in range(n.bit_length() + 1):
            nxt = jump[jump]
            if np.array_equal(nxt, jump):
                break
            jump = nxt
        stuck = np.flatnonzero(parent[jump] != jump)
        if stuck.size:
            v = int(stuck[0])
            raise InvariantViolation(
                f"forest chain from {v} does not terminate", vertex=v
            )


def attach_monitor(cplds, sample_every: int = 1) -> InvariantMonitor:
    """Chain an :class:`InvariantMonitor` after ``cplds``'s hooks."""
    monitor = InvariantMonitor(cplds, sample_every=sample_every)
    cplds.plds.hooks = HookChain(cplds.plds.hooks, monitor)
    return monitor
