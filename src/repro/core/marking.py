"""Marking, unmarking and DAG traversal (Algorithms 2 and 3 of the paper).

The dependency DAG of a batch is materialised as a parent-pointer forest over
the batch's descriptors, merged with the same CAS discipline as concurrent
union-find (:mod:`repro.unionfind.concurrent`):

* every newly marked vertex starts as a singleton root;
* when vertex ``v`` is marked with triggers/marked-batch-neighbours
  ``w₁..w_k``, the DAGs of all ``wᵢ`` are merged (smallest root vertex id
  deterministically becomes the sole root) and ``v`` is attached underneath —
  crucially ``v`` itself never becomes the root of a pre-existing DAG while
  its descriptor is still unpublished, which preserves the paper's invariant
  that *a DAG's root is marked before its non-roots and unmarked before its
  non-roots*;
* path compression (update and read side) rewrites parent pointers to point
  at an observed ancestor, which never breaks root reachability; readers can
  only ever compress the descriptor *objects* they traversed, so a slow
  reader from batch ``b`` cannot corrupt batch ``b+1``'s fresh descriptors.

``check_DAG`` (Algorithm 3) returns early with ``UNMARKED`` the moment any
descriptor on the path is unmarked, which is sound because roots are
unmarked strictly before non-roots.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.descriptor import Descriptor, I_AM_ROOT, UNMARKED
from repro.obs import REGISTRY as _OBS
from repro.obs.flightrec import RECORDER as _REC, EventType as _EV
from repro.unionfind.atomics import stripe_lock_for

#: check_DAG results (kept as module constants to mirror the pseudocode).
MARKED = True
NOT_MARKED = False

# Cached metric handles.  Only the *update-side* operations report —
# ``check_dag`` sits on the read hot path and stays uninstrumented (read
# retries are counted in :mod:`repro.core.cplds` instead).
_COMPRESSIONS = _OBS.counter("marking_path_compressions_total")


def _cas_parent(desc: Descriptor, expected: int, new: int) -> bool:
    """CAS a descriptor's parent field (striped-lock CAS; see DESIGN.md)."""
    with stripe_lock_for(desc.vertex):
        if desc.parent == expected:
            desc.parent = new
            return True
        return False


class DescriptorTable:
    """The global descriptor array plus the marking/unmarking operations.

    One instance lives inside each :class:`~repro.core.cplds.CPLDS` for the
    lifetime of the structure (paper: "a global array desc_array of
    Descriptors, one per vertex in the graph, for the lifetime of the
    program").
    """

    __slots__ = ("slots", "marked_vertices")

    def __init__(self, num_vertices: int) -> None:
        self.slots: list[Optional[Descriptor]] = [UNMARKED] * num_vertices
        #: Vertices marked in the current batch, in marking order; lets
        #: unmark_all avoid an O(n) scan.
        self.marked_vertices: list[int] = []

    # ------------------------------------------------------------------
    # Update-side: marking (Algorithm 2, mark)
    # ------------------------------------------------------------------
    def mark(
        self,
        v: int,
        old_level: int,
        related: Sequence[int],
        batch: int,
    ) -> Descriptor:
        """Mark ``v``: create its descriptor and merge it into the DAGs of
        ``related`` (its triggers plus marked batch neighbours).

        The descriptor is published into the slot *last*, after the DAG
        merge, exactly as in the paper's pseudocode: readers either see ``v``
        unmarked (and return its live level, which has not moved yet — the
        caller moves it only after ``mark`` returns) or see the completed
        descriptor.
        """
        desc = Descriptor(v, old_level=old_level, batch=batch)
        sole = self._merge_dags(related)
        if sole is not None and sole.vertex != v:
            desc.parent = sole.vertex
        self.slots[v] = desc
        self.marked_vertices.append(v)
        return desc

    def add_dependencies(self, v: int, related: Sequence[int]) -> None:
        """Merge ``v``'s DAG with those of ``related`` (``v`` already marked).

        Used when an already-marked vertex moves again because of vertices in
        other DAGs: the causal connection requires the DAGs to appear atomic
        together, so they are merged (see DESIGN.md, "Marking on later
        moves").
        """
        desc = self.slots[v]
        if desc is UNMARKED:
            raise ValueError(f"add_dependencies on unmarked vertex {v}")
        if not related:
            return
        self._merge_dags([v, *related])

    def _merge_dags(self, members: Sequence[int]) -> Optional[Descriptor]:
        """Merge the DAGs of all marked ``members``; return the sole root.

        Linking follows the concurrent union-find CAS loop: find both roots,
        link the larger-vertex-id root under the smaller, retry on
        contention.  Returns ``None`` when ``members`` is empty.
        """
        if not members:
            return None
        while True:
            roots: dict[int, Descriptor] = {}
            for w in members:
                root = self._find_root(w)
                roots[root.vertex] = root
            if len(roots) == 1:
                return next(iter(roots.values()))
            ordered = sorted(roots)
            winner = roots[ordered[0]]
            contended = False
            for rid in ordered[1:]:
                if not _cas_parent(roots[rid], I_AM_ROOT, winner.vertex):
                    contended = True  # concurrent link; re-find everything
                elif _REC.enabled:
                    _REC.record(_EV.DAG_MERGE, winner.vertex, rid)
            if not contended:
                # `winner` may itself have been linked concurrently since,
                # but any member of the merged DAG is a valid attachment
                # point — its chain still reaches the sole root.
                return winner

    def _find_root(self, v: int) -> Descriptor:
        """Root descriptor of marked vertex ``v``, compressing the path.

        Update-side only: during the marking phase every traversed slot is
        guaranteed marked, so the chain always terminates at a root.
        """
        desc = self.slots[v]
        if desc is UNMARKED:
            raise ValueError(f"_find_root on unmarked vertex {v}")
        trail: list[Descriptor] = []
        while desc.parent != I_AM_ROOT:
            trail.append(desc)
            nxt = self.slots[desc.parent]
            if nxt is UNMARKED:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"marked descriptor chain of {v} reached unmarked slot "
                    f"{desc.parent} during the update phase"
                )
            desc = nxt
        root = desc
        compressed = 0
        for node in trail:
            if node.parent != root.vertex and node is not root:
                if _cas_parent(node, node.parent, root.vertex):
                    compressed += 1
        if compressed and _OBS.enabled:
            _COMPRESSIONS.inc(compressed)
        return root

    # ------------------------------------------------------------------
    # Update-side: unmarking (Algorithm 2, unmark_all)
    # ------------------------------------------------------------------
    def unmark_all(self, run_round) -> None:
        """Clear all descriptors: roots first, then everything else.

        ``run_round`` is an executor round function (two barriers — one per
        phase — mirror the two ``parfor`` loops of the pseudocode).  The
        root-first order maintains the invariant ``check_DAG`` relies on: if
        any non-root is still marked, observing *it* unmarked implies its
        root is unmarked too.
        """
        marked = self.marked_vertices
        slots = self.slots
        root_flags = [False] * len(marked)

        def classify(i: int) -> None:
            desc = slots[marked[i]]
            root_flags[i] = desc is not UNMARKED and desc.parent == I_AM_ROOT

        run_round(classify, range(len(marked)))

        def clear_roots(i: int) -> None:
            if root_flags[i]:
                slots[marked[i]] = UNMARKED

        run_round(clear_roots, range(len(marked)))

        def clear_rest(i: int) -> None:
            if not root_flags[i]:
                slots[marked[i]] = UNMARKED

        run_round(clear_rest, range(len(marked)))
        marked.clear()

    # ------------------------------------------------------------------
    # Read-side: check_DAG (Algorithm 3)
    # ------------------------------------------------------------------
    def check_dag(self, desc: Optional[Descriptor]) -> bool:
        """Whether the DAG containing ``desc`` is still marked.

        Returns :data:`MARKED`/:data:`NOT_MARKED`.  Early-exits
        ``NOT_MARKED`` on the first unmarked descriptor found along the path
        (sound because roots unmark first), compressing the traversed prefix.
        Lock-free: the only loop is bounded by the (finite, acyclic) parent
        chain, and compression CAS failures are abandoned, never retried.
        """
        if desc is UNMARKED:
            return NOT_MARKED
        trail: list[Descriptor] = []
        while desc.parent != I_AM_ROOT:
            target = desc.parent
            trail.append(desc)
            nxt = self.slots[target]
            if nxt is UNMARKED:
                # Compress onto the unmarked slot index: later readers of the
                # same stale chain short-circuit straight to it.
                self._compress(trail, target)
                return NOT_MARKED
            desc = nxt
        self._compress(trail, desc.vertex)
        return MARKED

    @staticmethod
    def _compress(trail: list[Descriptor], target: int) -> None:
        for node in trail:
            if node.parent != target and node.vertex != target:
                _cas_parent(node, node.parent, target)

    # ------------------------------------------------------------------
    # Introspection (tests / diagnostics)
    # ------------------------------------------------------------------
    def get(self, v: int) -> Optional[Descriptor]:
        """Atomic load of ``v``'s slot."""
        return self.slots[v]

    def is_marked(self, v: int) -> bool:
        """Whether ``v`` currently has an active descriptor."""
        return self.slots[v] is not UNMARKED

    def dag_members(self) -> dict[int, list[int]]:
        """Current DAGs as ``{root_vertex: sorted members}`` (quiescent use)."""
        out: dict[int, list[int]] = {}
        for v in self.marked_vertices:
            if self.slots[v] is UNMARKED:
                continue
            root = self._find_root(v).vertex
            out.setdefault(root, []).append(v)
        for members in out.values():
            members.sort()
        return out
