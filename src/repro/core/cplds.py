"""CPLDS: the concurrent parallel level data structure (the paper's §4–§5).

The CPLDS composes:

* a :class:`~repro.lds.plds.PLDS` that executes batches of edge updates, and
* a :class:`~repro.core.marking.DescriptorTable` holding the per-vertex
  operation descriptors and dependency DAGs,

wired together through the PLDS update hooks: immediately *before* a vertex's
live level changes, the vertex is marked (first move in the batch) or its DAG
is merged with its new triggers' DAGs (later moves), so that a concurrent
reader always finds either the pre-batch level in a descriptor or a stable
live level.

Reads (Algorithm 4) are **lock-free**: the only blocking-free retry loop
re-runs when the batch number advanced or the live level changed between the
two "sandwich" collects — both of which certify that an update made progress,
which is the paper's lock-freedom argument (§6.2).  The loop is written once,
as the :func:`read_steps` generator behind :meth:`CPLDS.read_verbose`, the
strawman's read and the stepped reader; each engine supplies only its DAG
check (``_dag_steps``), and :meth:`CPLDS.read` is the hand-inlined hot
transcription.  Updates run on the calling (update) thread and always
terminate — they are *live* in the paper's terminology.

Thread-safety contract: any number of reader threads may call :meth:`read` /
:meth:`read_verbose` concurrently with one in-flight batch (single-writer,
multi-reader), matching the process model of §2 as instantiated in this
reproduction (see DESIGN.md substitution table for the multi-writer case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Sequence

from repro.core.descriptor import UNMARKED
from repro.core.marking import DescriptorTable
from repro.errors import ReproError
from repro.lds.params import LDSParams
from repro.lds.plds import PLDS, Phase, UpdateHooks
from repro.obs import COUNT_BUCKETS, REGISTRY as _OBS
from repro.obs.flightrec import RECORDER as _REC, EventType as _EV
from repro.obs.staleness import (
    READS_DESCRIPTOR as _READS_DESCRIPTOR,
    READS_LIVE as _READS_LIVE,
    STALENESS_EPOCHS as _STALENESS,
)
from repro.runtime.executor import Executor
from repro.types import Edge, Vertex

# Cached metric handles (see docs/observability.md).  The success path of
# :meth:`CPLDS.read` carries exactly one ``_OBS.enabled`` branch, tagging
# the read live (0 epochs behind) or descriptor (1 epoch behind); per-read
# flight-recorder events are confined to :meth:`CPLDS.read_verbose` and the
# retry branch so the uncontended hot path stays lean.
_MARKED = _OBS.counter("cplds_marked_total")
_DAGS = _OBS.counter("cplds_dags_total")
_BATCHES = _OBS.counter("cplds_batches_total")
_READ_RETRIES = _OBS.counter("cplds_read_retries_total")
_READS_VERBOSE = _OBS.counter("cplds_reads_verbose_total")
_RETRY_HIST = _OBS.histogram("cplds_read_retries_per_read", COUNT_BUCKETS)


@dataclass(frozen=True)
class ReadResult:
    """Outcome of one linearizable read (telemetry-rich variant)."""

    #: The coreness estimate returned to the caller.
    estimate: float
    #: The level the estimate was computed from.
    level: int
    #: True if the level came from a descriptor (``old_level``); False if it
    #: is the live level.
    from_descriptor: bool
    #: How many times the sandwich forced a retry before succeeding.
    retries: int
    #: The batch number the read linearized in.
    batch: int


def read_steps(
    impl, v: Vertex, max_retries: int
) -> Iterator[tuple[int, bool, int, int, list[str]] | None]:
    """Algorithm 4, the sandwiched read, written once.

    A generator that yields ``None`` after every shared-memory access, so
    a scheduler can suspend the read between any two of them
    (:class:`repro.runtime.stepping.SteppedRead`), and whose last yield is
    the result; :func:`drive` runs it with no interleaving
    (``read_verbose``).  ``impl`` supplies ``batch_number``, the live
    levels ``plds.state.level`` and ``_dag_steps(v)``: the engine's DAG
    check as a sub-generator that returns ``v``'s old level while its DAG
    is marked, else -1.

    The read collects (batch number, live level), runs the DAG check, and
    collects the pair again.  If the batch number did not change it
    answers the old level (DAG marked) or the live level (unchanged across
    the check); otherwise it retries, and every retry names its cause:
    ``"batch"`` (``b1 != b2``) or ``"level"`` (``l1 != l2``) — an update
    made progress, which is the lock-freedom argument (§6.2).

    The result is ``(level, from_descriptor, retries, batch,
    retry_causes)``; it is yielded rather than returned, because a plain
    ``for`` loop over the steps then costs no ``StopIteration`` handling.
    The hot ``read`` of :class:`CPLDS` and of
    :class:`~repro.core.frontier.FrontierCPLDS` are hand-inlined
    transcriptions of this loop (a generator costs about 4.5x per read).
    """
    level = impl.plds.state.level
    dag_steps = impl._dag_steps
    causes: list[str] = []
    while True:
        b1 = impl.batch_number
        yield
        l1 = level[v]
        yield
        old = yield from dag_steps(v)
        l2 = level[v]
        yield
        b2 = impl.batch_number
        yield
        if b1 != b2:
            causes.append("batch")
        elif old >= 0:
            yield old, True, len(causes), b1, causes
            return
        elif l1 == l2:
            yield l1, False, len(causes), b1, causes
            return
        else:
            causes.append("level")
        retries = len(causes)
        if _REC.enabled:
            _REC.record(_EV.READ_RETRY, v, b1, b2, retries)
        if retries > max_retries:
            raise ReproError(
                f"read({v}) exceeded {max_retries} retries; "
                "the update stream is outpacing the reader"
            )


def drive(steps: Iterator[tuple | None]) -> tuple:
    """Run a :func:`read_steps` generator to its end; return its result."""
    for result in steps:
        pass
    return result


class _MarkingHooks(UpdateHooks):
    """PLDS hooks implementing the paper's marking discipline."""

    __slots__ = ("cp",)

    def __init__(self, cp: "CPLDS") -> None:
        self.cp = cp

    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        cp = self.cp
        cp._begin_phase(kind, edges)
        partners: dict[Vertex, list[Vertex]] = {}
        for u, v in edges:
            partners.setdefault(u, []).append(v)
            partners.setdefault(v, []).append(u)
        cp._batch_partners = partners

    def before_move(self, v: Vertex, old: int, new: int, phase: Phase) -> None:
        cp = self.cp
        table = cp.descriptors
        # Inline trigger scan (hot path: once per vertex move).  Triggers:
        # marked graph neighbours at >= ℓ(v) for insertions, or strictly
        # below ℓ(v) − 1 for deletions; plus marked batch partners.
        slots = table.slots
        level = cp.plds.state.level
        lv = level[v]
        related: list[Vertex] = []
        if phase == "insert":
            for w in cp.plds.graph.neighbors_unsafe(v):
                if level[w] >= lv and slots[w] is not None:
                    related.append(w)
        else:
            bound = lv - 1
            for w in cp.plds.graph.neighbors_unsafe(v):
                if level[w] < bound and slots[w] is not None:
                    related.append(w)
        partners = cp._batch_partners.get(v)
        if partners:
            for w in partners:
                if slots[w] is not None:
                    related.append(w)
        if slots[v] is None:
            # First move this batch: `old` is the pre-batch level.
            table.mark(v, old_level=old, related=related, batch=cp.batch_number)
        elif related:
            # Later move triggered by other DAGs: merge them (DESIGN.md,
            # "Marking on later moves").
            table.add_dependencies(v, related)

    def batch_end(self) -> None:
        cp = self.cp
        dags = cp.descriptors.dag_members()
        cp._end_phase(
            len(cp.descriptors.marked_vertices),
            len(dags),
            {v: root for root, members in dags.items() for v in members},
        )
        cp.descriptors.unmark_all(cp.plds.executor.run_round)
        cp._batch_partners = {}
        cp._publish_epoch()


class CPLDS:
    """Approximate k-core with batched updates and asynchronous reads.

    Parameters
    ----------
    num_vertices:
        Size of the fixed vertex universe.
    params:
        :class:`LDSParams`; defaults to the paper's (δ=0.2, λ=9).
    executor:
        Round executor for the update phases (see
        :mod:`repro.runtime.executor`).
    max_read_retries:
        Safety bound on the read retry loop; exceeding it raises
        :class:`~repro.errors.ReproError` (a genuine execution can only hit
        it if updates are streaming in faster than a read can double-collect,
        which the paper's model excludes by making update processes
        synchronous).
    backend:
        Level-store backend name (``"object"`` or ``"columnar-frontier"``);
        see :mod:`repro.lds.store`.  The frontier backend is constructed via
        :class:`repro.core.frontier.FrontierCPLDS` (the engine registry
        routes there automatically).

    Examples
    --------
    >>> cp = CPLDS(6)
    >>> cp.insert_batch([(0, 1), (1, 2), (0, 2)])
    3
    >>> cp.read(0) >= 1.0
    True
    """

    def __init__(
        self,
        num_vertices: int,
        params: LDSParams | None = None,
        executor: Executor | None = None,
        max_read_retries: int = 10_000_000,
        backend: str = "object",
    ) -> None:
        hooks = _MarkingHooks(self)
        self.plds = PLDS(
            num_vertices,
            params=params,
            executor=executor,
            hooks=hooks,
            backend=backend,
        )
        self.params = self.plds.params
        self.descriptors = DescriptorTable(num_vertices)
        self.batch_number = 0
        self.max_read_retries = max_read_retries
        #: Optional :class:`repro.reads.EpochSnapshotStore`: when attached
        #: (see :func:`repro.reads.attach_epoch_store`), every ``batch_end``
        #: the store's cadence accepts publishes an immutable level snapshot
        #: for the multi-version read tier.  Never touched by the update
        #: algorithm itself — publishing adds no rounds, moves, or marks.
        self.epoch_store = None
        self._batch_partners: dict[Vertex, list[Vertex]] = {}
        #: Telemetry from the most recent batch.
        self.last_batch_marked = 0
        self.last_batch_dags = 0
        #: Dependency-DAG partition of the most recent batch
        #: (vertex -> DAG root), captured just before unmarking.
        self.last_batch_dag_map: dict[Vertex, Vertex] = {}

    # ------------------------------------------------------------------
    # Updates (update processes)
    # ------------------------------------------------------------------
    def insert_batch(self, edges: Iterable[Edge]) -> int:
        """Apply an insertion batch; returns the number of new edges."""
        with _OBS.span("cplds.insert_batch") as sp:
            applied = self.plds.batch_insert(edges)
            sp.set(
                edges=applied,
                moves=self.plds.last_batch_moves,
                rounds=self.plds.last_batch_rounds,
                marked=self.last_batch_marked,
                dags=self.last_batch_dags,
            )
            return applied

    def delete_batch(self, edges: Iterable[Edge]) -> int:
        """Apply a deletion batch; returns the number of removed edges."""
        with _OBS.span("cplds.delete_batch") as sp:
            applied = self.plds.batch_delete(edges)
            sp.set(
                edges=applied,
                moves=self.plds.last_batch_moves,
                rounds=self.plds.last_batch_rounds,
                marked=self.last_batch_marked,
                dags=self.last_batch_dags,
            )
            return applied

    def apply_batch(
        self, insertions: Iterable[Edge] = (), deletions: Iterable[Edge] = ()
    ) -> tuple[int, int]:
        """Mixed batch, pre-processed into insertion + deletion sub-batches."""
        with _OBS.span("cplds.apply_batch") as sp:
            counts = self.plds.apply_batch(insertions, deletions)
            sp.set(
                insertions=counts[0],
                deletions=counts[1],
                moves=self.plds.last_batch_moves,
                rounds=self.plds.last_batch_rounds,
            )
            return counts

    # ------------------------------------------------------------------
    # Phase bookkeeping (shared by both engines' marking hooks)
    # ------------------------------------------------------------------
    def _begin_phase(self, kind: Phase, edges: Sequence[Edge]) -> None:
        """Open one insert or delete phase, before any vertex moves.

        The batch number is incremented at the start of every batch
        (Algorithm 1): a plain int increment on the update thread, whose
        reader loads are GIL-atomic.
        """
        self.batch_number += 1
        if _REC.enabled:
            _REC.record(
                _EV.BATCH_BEGIN,
                self.batch_number,
                0 if kind == "insert" else 1,
                len(edges),
            )

    def _end_phase(
        self, marked: int, dags: int, dag_map: dict[Vertex, Vertex]
    ) -> None:
        """Record the phase's marking totals, before unmarking.

        Sets the ``last_batch_*`` fields, feeds the ``cplds_*_total``
        counters, adds ``marked``/``dags`` to the open ``plds.*_phase``
        span and logs ``BATCH_END``; the hooks then unmark and call
        :meth:`_publish_epoch`.
        """
        self.last_batch_marked = marked
        self.last_batch_dags = dags
        self.last_batch_dag_map = dag_map
        if _OBS.enabled:
            _BATCHES.inc()
            _MARKED.inc(marked)
            _DAGS.inc(dags)
            _OBS.current_span().set(marked=marked, dags=dags)
        if _REC.enabled:
            _REC.record(
                _EV.BATCH_END,
                self.batch_number,
                marked,
                dags,
                self.plds.last_batch_moves,
            )

    def _publish_epoch(self) -> None:
        """Publish this epoch's level snapshot to the attached read tier.

        Called by the hooks at ``batch_end`` (once per insert/delete
        phase), after unmarking, so the published levels are the settled
        post-batch state.  A no-op without a store (or when the store's
        publish cadence rejects the epoch); costs one O(n) array copy
        when it fires and touches no work counters.
        """
        store = self.epoch_store
        if store is not None and store.accepts(self.batch_number):
            store.publish(
                self.batch_number,
                self.plds.state.snapshot_levels(),
                params=self.params,
            )

    # ------------------------------------------------------------------
    # Reads (read processes — lock-free, callable from any thread)
    # ------------------------------------------------------------------
    def _dag_steps(self, v: Vertex) -> Generator[None, None, int]:
        """The descriptor fetch and ``check_DAG`` of :func:`read_steps`:
        ``v``'s old level while its DAG is marked, else -1."""
        desc = self.descriptors.slots[v]
        yield
        marked = self.descriptors.check_dag(desc)
        yield
        return desc.old_level if marked else -1  # type: ignore[union-attr]

    def read(self, v: Vertex) -> float:
        """Linearizable coreness estimate of ``v`` (Algorithm 4).

        The hot path: a hand-inlined transcription of :func:`read_steps`
        (pinned to it by the tests) with no per-read allocation — a table
        lookup away from NonSync's cost once the sandwich passes.  While
        observability is on, the success path tags the read's staleness
        class (live = 0 epochs behind, descriptor = 1); disabled, it costs
        one branch.
        """
        level = self.plds.state.level
        slots = self.descriptors.slots
        estimates = self.params.estimate_table
        check_dag = self.descriptors.check_dag
        retries = 0
        while True:
            b1 = self.batch_number
            l1 = level[v]
            desc = slots[v]
            marked = check_dag(desc)
            l2 = level[v]
            b2 = self.batch_number
            if b1 == b2:
                if marked:
                    if _OBS.enabled:
                        _READS_DESCRIPTOR.inc()
                        _STALENESS.observe(1)
                    return estimates[desc.old_level]  # type: ignore[union-attr]
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

    def read_level(self, v: Vertex) -> int:
        """Linearizable *level* of ``v`` (the raw quantity behind the
        estimate; used by the verification harness)."""
        return self.read_verbose(v).level

    def read_verbose(self, v: Vertex) -> ReadResult:
        """Algorithm 4 with full telemetry: :func:`read_steps` run to its
        end with no interleaving."""
        level, from_descriptor, retries, batch, _ = drive(
            read_steps(self, v, self.max_read_retries)
        )
        result = ReadResult(
            estimate=self.params.coreness_estimate(level),
            level=level,
            from_descriptor=from_descriptor,
            retries=retries,
            batch=batch,
        )
        if _OBS.enabled:
            _READS_VERBOSE.inc()
            if result.from_descriptor:
                _READS_DESCRIPTOR.inc()
                _STALENESS.observe(1)
            else:
                _READS_LIVE.inc()
                _STALENESS.observe(0)
            if retries:
                _READ_RETRIES.inc(retries)
                _RETRY_HIST.observe(retries)
        if _REC.enabled:
            _REC.record(
                _EV.READ_OK,
                v,
                result.batch,
                1 if result.from_descriptor else 0,
                retries,
            )
        return result

    # ------------------------------------------------------------------
    # Quiescent conveniences
    # ------------------------------------------------------------------
    def coreness_estimate(self, v: Vertex) -> float:
        """Quiescent estimate straight from the live level (no protocol)."""
        return self.plds.coreness_estimate(v)

    def levels(self) -> list[int]:
        """Snapshot of all live levels (quiescent use)."""
        return self.plds.levels()

    @property
    def graph(self):
        """The underlying dynamic graph."""
        return self.plds.graph

    @property
    def backend(self) -> str:
        """The level-store backend this structure runs on."""
        return self.plds.state.backend

    def fresh_like(self) -> "CPLDS":
        """A new, empty CPLDS over the same vertex universe and parameters.

        Recovery entry point: checkpoint+journal replay starts from a fresh
        structure (never the one a failed batch left behind) and replays
        history batch by batch, which — the PLDS being deterministic under
        the sequential executor — reproduces the exact level history of the
        original.
        """
        return type(self)(
            self.graph.num_vertices,
            params=self.params,
            max_read_retries=self.max_read_retries,
            backend=self.backend,
        )

    def rebuild(self) -> None:
        """Recover a consistent quiescent state from the graph alone.

        The paper's model has no process failures, but an update *batch* can
        die mid-flight for mundane reasons (a hook raised, the process was
        interrupted) leaving levels, counters and descriptors mutually
        inconsistent.  ``rebuild`` discards all derived state and recomputes
        it from the surviving edge set: descriptors are cleared, every level
        reset, and the whole graph re-run through one insertion batch.  Reads
        are **not** safe concurrently with a rebuild (the structure was
        already broken); it counts as one batch for the sandwich, so any
        straggling reader retries out.
        """
        graph = self.plds.graph
        edges = list(graph.edges())
        n = graph.num_vertices
        # Clear descriptors (any leftover marks belong to the dead batch).
        self.descriptors.slots[:] = [None] * n
        self.descriptors.marked_vertices.clear()
        self._batch_partners = {}
        # Reset the graph + level state and replay.
        graph.clear()
        self.plds.state.reset()
        self.insert_batch(edges)

    # ------------------------------------------------------------------
    # State management (quiescent use)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Capture the full quiescent state (no batch may be in flight)."""
        return {
            "backend": self.backend,
            "batch_number": self.batch_number,
            "plds": self.plds.snapshot_state(),
        }

    def restore_state(self, snap: dict) -> None:
        """Restore a :meth:`snapshot_state` capture in place.

        Also discards any derived per-batch state (descriptors and the
        partner map), so it doubles as the exact-state recovery path after
        a batch died mid-flight.
        """
        n = self.graph.num_vertices
        self.descriptors.slots[:] = [None] * n
        self.descriptors.marked_vertices.clear()
        self._batch_partners = {}
        self.plds.restore_state(snap["plds"])
        self.batch_number = snap["batch_number"]

    def check_invariants(self) -> None:
        """Assert LDS invariants and a fully unmarked descriptor table."""
        self.plds.check_invariants()
        if self.descriptors.marked_vertices:
            raise AssertionError(
                f"{len(self.descriptors.marked_vertices)} descriptors leaked "
                "past batch end"
            )
        leaked = [
            v for v, d in enumerate(self.descriptors.slots) if d is not UNMARKED
        ]
        if leaked:
            raise AssertionError(f"marked slots leaked past batch end: {leaked[:10]}")
