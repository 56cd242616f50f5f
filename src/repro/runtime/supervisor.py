"""Self-healing service layer: supervised recovery over the CPLDS.

The paper's model (§2) excludes process failures; a production service
cannot.  This module wraps the structure (and the batch coordinator) in a
supervisor implementing the recovery contract documented in
``docs/robustness.md``:

* every batch is **journaled before it is applied** (write-ahead, see
  :class:`~repro.persist.BatchJournal`) and committed afterwards, with
  periodic quiescent checkpoints, so a consistent structure can always be
  reconstructed as *newest valid checkpoint + committed journal suffix* —
  batch by batch, reproducing the exact level history;
* a batch that dies mid-flight triggers **supervised recovery**: restore a
  consistent pre-batch structure, retry with exponential backoff, and — if
  the batch fails deterministically — **bisect** it to isolate the poison
  updates, quarantining only those (their tickets fail with
  :class:`~repro.errors.PoisonUpdateError`; the rest of the batch commits);
* while recovery is in flight, **reads never block and never fail**: they
  are served from the newest epoch retained by the multi-version read tier
  (:mod:`repro.reads` — the same store that serves bulk epoch reads),
  tagged ``stale``, preserving the paper's asynchronous-reads guarantee
  across faults;
* the service's condition is surfaced as a **health state machine**
  (HEALTHY → RECOVERING → DEGRADED → FAILED) whose transitions and counters
  live in :class:`ServiceTelemetry`.

:class:`SupervisedCPLDS` is the synchronous engine (single update thread —
deterministic, which the chaos harness in :mod:`repro.runtime.chaos` relies
on); :class:`SupervisedCoordinator` threads it under the multi-producer
:class:`~repro.runtime.coordinator.BatchCoordinator` front end.
"""

from __future__ import annotations

import enum
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.core.cplds import CPLDS
from repro.errors import (
    CheckpointCorruptError,
    JournalEncodeError,
    PersistError,
    PoisonUpdateError,
    ServiceFailedError,
)
from repro.obs import REGISTRY as _OBS
from repro.obs.flightrec import RECORDER as _REC, EventType as _EV
from repro.obs.staleness import (
    RECOVERY_SECONDS as _RECOVERY_SECONDS,
    SNAPSHOT_AGE as _SNAPSHOT_AGE,
)
from repro.reads import EpochSnapshotStore
from repro.runtime.coordinator import BatchCoordinator
from repro.types import Edge, Vertex, canonical_edge

#: Journal filename inside a service's persistence directory.
JOURNAL_FILENAME = "journal.jsonl"

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{8})\.npz$")


class HealthState(enum.Enum):
    """The supervised service's health state machine.

    ``HEALTHY``
        Normal operation; reads are live, batches apply directly.
    ``RECOVERING``
        A batch died and the supervisor is restoring/retrying; reads are
        served from the newest retained epoch, tagged stale.
    ``DEGRADED``
        The structure is consistent again but the service recently dropped
        updates (poison quarantine); clears back to HEALTHY after a run of
        clean batches.
    ``FAILED``
        Recovery was exhausted (e.g. the journal is corrupt mid-stream);
        terminal.  Submissions raise
        :class:`~repro.errors.ServiceFailedError`; reads keep serving the
        newest retained epoch.
    """

    HEALTHY = "healthy"
    RECOVERING = "recovering"
    DEGRADED = "degraded"
    FAILED = "failed"


#: Stable integer encoding of the health states for flight-recorder
#: HEALTH events (``a`` = from-state, ``b`` = to-state).
HEALTH_ORDINALS = {
    HealthState.HEALTHY: 0,
    HealthState.RECOVERING: 1,
    HealthState.DEGRADED: 2,
    HealthState.FAILED: 3,
}


_ALLOWED_TRANSITIONS = {
    HealthState.HEALTHY: {HealthState.RECOVERING, HealthState.DEGRADED,
                          HealthState.FAILED},
    HealthState.RECOVERING: {HealthState.HEALTHY, HealthState.DEGRADED,
                             HealthState.FAILED},
    HealthState.DEGRADED: {HealthState.HEALTHY, HealthState.RECOVERING,
                           HealthState.FAILED},
    HealthState.FAILED: set(),
}


#: ServiceTelemetry counter fields mirrored into the registry as
#: ``service_<name>_total``.
_SERVICE_COUNTER_FIELDS = (
    "batches_applied",
    "batch_failures",
    "retries",
    "recoveries",
    "bisections",
    "poison_updates",
    "checkpoints_written",
    "checkpoints_rejected",
    "checkpoint_bytes",
    "journal_records",
    "journal_bytes",
    "stale_reads",
)

_SERVICE_COUNTERS = {
    name: _OBS.counter(f"service_{name}_total") for name in _SERVICE_COUNTER_FIELDS
}
_SERVICE_FIELD_SET = frozenset(_SERVICE_COUNTER_FIELDS)


@dataclass
class ServiceTelemetry:
    """Operational counters for the supervised service layer.

    Maintained by :class:`SupervisedCPLDS`; the counters answer the
    on-call questions (is the service healthy, how many
    recoveries/retries/quarantines has it absorbed, how stale are degraded
    reads), and ``transitions`` is the audit log of the health state machine
    (pairs of state names, oldest first).

    The dataclass fields are the per-instance record and work with the
    registry off.  While observability is enabled, every positive counter
    delta is also mirrored process-wide as ``service_<name>_total`` and
    each health transition increments
    ``service_health_transitions_total{from=...,to=...}``.
    """

    batches_applied: int = 0
    batch_failures: int = 0
    retries: int = 0
    recoveries: int = 0
    bisections: int = 0
    poison_updates: int = 0
    checkpoints_written: int = 0
    checkpoints_rejected: int = 0
    #: Bytes of every checkpoint file written (the archive sizes, summed).
    checkpoint_bytes: int = 0
    journal_records: int = 0
    #: Bytes of every journal frame written; a reopened service counts
    #: the compacted file it starts from.
    journal_bytes: int = 0
    stale_reads: int = 0
    #: Largest snapshot age (in batch epochs) any stale read was served at.
    #: A max, not a counter — kept out of ``_SERVICE_COUNTER_FIELDS`` and
    #: mirrored as the gauge ``service_stale_read_age_epochs_max`` instead.
    stale_read_max_age: int = 0
    #: Health state machine audit log: (from-state, to-state) names.
    transitions: list[tuple[str, str]] = field(default_factory=list)

    def __setattr__(self, name: str, value) -> None:
        # Mirror positive deltas of the counter fields into the registry
        # (the dataclass __init__ also lands here; the default 0 is a
        # zero-delta no-op, explicit non-zero starts are mirrored as-is).
        if _OBS.enabled and name in _SERVICE_FIELD_SET:
            delta = value - getattr(self, name, 0)
            if delta > 0:
                _SERVICE_COUNTERS[name].inc(delta)
        object.__setattr__(self, name, value)

    def note_stale_read_age(self, age: int) -> None:
        """Track the worst snapshot age served to a degraded read."""
        if age > self.stale_read_max_age:
            self.stale_read_max_age = age
            if _OBS.enabled:
                _OBS.set_gauge("service_stale_read_age_epochs_max", age)

    def record_transition(self, old: str, new: str) -> None:
        """Append one health transition to the audit log."""
        self.transitions.append((old, new))
        if _OBS.enabled:
            _OBS.inc(
                "service_health_transitions_total",
                labels={"from": old, "to": new},
            )

    def as_dict(self) -> dict[str, int]:
        """Plain counter snapshot (transitions reported as a count)."""
        return {
            "batches_applied": self.batches_applied,
            "batch_failures": self.batch_failures,
            "retries": self.retries,
            "recoveries": self.recoveries,
            "bisections": self.bisections,
            "poison_updates": self.poison_updates,
            "checkpoints_written": self.checkpoints_written,
            "checkpoints_rejected": self.checkpoints_rejected,
            "checkpoint_bytes": self.checkpoint_bytes,
            "journal_records": self.journal_records,
            "journal_bytes": self.journal_bytes,
            "stale_reads": self.stale_reads,
            "stale_read_max_age": self.stale_read_max_age,
            "transitions": len(self.transitions),
        }


@dataclass(frozen=True)
class ServiceRead:
    """One read served by the supervised layer.

    ``stale`` is True when the estimate came from the newest epoch
    retained by the read tier (recovery in flight) rather than the live
    structure; ``batch`` is the batch epoch the estimate reflects.
    """

    estimate: float
    stale: bool
    health: HealthState
    batch: int


@dataclass(frozen=True)
class AppliedRecord:
    """One successfully applied (and journaled) sub-batch."""

    seq: int
    insertions: tuple[Edge, ...]
    deletions: tuple[Edge, ...]


@dataclass(frozen=True)
class DroppedUpdate:
    """One update the supervisor gave up on, with its typed error."""

    op: str
    edge: Edge
    error: Exception


@dataclass
class BatchOutcome:
    """What happened to one submitted batch after supervision.

    ``applied`` lists the committed sub-batches in application order (one
    entry for an untroubled batch; several after a bisection); ``dropped``
    lists quarantined/failed updates with their typed errors.  The oracle
    check in the chaos harness replays exactly the ``applied`` records.
    """

    applied: list[AppliedRecord] = field(default_factory=list)
    dropped: list[DroppedUpdate] = field(default_factory=list)

    @property
    def fully_applied(self) -> bool:
        """True when no update in the batch was dropped."""
        return not self.dropped


@dataclass(frozen=True)
class RecoveryReport:
    """How a structure was reconstructed from a persistence directory."""

    #: Highest journal sequence number reflected in the restored structure.
    recovered_through: int
    #: Sequence number of the checkpoint used (0 = genesis replay).
    checkpoint_seq: int
    #: Filename of the checkpoint used, or None for a genesis replay.
    checkpoint_file: Optional[str]
    #: Number of journal records replayed on top of the checkpoint.
    replayed: int
    #: Whether the journal scan dropped a torn final record.
    torn_tail: bool
    #: Checkpoints that failed validation and were skipped.
    checkpoints_rejected: int


def _list_checkpoints(directory: str) -> list[tuple[int, str]]:
    """(seq, path) of every checkpoint file in ``directory``, newest first."""
    out = []
    for name in os.listdir(directory):
        m = _CHECKPOINT_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    out.sort(reverse=True)
    return out


def restore_from_dir(directory: str | os.PathLike[str]) -> tuple[CPLDS, RecoveryReport]:
    """Reconstruct a consistent CPLDS from a persistence directory.

    The recovery contract: scan the journal (raising
    :class:`~repro.errors.JournalCorruptError` for non-tail corruption),
    restore the newest checkpoint that passes validation — falling back to
    older ones, then to the journal's own embedded snapshot (written by
    compaction on a previous reopen), and ultimately to a from-genesis
    replay — then replay every committed batch record newer than the base,
    in sequence order.  The result reflects a consistent *prefix* of the
    journaled history.

    Bases below the journal's *floor* (the newest embedded snapshot's
    sequence number) are never used: history at or below the floor was
    compacted away, so replaying from an older base could silently skip
    batches.  If nothing at or above the floor is restorable, recovery
    raises rather than diverge.
    """
    from repro.persist import (
        BatchJournal,
        cplds_from_genesis,
        cplds_from_snapshot,
        load_cplds,
    )

    directory = os.fspath(directory)
    contents = BatchJournal.scan(os.path.join(directory, JOURNAL_FILENAME))
    records = contents.committed_batches()
    floor = contents.floor()

    base: CPLDS | None = None
    base_seq = 0
    used_file: str | None = None
    rejected = 0
    for seq, path in _list_checkpoints(directory):
        if seq < floor:
            break  # stale: predates the compaction floor
        try:
            base = load_cplds(path)
        except (CheckpointCorruptError, PersistError):
            rejected += 1
            continue
        base_seq = seq
        used_file = os.path.basename(path)
        break
    if base is None and floor > 0:
        base = cplds_from_snapshot(contents.genesis, contents.latest_snapshot())
        base_seq = floor
    if base is None:
        base = cplds_from_genesis(contents.genesis)

    replayed = 0
    last = base_seq
    for rec in records:
        if rec.seq <= base_seq:
            continue
        base.apply_batch(rec.insertions, rec.deletions)
        replayed += 1
        last = rec.seq
    return base, RecoveryReport(
        recovered_through=last,
        checkpoint_seq=base_seq,
        checkpoint_file=used_file,
        replayed=replayed,
        torn_tail=contents.torn_tail,
        checkpoints_rejected=rejected,
    )


class SupervisedCPLDS:
    """Fault-tolerant, journaled wrapper around one CPLDS.

    Single-writer: one thread (or one synchronous caller) drives
    :meth:`apply_batch`; any number of threads may call :meth:`read` /
    :meth:`read_tagged` concurrently.  See the module docstring for the
    recovery contract.

    Parameters
    ----------
    impl:
        The structure to supervise.  Must be quiescent and consistent.
    journal_dir:
        Directory for the write-ahead journal and checkpoints.  ``None``
        disables persistence: recovery then restores the exact pre-batch
        state captured in memory just before the attempt
        (:meth:`CPLDS.snapshot_state` / :meth:`CPLDS.restore_state`) — no
        durability across process death, but in-process faults lose
        nothing.  The directory must not already contain a journal;
        re-opening an existing one is :meth:`SupervisedCPLDS.open`'s job.
    checkpoint_every:
        Write a quiescent checkpoint after this many committed batches.
    keep_checkpoints:
        Retain this many newest checkpoint files.
    max_retries:
        Full-batch retries (after recovery) before bisecting.
    backoff_base:
        First retry delay in seconds; doubles per retry.  The ``sleep``
        callable is injectable so tests and the chaos harness stay fast and
        deterministic.
    degraded_clearance:
        Clean batches required to clear DEGRADED back to HEALTHY.
    snapshot_every:
        Publish cadence of the epoch-snapshot read tier: the attached
        :class:`~repro.reads.EpochSnapshotStore` accepts every epoch
        divisible by this (1 = every batch; larger trades read-tier
        freshness for an O(n)-copy saving on huge graphs).  Degraded
        reads are served from the newest epoch the cadence retained.
    epoch_window:
        How many epoch snapshots the read tier retains for pinned bulk
        reads (see :mod:`repro.reads`).
    epoch_max_staleness:
        Bounded-staleness budget forwarded to the epoch store: pins
        falling more than this many epochs behind are force-advanced
        (``None`` disables the budget).
    """

    def __init__(
        self,
        impl: CPLDS,
        *,
        journal_dir: str | os.PathLike[str] | None = None,
        checkpoint_every: int = 64,
        keep_checkpoints: int = 2,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        degraded_clearance: int = 3,
        snapshot_every: int = 1,
        epoch_window: int = 8,
        epoch_max_staleness: int | None = None,
        sync: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        telemetry: ServiceTelemetry | None = None,
        crash_dump_dir: str | os.PathLike[str] | None = None,
    ) -> None:
        from repro.persist import BatchJournal, seed_epoch_store

        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.impl = impl
        self.checkpoint_every = checkpoint_every
        self.keep_checkpoints = keep_checkpoints
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.degraded_clearance = degraded_clearance
        self.snapshot_every = snapshot_every
        self._sleep = sleep
        self.telemetry = telemetry if telemetry is not None else ServiceTelemetry()
        self.health = HealthState.HEALTHY
        #: Called with the (new) structure after every recovery swap —
        #: re-attach instrumentation/fault hooks here (the chaos harness
        #: does).
        self.post_restore: Callable[[CPLDS], None] | None = None
        self.failure_cause: BaseException | None = None
        #: Where flight-recorder crash dumps land on RECOVERING/FAILED
        #: transitions (defaults to the journal directory when journaling;
        #: None + no journal = no dumps).
        self.crash_dump_dir: str | None = (
            os.fspath(crash_dump_dir) if crash_dump_dir is not None else None
        )
        #: Basenames of every crash dump this service instance wrote.
        self.crash_dumps: list[str] = []

        self._journal: "BatchJournal | None" = None
        self._journal_dir: str | None = None
        self._journal_counted = 0  # journal bytes already in telemetry
        self._next_seq = 1  # used only when journaling is disabled
        self._last_seq = 0
        self._committed_since_checkpoint = 0
        self._degraded_countdown = 0
        #: The multi-version read tier.  Seeded with the adopted structure's
        #: current state (so degraded reads work from batch zero), published
        #: to by the engine at every accepted ``batch_end``, and re-seeded
        #: after every recovery (:func:`repro.persist.seed_epoch_store`).
        self.epoch_store = EpochSnapshotStore(
            window=epoch_window,
            max_staleness=epoch_max_staleness,
            publish_every=snapshot_every,
        )
        seed_epoch_store(impl, self.epoch_store)

        if journal_dir is not None:
            directory = os.fspath(journal_dir)
            os.makedirs(directory, exist_ok=True)
            self._journal_dir = directory
            if self.crash_dump_dir is None:
                self.crash_dump_dir = directory
            self._journal = BatchJournal.create(
                os.path.join(directory, JOURNAL_FILENAME),
                num_vertices=impl.graph.num_vertices,
                params=impl.params,
                backend=impl.backend,
                sync=sync,
            )
            self._count_journal()
            if impl.graph.num_edges or impl.batch_number:
                # Non-empty adoption: snapshot the starting state so a
                # from-genesis replay is never needed to reach it.
                self._write_checkpoint()

    # ------------------------------------------------------------------
    # Re-opening after a crash
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        journal_dir: str | os.PathLike[str],
        *,
        sync: bool = False,
        **options,
    ) -> tuple["SupervisedCPLDS", RecoveryReport]:
        """Recover a service from its persistence directory after a crash.

        Returns the service plus a :class:`RecoveryReport` saying exactly
        which prefix of the journaled history the restored structure
        reflects.  Accepts the same tuning keyword arguments as the
        constructor (``checkpoint_every``, ``max_retries``, ...).

        The journal is *compacted* on reopen (rewritten as genesis + an
        embedded snapshot of the recovered state): truncation may have
        removed batch records that the recovery checkpoint covered, and
        appending after such a hole would leave a journal that can never
        again reproduce the live state by replay.  After compaction the
        journal alone restores to ``recovered_through`` even if every
        checkpoint file is later lost.
        """
        from repro.persist import BatchJournal

        directory = os.fspath(journal_dir)
        impl, report = restore_from_dir(directory)
        service = cls(impl, journal_dir=None, sync=sync, **options)
        service._journal_dir = directory
        if service.crash_dump_dir is None:
            service.crash_dump_dir = directory
        service._journal = BatchJournal.compact(
            os.path.join(directory, JOURNAL_FILENAME),
            cplds=impl,
            seq=report.recovered_through,
            sync=sync,
        )
        service._count_journal(2)  # genesis + snapshot
        service._last_seq = report.recovered_through
        service.telemetry.recoveries += 1
        service.telemetry.checkpoints_rejected += report.checkpoints_rejected
        return service, report

    # ------------------------------------------------------------------
    # Reads (any thread; never block, never raise)
    # ------------------------------------------------------------------
    def read(self, v: Vertex) -> float:
        """Coreness estimate of ``v`` — live when healthy, stale-snapshot
        while recovery is in flight (use :meth:`read_tagged` to see which)."""
        return self.read_tagged(v).estimate

    def read_tagged(self, v: Vertex) -> ServiceRead:
        """Read with degradation metadata (stale flag, health, batch)."""
        health = self.health
        if health in (HealthState.RECOVERING, HealthState.FAILED):
            return self._stale_read(v, health)
        impl = self.impl
        try:
            return ServiceRead(impl.read(v), False, health, impl.batch_number)
        except Exception:
            # Wounded mid-transition (failure racing this read): degrade.
            return self._stale_read(v, self.health)

    def _stale_read(self, v: Vertex, health: HealthState) -> ServiceRead:
        """Serve ``v`` from the newest retained epoch, accounting its age
        (live batch number minus the served epoch) in epochs."""
        snap = self.epoch_store.newest()
        assert snap is not None  # seeded at construction, never emptied
        self.telemetry.stale_reads += 1
        age = max(0, self.impl.batch_number - snap.epoch)
        self.telemetry.note_stale_read_age(age)
        if _OBS.enabled:
            _SNAPSHOT_AGE.observe(age)
        if _REC.enabled:
            _REC.record(_EV.STALE_READ, v, age, snap.epoch)
        return ServiceRead(snap.estimate(v), True, health, snap.epoch)

    def pin_epoch(self, epoch: int | None = None):
        """Pin an epoch in the read tier for bulk reads (newest by default).

        See :meth:`repro.reads.EpochSnapshotStore.pin`; reads through the
        returned pin never touch the live structure, so they stay
        consistent through recoveries and health transitions.
        """
        return self.epoch_store.pin(epoch)

    # ------------------------------------------------------------------
    # Updates (single supervised writer)
    # ------------------------------------------------------------------
    def apply_batch(
        self, insertions: Iterable[Edge] = (), deletions: Iterable[Edge] = ()
    ) -> BatchOutcome:
        """Apply one mixed batch under supervision.

        Never raises for *batch* failures — those are absorbed by recovery,
        retry, and quarantine, and reported in the returned
        :class:`BatchOutcome`.  Raises
        :class:`~repro.errors.ServiceFailedError` only when the service is
        already FAILED.
        """
        if self.health is HealthState.FAILED:
            raise ServiceFailedError(
                "service is FAILED; submissions are rejected"
            ) from self.failure_cause
        ins, dels = self._normalize(insertions, deletions)
        outcome = BatchOutcome()
        self._apply_ops(ins, dels, outcome)
        if self.health is not HealthState.FAILED:
            if outcome.dropped:
                self._set_health(HealthState.DEGRADED)
                self._degraded_countdown = self.degraded_clearance
            elif self.health is HealthState.DEGRADED and outcome.applied:
                self._degraded_countdown -= 1
                if self._degraded_countdown <= 0:
                    self._set_health(HealthState.HEALTHY)
            if (
                self._journal is not None
                and self._committed_since_checkpoint >= self.checkpoint_every
            ):
                self._write_checkpoint()
        return outcome

    def close(self) -> None:
        """Checkpoint (when healthy) and close the journal (idempotent)."""
        if self._journal is not None:
            if self.health in (HealthState.HEALTHY, HealthState.DEGRADED):
                if self._committed_since_checkpoint:
                    self._write_checkpoint()
            self._journal.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(
        insertions: Iterable[Edge], deletions: Iterable[Edge]
    ) -> tuple[list[Edge], list[Edge]]:
        """Canonicalise and dedupe; an edge in both sub-batches nets to its
        deletion (``apply_batch`` treats it as insert-then-delete)."""
        ins_order: list[Edge] = []
        seen: set[Edge] = set()
        for u, v in insertions:
            e = canonical_edge(u, v)
            if e not in seen:
                seen.add(e)
                ins_order.append(e)
        del_order: list[Edge] = []
        dseen: set[Edge] = set()
        for u, v in deletions:
            e = canonical_edge(u, v)
            if e not in dseen:
                dseen.add(e)
                del_order.append(e)
        ins_final = [e for e in ins_order if e not in dseen]
        return ins_final, del_order

    def _apply_ops(
        self, ins: list[Edge], dels: list[Edge], outcome: BatchOutcome
    ) -> None:
        """Apply one (sub-)batch with journaling, retry, and bisection."""
        if not ins and not dels:
            return
        if self.health is HealthState.FAILED:
            self._drop_all(ins, dels, outcome)
            return

        pre_state = None
        if self._journal is None:
            # Persistence-free recovery restores the exact pre-batch state
            # captured here: O(n + m), the edge list plus, on the
            # columnar-frontier backend, three int64[n] counter arrays.
            pre_state = self.impl.snapshot_state()

        try:
            seq = self._append_journal(ins, dels)
        except ServiceFailedError:
            self._drop_all(ins, dels, outcome)
            return
        except JournalEncodeError:
            # Nothing was written and no retry can help: isolate the update.
            self.telemetry.batch_failures += 1
            self._isolate(ins, dels, 0, outcome)
            return

        attempts = 0
        while True:
            try:
                self.impl.apply_batch(ins, dels)
            except Exception:
                self.telemetry.batch_failures += 1
                if not self._recover(pre_state):
                    self._drop_all(ins, dels, outcome)
                    return
                if attempts < self.max_retries:
                    attempts += 1
                    self.telemetry.retries += 1
                    delay = self.backoff_base * (2 ** (attempts - 1))
                    if delay > 0:
                        self._sleep(delay)
                    continue
                break  # deterministic failure: bisect
            else:
                try:
                    self._commit_journal(seq)
                except ServiceFailedError:
                    self._drop_all(ins, dels, outcome)
                    return
                self._after_commit(seq, ins, dels, outcome)
                return
        self._isolate(ins, dels, attempts, outcome)

    def _isolate(
        self, ins: list[Edge], dels: list[Edge], attempts: int,
        outcome: BatchOutcome,
    ) -> None:
        """Bisect a deterministically failing (sub-)batch; quarantine a
        single update that still fails."""
        ops = [("+", e) for e in ins] + [("-", e) for e in dels]
        if len(ops) == 1:
            op, edge = ops[0]
            error = PoisonUpdateError(
                f"update {op}{edge} quarantined after "
                f"{attempts + 1} failed attempts"
            )
            outcome.dropped.append(DroppedUpdate(op, edge, error))
            self.telemetry.poison_updates += 1
            return
        self.telemetry.bisections += 1
        mid = len(ops) // 2
        for half in (ops[:mid], ops[mid:]):
            self._apply_ops(
                [e for op, e in half if op == "+"],
                [e for op, e in half if op == "-"],
                outcome,
            )

    def _append_journal(self, ins: list[Edge], dels: list[Edge]) -> int:
        if self._journal is None:
            seq = self._next_seq
            self._next_seq += 1
            return seq
        try:
            seq = self._journal.append_batch(ins, dels)
        except JournalEncodeError:
            raise
        except Exception as exc:
            self._fail(exc)
            raise ServiceFailedError("journal append failed") from exc
        self._count_journal()
        return seq

    def _commit_journal(self, seq: int) -> None:
        if self._journal is None:
            return
        try:
            self._journal.commit(seq)
        except Exception as exc:
            self._fail(exc)
            raise ServiceFailedError("journal commit failed") from exc
        self._count_journal()

    def _count_journal(self, records: int = 1) -> None:
        """Count ``records`` new journal records and the bytes they added."""
        size = self._journal.size
        self.telemetry.journal_records += records
        self.telemetry.journal_bytes += size - self._journal_counted
        self._journal_counted = size

    def _after_commit(
        self, seq: int, ins: list[Edge], dels: list[Edge], outcome: BatchOutcome
    ) -> None:
        outcome.applied.append(AppliedRecord(seq, tuple(ins), tuple(dels)))
        self._last_seq = seq
        self.telemetry.batches_applied += 1
        self._committed_since_checkpoint += 1
        if self.health is HealthState.RECOVERING:
            self._set_health(HealthState.HEALTHY)

    def _drop_all(
        self, ins: list[Edge], dels: list[Edge], outcome: BatchOutcome
    ) -> None:
        error = ServiceFailedError("service failed; update not applied")
        error.__cause__ = self.failure_cause
        for e in ins:
            outcome.dropped.append(DroppedUpdate("+", e, error))
        for e in dels:
            outcome.dropped.append(DroppedUpdate("-", e, error))

    def _recover(self, pre_state) -> bool:
        """Restore a consistent pre-batch structure; False = now FAILED."""
        started = time.perf_counter()
        with _OBS.span(
            "supervisor.recover", journaled=self._journal is not None
        ) as sp:
            self._set_health(HealthState.RECOVERING)
            self.telemetry.recoveries += 1
            replayed = checkpoint_seq = 0
            try:
                if self._journal is not None:
                    assert self._journal_dir is not None
                    impl, report = restore_from_dir(self._journal_dir)
                    replayed = report.replayed
                    checkpoint_seq = report.checkpoint_seq
                    sp.set(
                        replayed=report.replayed,
                        checkpoint_seq=report.checkpoint_seq,
                    )
                else:
                    # Persistence-free mode: exact in-place restore of the
                    # state snapshotted just before the failed attempt.
                    impl = self.impl
                    impl.restore_state(pre_state)
            except Exception as exc:
                self._fail(exc)
                sp.set(failed=True)
                if _REC.enabled:
                    _REC.record(_EV.RECOVERY, 0, replayed, checkpoint_seq)
                return False
            self.impl = impl
            if self.post_restore is not None:
                self.post_restore(impl)
            # The restored structure is consistent: re-anchor the read tier
            # at the recovered epoch — rolled-back epochs are dropped, and
            # the (possibly fresh) structure publishes into the same store
            # (readers keep the stale tag until a batch commits again).
            from repro.persist import seed_epoch_store

            seed_epoch_store(impl, self.epoch_store)
            if _OBS.enabled:
                _RECOVERY_SECONDS.observe(time.perf_counter() - started)
            if _REC.enabled:
                _REC.record(_EV.RECOVERY, 1, replayed, checkpoint_seq)
            return True

    def _fail(self, cause: BaseException) -> None:
        self.failure_cause = cause
        if self.health is not HealthState.FAILED:
            self._set_health(HealthState.FAILED)

    def _set_health(self, new: HealthState) -> None:
        old = self.health
        if new is old:
            return
        if new not in _ALLOWED_TRANSITIONS[old]:  # pragma: no cover - guard
            raise AssertionError(f"illegal health transition {old} -> {new}")
        self.health = new
        self.telemetry.record_transition(old.name, new.name)
        if _REC.enabled:
            _REC.record(_EV.HEALTH, HEALTH_ORDINALS[old], HEALTH_ORDINALS[new])
        if new in (HealthState.RECOVERING, HealthState.FAILED):
            self.dump_flight_record(new.value)

    def dump_flight_record(self, tag: str) -> Optional[str]:
        """Dump the flight recorder's tail for post-mortem analysis.

        Called automatically on every RECOVERING/FAILED transition; callable
        explicitly (the chaos harness dumps after simulated restarts).  The
        filename embeds the recorder's lifetime event count, so successive
        dumps never collide and deterministic replays produce deterministic
        names.  Never raises — a failed dump must not worsen a failure.
        """
        if not _REC.enabled or self.crash_dump_dir is None:
            return None
        name = f"flightrec-{_REC.total:08d}-{tag}.jsonl"
        path = os.path.join(self.crash_dump_dir, name)
        try:
            os.makedirs(self.crash_dump_dir, exist_ok=True)
            _REC.dump(path)
        except OSError:  # pragma: no cover - dump failure must stay benign
            return None
        self.crash_dumps.append(name)
        return path

    def _write_checkpoint(self) -> None:
        from repro.persist import save_cplds

        assert self._journal is not None and self._journal_dir is not None
        name = f"checkpoint-{self._last_seq:08d}.npz"
        path = os.path.join(self._journal_dir, name)
        try:
            with _OBS.span("supervisor.checkpoint", seq=self._last_seq):
                save_cplds(self.impl, path)
        except Exception:
            # A rejected checkpoint is not fatal: recovery falls back to an
            # older one (or a genesis replay).  Leave no partial file.
            self.telemetry.checkpoints_rejected += 1
            if os.path.exists(path):
                os.unlink(path)
            return
        size = os.path.getsize(path)
        self._journal.note_checkpoint(self._last_seq, name)
        self._count_journal()
        self.telemetry.checkpoints_written += 1
        self.telemetry.checkpoint_bytes += size
        if _REC.enabled:
            _REC.record(_EV.CHECKPOINT, self._last_seq, size)
        self._committed_since_checkpoint = 0
        for _seq, old in _list_checkpoints(self._journal_dir)[self.keep_checkpoints:]:
            os.unlink(old)


class SupervisedCoordinator(BatchCoordinator):
    """Multi-producer coordinator with supervised, journaled application.

    Drop-in for :class:`~repro.runtime.coordinator.BatchCoordinator`, but a
    mid-batch failure no longer kills the update thread: the batch is
    recovered, retried, and — if deterministically poisonous — bisected so
    that only the offending updates' tickets fail (with
    :class:`~repro.errors.PoisonUpdateError`); everything else commits.
    Reads served through :meth:`read` / :meth:`read_tagged` degrade to the
    newest retained epoch while recovery is in flight instead of ever
    blocking or raising; :meth:`~repro.runtime.coordinator.
    BatchCoordinator.pin_epoch` serves bulk reads from the service's own
    epoch store.

    Supervision parameters (``journal_dir``, ``checkpoint_every``,
    ``max_retries``, ...) are forwarded to :class:`SupervisedCPLDS`;
    batching parameters (``max_batch``, ``max_delay``, ``queue_capacity``)
    to the base coordinator.
    """

    def __init__(
        self,
        impl: CPLDS,
        *,
        max_batch: int = 1024,
        max_delay: float = 0.01,
        queue_capacity: int = 65536,
        service: SupervisedCPLDS | None = None,
        **supervision,
    ) -> None:
        if service is not None:
            if supervision:
                raise ValueError(
                    "pass either a pre-built service or supervision options"
                )
            if service.impl is not impl:
                raise ValueError("service does not supervise this impl")
            self.service = service
        else:
            self.service = SupervisedCPLDS(impl, **supervision)
        super().__init__(
            impl,
            max_batch=max_batch,
            max_delay=max_delay,
            queue_capacity=queue_capacity,
        )

    # The service owns (and may swap) the structure during recovery; the
    # coordinator always sees the current one.
    @property
    def impl(self) -> CPLDS:
        """The currently supervised structure (post-recovery swaps seen)."""
        return self.service.impl

    @impl.setter
    def impl(self, value: CPLDS) -> None:
        if value is not self.service.impl:
            raise ValueError("the supervised service owns the structure")

    @property
    def health(self) -> HealthState:
        """Current health state of the supervised service."""
        return self.service.health

    @property
    def telemetry(self) -> ServiceTelemetry:
        """The service's operational counters and transition log."""
        return self.service.telemetry

    def read(self, v: Vertex) -> float:
        """Degradation-aware read (stale snapshot while recovering)."""
        return self.service.read(v)

    def read_tagged(self, v: Vertex) -> ServiceRead:
        """Read with degradation metadata (stale flag, health, batch)."""
        return self.service.read_tagged(v)

    def _check_accepting(self) -> None:
        super()._check_accepting()
        if self.service.health is HealthState.FAILED:
            raise ServiceFailedError(
                "service is FAILED; submissions are rejected"
            ) from self.service.failure_cause

    def _apply_edges(self, inserts, deletes):
        try:
            outcome = self.service.apply_batch(inserts, deletes)
        except ServiceFailedError as exc:
            return {e: exc for e in (*inserts, *deletes)}
        return {d.edge: d.error for d in outcome.dropped}

    def close(self, timeout: float = 30.0) -> None:
        """Close the coordinator, then checkpoint and close the journal."""
        try:
            super().close(timeout)
        finally:
            self.service.close()
