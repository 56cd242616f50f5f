"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch every library failure with a single ``except`` clause while still
being able to distinguish the concrete failure modes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """Base class for errors raised by the dynamic-graph substrate."""


class VertexOutOfRange(GraphError):
    """A vertex id lies outside ``[0, num_vertices)``."""

    def __init__(self, vertex: int, num_vertices: int) -> None:
        super().__init__(
            f"vertex {vertex} out of range for a graph with "
            f"{num_vertices} vertices"
        )
        self.vertex = vertex
        self.num_vertices = num_vertices


class SelfLoopError(GraphError):
    """Self-loops are not supported by the k-core algorithms in this library."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"self-loop on vertex {vertex} is not allowed")
        self.vertex = vertex


class EdgeStateError(GraphError):
    """An edge insertion/deletion conflicts with the current graph state.

    Raised in *strict* mode when inserting an edge that already exists or
    deleting one that does not.
    """


class LDSError(ReproError):
    """Base class for level-data-structure errors."""


class InvariantViolation(LDSError):
    """An LDS degree invariant does not hold when it was required to.

    Carried by the invariant checkers in :mod:`repro.lds.invariants`; seeing
    this outside of a test indicates a bug in the rebalancing logic.
    """

    def __init__(self, message: str, vertex: int | None = None) -> None:
        super().__init__(message)
        self.vertex = vertex


class BatchInProgressError(ReproError):
    """An operation that requires quiescence was invoked mid-batch."""


class PersistError(ReproError):
    """Base class for errors raised by the persistence layer."""


class CheckpointCorruptError(PersistError):
    """A checkpoint file is unreadable, truncated, or fails its checksum.

    Raised by :func:`repro.persist.load_cplds` instead of surfacing raw
    numpy/zipfile errors, so recovery code can fall back to an earlier
    checkpoint (or a full journal replay) with a single ``except`` clause.
    """


class JournalCorruptError(PersistError):
    """A batch-journal record *before* the tail failed validation.

    A torn final record is the normal signature of a crash mid-append and is
    tolerated (dropped) by the journal reader; corruption anywhere earlier
    means the file was damaged after the fact and replaying past it could
    silently skip committed batches — so the reader refuses.
    """


class JournalEncodeError(PersistError):
    """A batch names an endpoint no journal word holds.

    Raised by :meth:`repro.persist.BatchJournal.append_batch` when an
    endpoint is not an integer in the ``int64`` range; nothing is written,
    so the journal stays usable and the service quarantines the update.
    """


class CoordinatorClosedError(ReproError):
    """An update was submitted to a coordinator after :meth:`close`.

    Also set as the :attr:`~repro.runtime.coordinator.UpdateTicket.error` of
    any ticket that was still queued when the coordinator shut down, so no
    producer is ever left waiting on a ticket that can no longer complete.
    """


class CoordinatorDiedError(ReproError):
    """The coordinator's update thread died on an unhandled exception.

    The original exception is chained as ``__cause__``; every pending ticket
    is failed with this error so waiting producers unblock.
    """


class TicketTimeoutError(ReproError, TimeoutError):
    """An :meth:`UpdateTicket.wait` deadline expired before completion.

    Subclasses :class:`TimeoutError` as well, so callers may catch either the
    library hierarchy or the builtin.
    """


class PoisonUpdateError(ReproError):
    """An update failed deterministically and was quarantined.

    The supervisor retried the containing batch, then bisected it down to
    this individual update, which still failed; the update is dropped and
    only its ticket fails — the rest of the batch commits normally.
    """


class ServiceFailedError(ReproError):
    """The supervised service is in the terminal FAILED state.

    Raised for new submissions once recovery has been exhausted; reads keep
    being served from the last-known-good snapshot.
    """


class RecoveryError(ReproError):
    """A recovery attempt could not restore a consistent structure."""


class HistoryError(ReproError):
    """An operation history is malformed (e.g. response before invocation)."""


class NotLinearizable(ReproError):
    """A recorded history admits no valid linearization.

    Raised by :mod:`repro.verify.linearizability` when a violation is found;
    the message pinpoints the offending operations.
    """


class EpochUnavailableError(ReproError):
    """The requested epoch is not retained by the snapshot store.

    Raised by :meth:`repro.reads.EpochSnapshotStore.pin` when the epoch was
    evicted (outside the retention window) or never published, and by
    :class:`repro.reads.EpochPin` read methods after :meth:`release`.
    """


class SimulationError(ReproError):
    """The deterministic scheduler was driven into an invalid state."""


class WorkloadError(ReproError):
    """A workload specification is inconsistent (e.g. deleting absent edges)."""
