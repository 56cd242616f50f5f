"""Replay a read-heavy update/read mix through any CPLDS-family engine.

:func:`run_read_heavy` builds the engine through the registry
(:mod:`repro.engines`) with an attached epoch store, applies the mix's
update batches and answers its bulk reads from pinned epochs, so the same
replay runs unchanged against every level-store backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import engines
from repro.lds.params import LDSParams
from repro.workloads.mixes import ReadHeavyMixGenerator


@dataclass(frozen=True)
class ReadHeavyResult:
    """Outcome of a read-heavy replay through the epoch read tier."""

    engine: object
    store: object
    insertions: int
    deletions: int
    bulk_reads: int
    vertices_read: int
    #: Newest epoch of every bulk read's pin, in schedule order.
    epochs_read: tuple[int, ...]


def run_read_heavy(
    mix: ReadHeavyMixGenerator,
    *,
    engine: str = "cplds",
    backend: str = "object",
    params: LDSParams | None = None,
    epoch_window: int = 8,
) -> ReadHeavyResult:
    """Replay a :class:`~repro.workloads.mixes.ReadHeavyMixGenerator`.

    Updates go through ``apply_batch`` on an engine built with an attached
    :class:`~repro.reads.EpochSnapshotStore`; every ``("read", op)`` item
    pins the newest epoch and bulk-reads the op's vertex block, so the
    read schedule exercises the multi-version tier rather than the live
    structure.  Only engines exposing the epoch seam (the CPLDS family)
    are accepted — others raise ``TypeError`` at construction.
    """
    from repro.reads import EpochSnapshotStore

    store = EpochSnapshotStore(window=epoch_window)
    impl = engines.create(
        engine, mix.num_vertices, backend=backend, params=params,
        epoch_store=store,
    )
    total_ins = total_del = bulk_reads = vertices_read = 0
    epochs: list[int] = []
    for kind, item in mix:
        if kind == "update":
            ins, dels = impl.apply_batch(
                insertions=item.insertions, deletions=item.deletions
            )
            total_ins += ins
            total_del += dels
        else:
            with store.pin() as pin:
                pin.coreness_many(item.vertices)
                epochs.append(pin.epoch)
            bulk_reads += 1
            vertices_read += len(item)
    return ReadHeavyResult(
        engine=impl,
        store=store,
        insertions=total_ins,
        deletions=total_del,
        bulk_reads=bulk_reads,
        vertices_read=vertices_read,
        epochs_read=tuple(epochs),
    )
