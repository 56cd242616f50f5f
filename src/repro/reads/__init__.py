"""``repro.reads`` — the multi-version epoch-snapshot read tier.

Engines publish an immutable level snapshot per batch epoch; readers pin
an epoch and run bulk queries against it without touching the write
path.  See :mod:`repro.reads.epoch` for the full concurrency contract
and ``docs/architecture.md`` for the data-flow diagram.

Wiring an engine into the tier::

    from repro import engines
    from repro.reads import EpochSnapshotStore

    store = EpochSnapshotStore(window=8)
    eng = engines.create(
        "cplds", n, backend="columnar-frontier", epoch_store=store
    )
    eng.insert_batch(edges)               # publishes epoch 1
    with store.pin() as pin:              # lease the newest epoch
        top = pin.top_k(10)               # linearizable at that epoch
        cores = pin.coreness_many(range(n))
"""

from __future__ import annotations

from repro.errors import EpochUnavailableError
from repro.reads.epoch import EpochPin, EpochSnapshot, EpochSnapshotStore

__all__ = [
    "EpochPin",
    "EpochSnapshot",
    "EpochSnapshotStore",
    "EpochUnavailableError",
    "attach_epoch_store",
]


def attach_epoch_store(engine, store: EpochSnapshotStore) -> EpochSnapshotStore:
    """Attach ``store`` to ``engine`` so every ``batch_end`` publishes.

    Seeds the store with the engine's current epoch and live levels
    (via :meth:`EpochSnapshotStore.reseed`, so the anchor is retained
    regardless of the publish cadence), then installs the store on the
    engine's ``epoch_store`` seam.  Only the CPLDS family exposes that
    seam; other engines raise ``TypeError``.
    """
    if not hasattr(engine, "epoch_store") or not hasattr(engine, "_publish_epoch"):
        raise TypeError(
            f"engine {type(engine).__name__} does not support epoch snapshots"
        )
    store.reseed(
        int(engine.batch_number),
        engine.plds.state.snapshot_levels(),
        params=engine.params,
    )
    engine.epoch_store = store
    return store
