"""Workload construction: update-batch streams and read generators.

The experiment drivers in :mod:`repro.harness.experiments` combine a
:class:`~repro.workloads.batches.BatchStream` (what the update processes
apply) with a read policy from :mod:`repro.workloads.reads` (what the read
processes ask), mirroring the paper's setup: batches of a fixed size drawn
from each dataset, with uniform-random vertex reads generated continuously
for the duration of each batch.
"""

from repro.workloads import adversarial
from repro.workloads.batches import Batch, BatchStream, split_into_batches
from repro.workloads.mixes import (
    BulkReadOp,
    MixedBatch,
    MixedStreamGenerator,
    ReadHeavyMixGenerator,
    preprocess_mixed_batch,
)
from repro.workloads.reads import UniformReadGenerator, ZipfReadGenerator
from repro.workloads.runner import ReadHeavyResult, run_read_heavy

__all__ = [
    "ReadHeavyResult",
    "run_read_heavy",
    "BulkReadOp",
    "ReadHeavyMixGenerator",
    "adversarial",
    "Batch",
    "BatchStream",
    "split_into_batches",
    "MixedBatch",
    "MixedStreamGenerator",
    "preprocess_mixed_batch",
    "UniformReadGenerator",
    "ZipfReadGenerator",
]
