"""Experiment drivers: one per paper artifact (Table 1, Figures 3–7).

Every driver takes an :class:`ExperimentConfig` controlling scale (datasets,
batch size, trial count, reader threads) and returns plain result rows that
:mod:`repro.harness.report` renders and the benches under ``benchmarks/``
assert shape properties over.  The default configuration matches the paper's
parameters wherever the reproduction scale allows: δ=0.2, λ=9, the ``-opt
20`` shallow group height, insertion batches followed by deletion batches of
the same edges, uniform-random reads concurrent with every batch.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import engines
from repro.exact import degeneracy
from repro.graph import datasets as ds
from repro.harness.stats import LatencyStats
from repro.lds.params import LDSParams
from repro.runtime.inject import InjectionProbe, attach_probe
from repro.runtime.sim import (
    CostModel,
    sweep_reader_scalability,
    sweep_writer_scalability,
)
from repro.runtime.threads import run_concurrent_session
from repro.verify.approximation import BoundaryOracle, ErrorStats, read_error
from repro.workloads.batches import BatchStream

IMPLS = ("cplds", "nonsync", "syncreads")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs shared by all drivers."""

    datasets: tuple[str, ...] = ("dblp", "yt", "ctr")
    batch_size: int = 1000
    num_readers: int = 2
    trials: int = 1
    levels_per_group: int | None = 20  # the paper's -opt 20
    delete_fraction: float = 0.5
    seed: int = 0
    #: Vertices read per injected point in the Fig 6 error experiment.
    error_sample_size: int = 150
    #: Thread counts for the Fig 7 sweeps.
    thread_counts: tuple[int, ...] = (1, 2, 4, 8, 15)
    #: Level-store backend every impl is built on
    #: (``"object"`` | ``"columnar-frontier"``).
    backend: str = "object"
    #: Fraction of each phase's leading batches whose in-flight reads are
    #: trimmed as warmup before latency aggregation (Fig 3).  0 disables.
    warmup_fraction: float = 0.0

    def with_(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


#: Runs in well under a minute per figure; good for CI smoke.
QUICK = ExperimentConfig(datasets=("dblp", "ctr"), trials=1)

#: The full reproduction sweep over every Table 1 stand-in.
FULL = ExperimentConfig(
    datasets=tuple(ds.names()),
    trials=3,
    num_readers=4,
)


def make_impl(kind: str, num_vertices: int, config: ExperimentConfig):
    """Fresh implementation instance for one trial (via the engine registry)."""
    params = LDSParams(num_vertices, levels_per_group=config.levels_per_group)
    return engines.create(
        kind, num_vertices, params=params, backend=config.backend
    )


def make_stream(name: str, config: ExperimentConfig, trial: int) -> BatchStream:
    """The standard insert-then-delete stream for one dataset and trial."""
    n, edges = ds.DATASETS[name].build_edges()
    return BatchStream.insert_then_delete(
        name,
        n,
        edges,
        config.batch_size,
        delete_fraction=config.delete_fraction,
        shuffle_seed=config.seed + trial,
    )


# ----------------------------------------------------------------------
# Table 1 — dataset inventory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    name: str
    paper_vertices: int
    paper_edges: int
    paper_max_k: int
    standin_vertices: int
    standin_edges: int
    standin_max_k: int
    regime: str


def table1(names: Iterable[str] | None = None) -> list[Table1Row]:
    """Recompute Table 1 for every stand-in: sizes and largest k."""
    rows = []
    for name in names if names is not None else ds.names():
        spec = ds.DATASETS[name]
        graph = spec.build()
        rows.append(
            Table1Row(
                name=name,
                paper_vertices=spec.paper_vertices,
                paper_edges=spec.paper_edges,
                paper_max_k=spec.paper_max_k,
                standin_vertices=graph.num_vertices,
                standin_edges=graph.num_edges,
                standin_max_k=degeneracy(graph),
                regime=spec.regime,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fig 3 — read latency per implementation, insertions and deletions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LatencyRow:
    dataset: str
    impl: str
    phase: str  # "insert" | "delete"
    stats: LatencyStats


def _warmup_skip_batches(
    batch_kinds: Sequence[str], fraction: float
) -> frozenset[int]:
    """1-based batch numbers trimmed as warmup.

    Per phase (not globally): the first ``fraction`` of each phase's
    batches.  A global prefix trim would only touch insertions — the
    deletion phase has its own cold start when the stream flips over.
    """
    if fraction <= 0.0:
        return frozenset()
    by_phase: dict[str, list[int]] = {}
    for i, kind in enumerate(batch_kinds):
        by_phase.setdefault(kind, []).append(i + 1)
    skip: set[int] = set()
    for numbers in by_phase.values():
        skip.update(numbers[: int(len(numbers) * fraction)])
    return frozenset(skip)


def _split_latencies_by_phase(
    session_reads,
    batch_kinds: Sequence[str],
    skip_batches: frozenset[int] = frozenset(),
) -> dict[str, list[float]]:
    """Bucket in-flight read latencies by the kind of their claimed batch."""
    out: dict[str, list[float]] = {"insert": [], "delete": []}
    for sample in session_reads:
        if not sample.in_flight:
            continue
        if sample.batch in skip_batches:
            continue
        idx = sample.batch - 1  # batch numbers are 1-based
        if 0 <= idx < len(batch_kinds):
            out[batch_kinds[idx]].append(sample.latency)
    return out


def fig3(config: ExperimentConfig = QUICK) -> list[LatencyRow]:
    """Average/p99/p99.99 read latency for each impl × dataset × phase."""
    rows: list[LatencyRow] = []
    for name in config.datasets:
        per_impl: dict[str, dict[str, list[float]]] = {
            impl: {"insert": [], "delete": []} for impl in IMPLS
        }
        for trial in range(config.trials):
            stream = make_stream(name, config, trial)
            kinds = stream.kinds()
            skip = _warmup_skip_batches(kinds, config.warmup_fraction)
            for impl_kind in IMPLS:
                impl = make_impl(impl_kind, stream.num_vertices, config)
                session = run_concurrent_session(
                    impl,
                    stream,
                    num_readers=config.num_readers,
                    reader_seed=config.seed + trial,
                    name=f"{name}:{impl_kind}",
                )
                buckets = _split_latencies_by_phase(
                    session.reads, kinds, skip_batches=skip
                )
                for phase in ("insert", "delete"):
                    per_impl[impl_kind][phase].extend(buckets[phase])
        for impl_kind in IMPLS:
            for phase in ("insert", "delete"):
                samples = per_impl[impl_kind][phase]
                if samples:
                    rows.append(
                        LatencyRow(
                            dataset=name,
                            impl=impl_kind,
                            phase=phase,
                            stats=LatencyStats.from_samples(samples),
                        )
                    )
    return rows


# ----------------------------------------------------------------------
# Fig 4 — read latency vs batch size
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSizeRow:
    dataset: str
    impl: str
    batch_size: int
    stats: LatencyStats


def fig4(
    config: ExperimentConfig = QUICK,
    batch_sizes: Sequence[int] = (250, 500, 1000, 2000, 4000),
) -> list[BatchSizeRow]:
    """Read latency across insertion batch sizes (paper: dblp and yt)."""
    rows: list[BatchSizeRow] = []
    for name in config.datasets:
        n, edges = ds.DATASETS[name].build_edges()
        for batch_size in batch_sizes:
            for impl_kind in IMPLS:
                samples: list[float] = []
                for trial in range(config.trials):
                    stream = BatchStream.insert_only(
                        name, n, edges, batch_size,
                        shuffle_seed=config.seed + trial,
                    )
                    impl = make_impl(impl_kind, n, config)
                    session = run_concurrent_session(
                        impl,
                        stream,
                        num_readers=config.num_readers,
                        reader_seed=config.seed + trial,
                    )
                    samples.extend(session.read_latencies())
                if samples:
                    rows.append(
                        BatchSizeRow(
                            dataset=name,
                            impl=impl_kind,
                            batch_size=batch_size,
                            stats=LatencyStats.from_samples(samples),
                        )
                    )
    return rows


# ----------------------------------------------------------------------
# Fig 5 — batch update time
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateTimeRow:
    dataset: str
    impl: str
    phase: str
    mean: float  # seconds
    max: float


def fig5(config: ExperimentConfig = QUICK) -> list[UpdateTimeRow]:
    """Average and maximum batch update time per impl × dataset × phase.

    Measured with reader threads running, as in the paper (SyncReads' update
    time includes the synchronous reads it must serve at batch boundaries).
    """
    rows: list[UpdateTimeRow] = []
    for name in config.datasets:
        durations: dict[tuple[str, str], list[float]] = {}
        for trial in range(config.trials):
            stream = make_stream(name, config, trial)
            for impl_kind in IMPLS:
                impl = make_impl(impl_kind, stream.num_vertices, config)
                session = run_concurrent_session(
                    impl,
                    stream,
                    num_readers=config.num_readers,
                    reader_seed=config.seed + trial,
                )
                for phase in ("insert", "delete"):
                    durations.setdefault((impl_kind, phase), []).extend(
                        session.durations_for(phase)
                    )
        for (impl_kind, phase), vals in durations.items():
            if vals:
                rows.append(
                    UpdateTimeRow(
                        dataset=name,
                        impl=impl_kind,
                        phase=phase,
                        mean=sum(vals) / len(vals),
                        max=max(vals),
                    )
                )
    return rows


# ----------------------------------------------------------------------
# Fig 6 — read error vs exact coreness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorRow:
    dataset: str
    impl: str
    phase: str
    mean_error: float
    max_error: float
    theoretical_bound: float


def fig6(
    config: ExperimentConfig = QUICK,
    *,
    batch_size: int | None = None,
) -> list[ErrorRow]:
    """Average and maximum approximation error of concurrent reads.

    Deterministic variant of the paper's measurement: reads are injected at
    every parallel round boundary inside each batch (the states a concurrent
    reader can observe), and each read's error is the minimum of its error
    against the exact coreness at the batch's begin and end boundaries —
    exactly the paper's scoring.  SyncReads executes its reads at batch end,
    so it is scored on post-batch reads.

    ``batch_size`` defaults to a third of the dataset — the paper's batches
    are a large fraction of each graph (10⁶ edges), which is the regime where
    NonSync's intermediate levels sit many groups away from both boundaries
    and its error explodes.
    """
    rows: list[ErrorRow] = []
    for name in config.datasets:
        n, all_edges = ds.DATASETS[name].build_edges()
        eff_batch = batch_size or max(config.batch_size, len(all_edges) // 3)
        stream = BatchStream.insert_then_delete(
            name,
            n,
            all_edges,
            eff_batch,
            delete_fraction=config.delete_fraction,
            shuffle_seed=config.seed,
        )
        kinds = stream.kinds()
        bound = LDSParams(
            n, levels_per_group=config.levels_per_group
        ).theoretical_approximation_factor()

        oracle = BoundaryOracle(n)
        for batch in stream:
            oracle.push_batch(batch.kind, batch.edges)

        rng = np.random.default_rng(config.seed)
        sample_vertices = rng.integers(
            0, n, size=config.error_sample_size
        ).tolist()

        for impl_kind in IMPLS:
            impl = make_impl(impl_kind, n, config)
            stats = {"insert": ErrorStats(), "delete": ErrorStats()}
            reads: list[tuple[int, int, float]] = []  # (vertex, batch, est)

            if impl_kind == "syncreads":
                for i, batch in enumerate(stream):
                    if batch.kind == "insert":
                        impl.insert_batch(batch.edges)
                    else:
                        impl.delete_batch(batch.edges)
                    for v in sample_vertices:
                        reads.append((v, i + 1, impl.read(v)))
            else:
                def on_point(_tag):
                    b = impl.batch_number
                    for v in sample_vertices:
                        reads.append((v, b, impl.read_verbose(v).estimate))

                attach_probe(impl, InjectionProbe(on_point))
                for batch in stream:
                    if batch.kind == "insert":
                        impl.insert_batch(batch.edges)
                    else:
                        impl.delete_batch(batch.edges)

            for v, b, est in reads:
                idx = b - 1
                phase = kinds[idx] if 0 <= idx < len(kinds) else "insert"
                stats[phase].add(read_error(oracle, b, v, est))

            for phase in ("insert", "delete"):
                if stats[phase].count:
                    rows.append(
                        ErrorRow(
                            dataset=name,
                            impl=impl_kind,
                            phase=phase,
                            mean_error=stats[phase].mean,
                            max_error=stats[phase].worst,
                            theoretical_bound=bound,
                        )
                    )
    return rows


@dataclass(frozen=True)
class FlashErrorRow:
    clique_size: int
    impl: str
    max_error: float
    mean_error: float
    theoretical_bound: float


def fig6_flash(
    clique_sizes: Sequence[int] = (40, 80, 120),
    *,
    levels_per_group: int | None = 20,
    sample_stride: int = 4,
    backend: str = "object",
) -> list[FlashErrorRow]:
    """§6.3's unbounded-error argument, measured directly.

    A "flash crowd": one batch inserts an entire ``c``-clique, moving its
    members from coreness ~1 to ``c−1`` — the vertex-jumps-``i``-groups
    scenario of §6.3.  NonSync's mid-batch reads land up to ``(1+δ)^{i/2}``
    away from both boundaries, so its max error *grows with the clique size*
    (unbounded in n); the CPLDS, reading only boundary levels, stays within
    the 2.8 bound at every size.
    """
    rows: list[FlashErrorRow] = []
    for csize in clique_sizes:
        n = csize + 200
        params = LDSParams(n, levels_per_group=levels_per_group)
        background = [(i, i + 1) for i in range(n - 1)]
        clique = [(u, v) for u in range(csize) for v in range(u + 1, csize)]
        oracle = BoundaryOracle(n)
        oracle.push_batch("insert", background)
        oracle.push_batch("insert", clique)
        for impl_kind in ("cplds", "nonsync"):
            impl = engines.create(impl_kind, n, params=params, backend=backend)
            stats = ErrorStats()

            def on_point(_tag, impl=impl, stats=stats):
                b = impl.batch_number
                for v in range(0, csize, sample_stride):
                    est = impl.read_verbose(v).estimate
                    stats.add(read_error(oracle, b, v, est))

            attach_probe(impl, InjectionProbe(on_point))
            impl.insert_batch(background)
            impl.insert_batch(clique)
            rows.append(
                FlashErrorRow(
                    clique_size=csize,
                    impl=impl_kind,
                    max_error=stats.worst,
                    mean_error=stats.mean,
                    theoretical_bound=params.theoretical_approximation_factor(),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Fig 7 — throughput scalability (virtual-time machine)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ThroughputRow:
    dataset: str
    impl: str
    direction: str  # "readers" | "writers"
    count: int
    read_throughput: float
    write_throughput: float


def fig7(
    config: ExperimentConfig = QUICK,
    cost: CostModel | None = None,
) -> list[ThroughputRow]:
    """Read/write throughput as reader / writer counts scale (Fig 7).

    Runs on the virtual-time machine (see DESIGN.md): reader sweeps fix 15
    update cores; writer sweeps fix 15 readers, as in the paper.
    """
    rows: list[ThroughputRow] = []
    for name in config.datasets:
        n, _ = ds.DATASETS[name].build_edges()

        def stream_factory() -> BatchStream:
            return make_stream(name, config, trial=0)

        for impl_kind in IMPLS:
            def impl_factory():
                return make_impl(impl_kind, n, config)

            by_readers = sweep_reader_scalability(
                impl_factory, impl_kind, stream_factory,
                config.thread_counts, num_update_cores=15, cost=cost,
            )
            for r, res in by_readers.items():
                rows.append(
                    ThroughputRow(
                        dataset=name, impl=impl_kind, direction="readers",
                        count=r,
                        read_throughput=res.read_throughput(),
                        write_throughput=res.write_throughput(),
                    )
                )
            by_writers = sweep_writer_scalability(
                impl_factory, impl_kind, stream_factory,
                config.thread_counts, num_readers=15, cost=cost,
            )
            for w, res in by_writers.items():
                rows.append(
                    ThroughputRow(
                        dataset=name, impl=impl_kind, direction="writers",
                        count=w,
                        read_throughput=res.read_throughput(),
                        write_throughput=res.write_throughput(),
                    )
                )
    return rows


# ----------------------------------------------------------------------
# Epoch-snapshot bulk-read throughput (the read tier's headline)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EpochReadRow:
    """One epoch-read throughput measurement at a given update load."""

    dataset: str
    #: How many times the seeded stream was applied during the run.
    update_factor: int
    epochs_published: int
    vertices_read: int
    elapsed_s: float

    @property
    def read_throughput(self) -> float:
        """Vertices bulk-read per second across all reader threads."""
        return self.vertices_read / self.elapsed_s if self.elapsed_s else 0.0


def fig_epoch_reads(
    config: ExperimentConfig = QUICK,
    update_factors: Sequence[int] = (1, 2),
    base_repeats: int = 4,
) -> list[EpochReadRow]:
    """Bulk-read throughput through the epoch-snapshot read tier under
    live update churn (real threads, wall-clock).

    For each ``update_factor`` the seeded stream is applied
    ``base_repeats * update_factor`` times on the update thread while
    ``config.num_readers`` reader threads continuously pin the newest
    epoch and bulk-read every vertex's coreness
    (:meth:`~repro.reads.EpochPin.coreness_many`).  Because pinned reads
    never touch the live structure, doubling the update load should
    leave read throughput essentially unchanged — the ratio between
    factors is the headline the bench JSON reports.

    Measurement hygiene: the stream's batches are materialized *before*
    the clock starts (stream construction is itself GIL-friendly numpy
    work that would inflate reader throughput), and each factor's run
    applies one untimed warmup pass so allocator and cache effects land
    outside the window.  Runs on the first configured dataset only.
    Wall-clock only: the stream applications do perturb the
    deterministic work counters, so callers capturing those must do so
    *before* this driver (as :func:`repro.harness.bench_json.collect`
    does).
    """
    from repro.reads import EpochSnapshotStore

    rows: list[EpochReadRow] = []
    name = config.datasets[0]
    n, _ = ds.DATASETS[name].build_edges()
    params = LDSParams(n, levels_per_group=config.levels_per_group)
    num_readers = max(1, config.num_readers)
    batches = [
        (batch.kind, batch.edges)
        for batch in make_stream(name, config, trial=0)
    ]

    def apply_stream(impl) -> None:
        for kind, edges in batches:
            if kind == "insert":
                impl.insert_batch(edges)
            else:
                impl.delete_batch(edges)

    for factor in update_factors:
        store = EpochSnapshotStore(window=8)
        impl = engines.create(
            "cplds", n, params=params, backend=config.backend,
            epoch_store=store,
        )
        apply_stream(impl)  # untimed warmup pass (ends on an empty graph)
        stop = threading.Event()
        counts = [0] * num_readers

        def reader(idx: int) -> None:
            while not stop.is_set():
                with store.pin() as pin:
                    pin.coreness_many()
                counts[idx] += n

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(num_readers)
        ]
        for t in threads:
            t.start()
        start = time.perf_counter()
        for _ in range(base_repeats * factor):
            apply_stream(impl)
        stop.set()
        elapsed = time.perf_counter() - start
        for t in threads:
            t.join(timeout=30)
        rows.append(
            EpochReadRow(
                dataset=name,
                update_factor=factor,
                epochs_published=store.published_total,
                vertices_read=sum(counts),
                elapsed_s=elapsed,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Headline factors (the abstract's numbers)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HeadlineFactors:
    """The abstract's comparison factors, recomputed from Fig 3/5/6 rows."""

    #: max over datasets/phases of SyncReads mean latency / CPLDS mean latency.
    latency_speedup_vs_syncreads: float
    #: max of CPLDS mean latency / NonSync mean latency (paper: <= 3.21).
    latency_overhead_vs_nonsync: float
    #: max of CPLDS mean update time / NonSync mean update time (paper: <= 1.48).
    update_overhead_vs_nonsync: float
    #: max of NonSync max error / CPLDS max error (paper: up to 52.7).
    accuracy_gain_vs_nonsync: float


def headline_factors(
    fig3_rows: list[LatencyRow],
    fig5_rows: list[UpdateTimeRow],
    fig6_rows: list[ErrorRow],
) -> HeadlineFactors:
    """Recompute the abstract's comparison factors from figure rows."""
    def mean_lat(impl, dataset, phase):
        for r in fig3_rows:
            if (r.impl, r.dataset, r.phase) == (impl, dataset, phase):
                return r.stats.mean
        return None

    lat_speedup, lat_overhead = 0.0, 0.0
    for r in fig3_rows:
        if r.impl != "cplds":
            continue
        sync = mean_lat("syncreads", r.dataset, r.phase)
        nosync = mean_lat("nonsync", r.dataset, r.phase)
        if sync and r.stats.mean > 0:
            lat_speedup = max(lat_speedup, sync / r.stats.mean)
        if nosync and nosync > 0:
            lat_overhead = max(lat_overhead, r.stats.mean / nosync)

    upd_overhead = 0.0
    by_key = {(r.impl, r.dataset, r.phase): r for r in fig5_rows}
    for (impl, dataset, phase), r in by_key.items():
        if impl != "cplds":
            continue
        base = by_key.get(("nonsync", dataset, phase))
        if base and base.mean > 0:
            upd_overhead = max(upd_overhead, r.mean / base.mean)

    acc_gain = 0.0
    err_by_key = {(r.impl, r.dataset, r.phase): r for r in fig6_rows}
    for (impl, dataset, phase), r in err_by_key.items():
        if impl != "nonsync":
            continue
        cp = err_by_key.get(("cplds", dataset, phase))
        if cp and cp.max_error > 0:
            acc_gain = max(acc_gain, r.max_error / cp.max_error)

    return HeadlineFactors(
        latency_speedup_vs_syncreads=lat_speedup,
        latency_overhead_vs_nonsync=lat_overhead,
        update_overhead_vs_nonsync=upd_overhead,
        accuracy_gain_vs_nonsync=acc_gain,
    )
