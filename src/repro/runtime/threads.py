"""Real-thread concurrent sessions: one update thread + N reader threads.

This is the wall-clock measurement substrate behind the Fig 3–6
reproductions.  The process model matches §2 of the paper as instantiated in
this reproduction (single-writer, multi-reader; see DESIGN.md): the calling
thread plays the update processes and applies the batch stream back-to-back,
while ``num_readers`` daemon threads continuously read uniform-random
vertices, exactly as the paper's read threads do ("each read thread
continuously generates reads of vertices chosen uniformly at random for the
duration of the batch").

Reads are tagged with whether a batch was in flight at their invocation;
latency statistics use only in-flight reads, since reads landing in the
quiescent gaps between batches would dilute precisely the latency difference
the experiment measures.

The CPython thread switch interval is temporarily lowered so reader threads
interleave with the update thread at a granularity far below a batch
duration.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.workloads.batches import Batch, BatchStream
from repro.workloads.reads import UniformReadGenerator


@dataclass(frozen=True)
class ReadSample:
    """One measured read."""

    vertex: int
    batch: int  # implementation's claimed batch number
    estimate: float
    latency: float  # seconds
    in_flight: bool  # was an update batch running at invocation?


@dataclass
class SessionResult:
    """Everything one concurrent session measured."""

    name: str
    reads: list[ReadSample] = field(default_factory=list)
    batch_durations: list[float] = field(default_factory=list)  # seconds
    batch_kinds: list[str] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)

    @property
    def total_write_time(self) -> float:
        return sum(self.batch_durations)

    def read_latencies(self, *, in_flight_only: bool = True) -> list[float]:
        return [
            r.latency
            for r in self.reads
            if r.in_flight or not in_flight_only
        ]

    def durations_for(self, kind: str) -> list[float]:
        return [
            d for d, k in zip(self.batch_durations, self.batch_kinds) if k == kind
        ]


class _Reader(threading.Thread):
    """One read process: reads until stopped, recording samples locally.

    When the sample budget fills, reservoir sampling keeps an unbiased
    subset of the whole session instead of truncating to the first batches
    (which would starve late-phase — e.g. deletion — statistics).
    """

    def __init__(
        self,
        impl,
        gen: UniformReadGenerator,
        stop: threading.Event,
        in_flight_flag,
        max_samples: int,
        sample_seed: int = 0,
    ) -> None:
        super().__init__(daemon=True, name="repro-reader")
        self.impl = impl
        self.gen = gen
        self.stop_event = stop
        self.in_flight_flag = in_flight_flag
        self.max_samples = max_samples
        self.samples: list[ReadSample] = []
        self.total_reads = 0
        #: Reads begun with the in-flight flag raised (see
        #: :func:`run_concurrent_session`, which waits on it).
        self.in_flight_taken = 0
        self.error: BaseException | None = None
        self._reservoir_rng = random.Random(sample_seed)

    def run(self) -> None:  # pragma: no cover - exercised via sessions
        impl = self.impl
        gen = self.gen
        samples = self.samples
        perf = time.perf_counter
        try:
            while not self.stop_event.is_set():
                v = gen.next()
                in_flight = self.in_flight_flag[0]
                if in_flight:
                    self.in_flight_taken += 1
                t0 = perf()
                result = impl.read_verbose(v)
                t1 = perf()
                self.total_reads += 1
                sample = ReadSample(
                    vertex=v,
                    batch=result.batch,
                    estimate=result.estimate,
                    latency=t1 - t0,
                    # A read that had to wait or retry was, by definition,
                    # concurrent with an update — count it as in-flight even
                    # if the flag snapshot missed the batch start (SyncReads
                    # waiters).
                    in_flight=in_flight or result.retries > 0,
                )
                if len(samples) < self.max_samples:
                    samples.append(sample)
                else:
                    j = self._reservoir_rng.randrange(self.total_reads)
                    if j < self.max_samples:
                        samples[j] = sample
        except BaseException as exc:  # surface reader crashes to the session
            self.error = exc


class _QueueingReader(threading.Thread):
    """The paper's SyncReads read thread.

    "Each read thread in SyncReads maintains an array of reads in the order
    that they are generated during each update batch and performs the reads,
    in order, at the end of the batch."  While a batch is in flight this
    thread *generates* timestamped reads into a local queue (bounded, to
    keep memory flat); once the batch ends it executes them in order, each
    read's latency running from its generation time to its execution.
    """

    #: Bound on queued reads per batch; generation beyond it is paced out.
    MAX_QUEUE = 2000

    def __init__(
        self,
        impl,
        gen: UniformReadGenerator,
        stop: threading.Event,
        in_flight_flag,
        max_samples: int,
        sample_seed: int = 0,
    ) -> None:
        super().__init__(daemon=True, name="repro-syncreader")
        self.impl = impl
        self.gen = gen
        self.stop_event = stop
        self.in_flight_flag = in_flight_flag
        self.max_samples = max_samples
        self.samples: list[ReadSample] = []
        self.total_reads = 0
        self.in_flight_taken = 0
        self.error: BaseException | None = None
        self.queue_len = 0
        self._reservoir_rng = random.Random(sample_seed)

    def _record(self, sample: ReadSample) -> None:
        self.total_reads += 1
        if len(self.samples) < self.max_samples:
            self.samples.append(sample)
        else:
            j = self._reservoir_rng.randrange(self.total_reads)
            if j < self.max_samples:
                self.samples[j] = sample

    def run(self) -> None:  # pragma: no cover - exercised via sessions
        impl = self.impl
        gen = self.gen
        perf = time.perf_counter
        queue: list[tuple[int, float]] = []
        try:
            while not self.stop_event.is_set():
                if self.in_flight_flag[0]:
                    if len(queue) < self.MAX_QUEUE:
                        queue.append((gen.next(), perf()))
                        self.queue_len = len(queue)
                        self.in_flight_taken += 1
                    else:
                        time.sleep(1e-4)  # paced out; queue is full
                    continue
                if queue:
                    # Batch over: execute the queued reads in order.
                    for v, t_gen in queue:
                        result = impl.read_verbose(v)
                        self._record(
                            ReadSample(
                                vertex=v,
                                batch=result.batch,
                                estimate=result.estimate,
                                latency=perf() - t_gen,
                                in_flight=True,
                            )
                        )
                    queue.clear()
                    self.queue_len = 0
                    continue
                # Quiescent read between batches.
                v = gen.next()
                t0 = perf()
                result = impl.read_verbose(v)
                self._record(
                    ReadSample(
                        vertex=v,
                        batch=result.batch,
                        estimate=result.estimate,
                        latency=perf() - t0,
                        in_flight=False,
                    )
                )
        except BaseException as exc:
            self.error = exc


def run_concurrent_session(
    impl,
    stream: BatchStream | Sequence[Batch],
    *,
    num_readers: int = 2,
    reader_seed: int = 0,
    max_samples_per_reader: int = 100_000,
    switch_interval: float = 5e-4,
    inter_batch_gap: float = 0.002,
    name: str | None = None,
) -> SessionResult:
    """Apply ``stream`` on the calling thread with reader threads running.

    ``inter_batch_gap`` pauses the update thread between batches so reader
    threads get scheduled around batch boundaries, mirroring the paper's
    per-batch experiment structure; gap-time reads are recorded but not
    counted as in-flight.  After raising the in-flight flag, the update
    thread waits (at most 1 s) until every reader has begun an in-flight
    read, then starts the batch and its clock, so every batch contributes
    in-flight samples however briefly it runs.  For implementations
    exposing ``drain()`` (SyncReads), the drain of reads queued during the
    batch is counted into the batch's measured duration, as the paper's
    accounting prescribes.

    Reader exceptions are re-raised after the session (a reader crash is a
    test failure, not a statistic).
    """
    batches = list(stream)
    n = stream.num_vertices if isinstance(stream, BatchStream) else impl.graph.num_vertices
    result = SessionResult(
        name=name or (stream.name if isinstance(stream, BatchStream) else "session")
    )
    stop = threading.Event()
    in_flight_flag = [False]  # single-slot list: GIL-atomic element access
    # SyncReads-style implementations (those exposing drain()) get the
    # paper's queueing read threads; everything else reads directly.
    drain = getattr(impl, "drain", None)
    reader_cls = _QueueingReader if drain is not None else _Reader
    readers = [
        reader_cls(
            impl,
            UniformReadGenerator(n, seed=reader_seed + 1000 * i),
            stop,
            in_flight_flag,
            max_samples_per_reader,
            sample_seed=reader_seed + 7777 * i,
        )
        for i in range(num_readers)
    ]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        for r in readers:
            r.start()
        perf = time.perf_counter
        for batch in batches:
            taken = [r.in_flight_taken for r in readers]
            in_flight_flag[0] = True
            # The bound keeps a stalled reader from holding the session.
            deadline = perf() + 1.0
            while perf() < deadline and any(
                r.in_flight_taken == t and r.error is None and r.is_alive()
                for r, t in zip(readers, taken)
            ):
                time.sleep(1e-4)
            t0 = perf()
            if batch.kind == "insert":
                impl.insert_batch(batch.edges)
            else:
                impl.delete_batch(batch.edges)
            # Reads arriving from here on are post-batch: stop classifying
            # them as in-flight *before* draining the queued SyncReads
            # readers (whose own reads were classified at invocation).
            in_flight_flag[0] = False
            if drain is not None:
                drain()
                # Wait for the queueing readers to execute their backlog —
                # the paper counts this into the batch update time
                # ("updates are blocked ... until all synchronous reads
                # finish").
                deadline = perf() + 30.0
                while any(getattr(r, "queue_len", 0) for r in readers):
                    if perf() > deadline:  # pragma: no cover - safety net
                        raise TimeoutError("SyncReads queue drain timed out")
                    time.sleep(1e-4)
            t1 = perf()
            result.batch_durations.append(t1 - t0)
            result.batch_kinds.append(batch.kind)
            result.batch_sizes.append(len(batch))
            if inter_batch_gap > 0:
                time.sleep(inter_batch_gap)
    finally:
        stop.set()
        for r in readers:
            r.join(timeout=30.0)
        sys.setswitchinterval(old_interval)

    for r in readers:
        if r.error is not None:
            raise r.error
        result.reads.extend(r.samples)
    return result


def run_quiescent_updates(
    impl, stream: BatchStream | Sequence[Batch], *, name: str | None = None
) -> SessionResult:
    """Apply ``stream`` with no readers at all (pure update-time baseline)."""
    result = SessionResult(
        name=name or (stream.name if isinstance(stream, BatchStream) else "session")
    )
    perf = time.perf_counter
    for batch in stream:
        t0 = perf()
        if batch.kind == "insert":
            impl.insert_batch(batch.edges)
        else:
            impl.delete_batch(batch.edges)
        t1 = perf()
        result.batch_durations.append(t1 - t0)
        result.batch_kinds.append(batch.kind)
        result.batch_sizes.append(len(batch))
    return result
