"""Real-thread linearizability stress: CPLDS under genuine preemption.

The injection and stepping tests interleave deterministically; this file
closes the loop with *actual* CPython threads — reader threads recording a
shared history through :class:`RecordedKCore` while the update thread applies
batches — and feeds the full history to the checker.  Nondeterministic, but
every run must be violation-free (rules A–C for sandwiched reads, rule E
for bulk reads through the epoch-snapshot read tier; all sound: any report
is a real bug).
"""

import random
import threading

import pytest

from repro import engines
from repro.core import CPLDS, NonSyncKCore
from repro.graph import generators as gen
from repro.lds.store import BACKENDS
from repro.reads import EpochSnapshotStore
from repro.verify import LinearizabilityChecker, RecordedKCore
from repro.workloads import BatchStream, UniformReadGenerator


def run_threaded_history(
    impl, stream, num_readers=3, reads_cap=4000, seed=0, epoch_store=None
):
    """Drive ``stream`` on the update thread against concurrent readers.

    With an ``epoch_store``, each reader mixes scalar sandwiched reads
    with bulk epoch reads (every ~16th operation pins the newest epoch
    and bulk-reads a random block of vertices).
    """
    rec = RecordedKCore(impl)
    stop = threading.Event()
    errors = []

    def reader(idx):
        gen_ = UniformReadGenerator(
            stream.num_vertices, seed=seed + 101 * idx
        )
        rng = random.Random(seed + 709 * idx)
        n = stream.num_vertices
        count = 0
        try:
            while not stop.is_set() and count < reads_cap:
                if epoch_store is not None and count % 16 == 15:
                    lo = rng.randrange(n)
                    hi = rng.randrange(lo + 1, n + 1)
                    rec.read_epoch(epoch_store, range(lo, hi))
                else:
                    rec.read(gen_.next())
                count += 1
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(i,), daemon=True)
        for i in range(num_readers)
    ]
    for t in threads:
        t.start()
    for batch in stream:
        if batch.kind == "insert":
            rec.insert_batch(batch.edges)
        else:
            rec.delete_batch(batch.edges)
    stop.set()
    for t in threads:
        t.join(timeout=30)
    assert not errors, errors
    return rec.history


def make_stream(seed, n=120, m=700, batch=175):
    edges = gen.chung_lu(n, m, seed=seed)
    return BatchStream.insert_then_delete("thr", n, edges, batch)


class TestThreadedCPLDS:
    @pytest.mark.parametrize("seed", range(3))
    def test_cplds_histories_are_linearizable(self, seed):
        stream = make_stream(seed)
        history = run_threaded_history(CPLDS(stream.num_vertices), stream)
        assert history.reads, "no concurrent reads recorded"
        violations = LinearizabilityChecker(history).violations()
        assert violations == [], violations[:3]

    def test_dense_cascades_under_threads(self):
        n = 60
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        stream = BatchStream.insert_then_delete("clique", n, edges, 400)
        history = run_threaded_history(
            CPLDS(n), stream, num_readers=4, reads_cap=8000
        )
        assert LinearizabilityChecker(history).violations() == []

    def test_reads_spanning_batches_retry_and_stay_clean(self):
        """Long session: descriptor reuse across many batches never leaks a
        stale old_level into a later batch's reads."""
        n = 80
        edges = gen.erdos_renyi(n, 500, seed=9)
        stream = BatchStream.insert_then_delete("long", n, edges, 60)
        history = run_threaded_history(
            CPLDS(n), stream, num_readers=2, reads_cap=6000
        )
        assert LinearizabilityChecker(history).violations() == []


class TestThreadedEpochReads:
    """Rule E under real threads: bulk epoch reads racing live batches."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_epoch_reads_linearizable_at_epoch(self, backend):
        stream = make_stream(11, n=100, m=600, batch=120)
        store = EpochSnapshotStore(window=16)
        impl = engines.create(
            "cplds", stream.num_vertices, backend=backend, epoch_store=store
        )
        history = run_threaded_history(
            impl, stream, num_readers=3, reads_cap=2000, epoch_store=store
        )
        assert history.epoch_reads, "no bulk epoch reads recorded"
        assert history.reads, "no scalar reads recorded"
        checker = LinearizabilityChecker(history)
        violations = checker.violations()
        assert violations == [], violations[:3]
        # The retention window bounds how far behind a fresh pin can be.
        stale = checker.epoch_staleness_violations(store.window)
        assert stale == [], stale[:3]

    def test_force_advanced_pins_still_read_whole_epochs(self):
        """A tight staleness budget advances pins mid-stream; every bulk
        read must still be exactly one epoch's state (rule E)."""
        stream = make_stream(13, n=80, m=500, batch=60)
        store = EpochSnapshotStore(window=4, max_staleness=1)
        impl = engines.create(
            "cplds", stream.num_vertices, backend="columnar-frontier",
            epoch_store=store,
        )
        history = run_threaded_history(
            impl, stream, num_readers=2, reads_cap=1500, epoch_store=store
        )
        assert history.epoch_reads
        violations = LinearizabilityChecker(history).violations()
        assert violations == [], violations[:3]


class TestThreadedNonSyncContrast:
    def test_nonsync_can_violate_under_threads(self):
        """Under real threads, NonSync *may* get caught returning
        intermediate levels.  Since preemption timing is nondeterministic we
        assert only the sound direction: any violations found are rule A
        (intermediate values), never attributed to the checker's other
        rules spuriously."""
        stream = make_stream(5, n=80, m=800, batch=800)
        history = run_threaded_history(
            NonSyncKCore(stream.num_vertices), stream, num_readers=4
        )
        violations = LinearizabilityChecker(history).violations()
        for v in violations:
            assert v.rule in ("A", "B", "C")
