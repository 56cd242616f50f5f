"""Tests for the real-thread concurrent session harness."""

import pytest

from repro.core import CPLDS, NonSyncKCore, SyncReadsKCore
from repro.graph import generators as gen
from repro.runtime.threads import run_concurrent_session, run_quiescent_updates
from repro.workloads import BatchStream


def small_stream(n=60, m=240, batch=60, seed=1):
    edges = gen.erdos_renyi(n, m, seed=seed)
    return BatchStream.insert_then_delete("small", n, edges, batch)


class TestQuiescent:
    def test_durations_recorded(self):
        stream = small_stream()
        res = run_quiescent_updates(CPLDS(60), stream)
        assert len(res.batch_durations) == len(stream)
        assert res.batch_kinds == stream.kinds()
        assert all(d > 0 for d in res.batch_durations)
        assert res.reads == []

    def test_durations_for_filters_by_kind(self):
        res = run_quiescent_updates(CPLDS(60), small_stream())
        ins = res.durations_for("insert")
        dels = res.durations_for("delete")
        assert len(ins) + len(dels) == len(res.batch_durations)


class TestConcurrentSession:
    @pytest.mark.parametrize(
        "factory", [CPLDS, NonSyncKCore, SyncReadsKCore]
    )
    def test_session_completes_with_readers(self, factory):
        stream = small_stream()
        impl = factory(60)
        res = run_concurrent_session(impl, stream, num_readers=2)
        assert len(res.batch_durations) == len(stream)
        assert res.reads, "readers produced no samples"
        impl.check_invariants()

    def test_in_flight_reads_present(self):
        stream = small_stream(n=150, m=900, batch=300)
        res = run_concurrent_session(CPLDS(150), stream, num_readers=2)
        assert res.read_latencies(in_flight_only=True)

    @pytest.mark.parametrize("factory", [CPLDS, SyncReadsKCore])
    def test_every_reader_samples_every_batch_in_flight(self, factory):
        """One-edge batches finish far inside a thread switch interval; the
        session still waits for each reader to begin an in-flight read
        before starting a batch, so no batch goes unsampled."""
        edges = gen.erdos_renyi(40, 60, seed=3)
        stream = BatchStream.insert_only("tiny", 40, edges, 1)
        res = run_concurrent_session(factory(40), stream, num_readers=2)
        assert len(res.read_latencies()) >= 2 * len(stream)

    def test_all_latencies_positive(self):
        res = run_concurrent_session(CPLDS(60), small_stream(), num_readers=1)
        assert all(s.latency > 0 for s in res.reads)

    def test_estimates_are_valid_coreness_values(self):
        """Every concurrent read returns a level-grid estimate (power of
        1+δ), i.e. never garbage from a torn read."""
        import math

        stream = small_stream(n=100, m=500, batch=125)
        impl = CPLDS(100)
        res = run_concurrent_session(impl, stream, num_readers=2)
        base = 1.0 + impl.params.delta
        for s in res.reads:
            k = math.log(s.estimate, base)
            assert abs(k - round(k)) < 1e-6

    def test_reader_count_zero_is_quiescent(self):
        res = run_concurrent_session(CPLDS(60), small_stream(), num_readers=0)
        assert res.reads == []
        assert len(res.batch_durations) > 0

    def test_syncreads_latency_dominates_cplds(self):
        """The headline effect at test scale: SyncReads in-flight reads wait
        for the batch; CPLDS reads return in microseconds."""
        stream = small_stream(n=200, m=1600, batch=800, seed=2)
        cp = run_concurrent_session(CPLDS(200), stream, num_readers=2)
        sr = run_concurrent_session(SyncReadsKCore(200), stream, num_readers=2)
        cp_lat = cp.read_latencies()
        sr_lat = sr.read_latencies()
        assert cp_lat and sr_lat
        cp_mean = sum(cp_lat) / len(cp_lat)
        sr_mean = sum(sr_lat) / len(sr_lat)
        assert sr_mean > 10 * cp_mean

    def test_total_write_time_sums(self):
        res = run_quiescent_updates(NonSyncKCore(60), small_stream())
        assert res.total_write_time == pytest.approx(sum(res.batch_durations))
