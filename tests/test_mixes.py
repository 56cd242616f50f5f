"""Tests for mixed-batch pre-processing and the churn stream generator."""

import pytest

from repro.core import CPLDS
from repro.errors import WorkloadError
from repro.graph import generators as gen
from repro.workloads.mixes import (
    BulkReadOp,
    MixedBatch,
    MixedStreamGenerator,
    ReadHeavyMixGenerator,
    preprocess_mixed_batch,
)
from repro.workloads.runner import run_read_heavy


class TestPreprocess:
    def test_plain_split(self):
        b = preprocess_mixed_batch([("+", (0, 1)), ("-", (2, 3)), ("+", (4, 5))])
        assert b.insertions == ((0, 1), (4, 5))
        assert b.deletions == ((2, 3),)
        assert len(b) == 3

    def test_later_op_supersedes(self):
        b = preprocess_mixed_batch([("+", (0, 1)), ("-", (1, 0))])
        assert b.insertions == ()
        assert b.deletions == ((0, 1),)

    def test_delete_then_insert_collapses_to_insert(self):
        b = preprocess_mixed_batch([("-", (0, 1)), ("+", (0, 1))])
        assert b.insertions == ((0, 1),)
        assert b.deletions == ()

    def test_canonicalisation(self):
        b = preprocess_mixed_batch([("+", (5, 2))])
        assert b.insertions == ((2, 5),)

    def test_unknown_op_rejected(self):
        with pytest.raises(WorkloadError):
            preprocess_mixed_batch([("*", (0, 1))])

    def test_empty(self):
        b = preprocess_mixed_batch([])
        assert len(b) == 0


class TestMixedStream:
    def test_window_shape(self):
        edges = [(i, i + 1) for i in range(40)]
        stream = list(MixedStreamGenerator(edges, batch_size=10, window=2, seed=1))
        # 4 arrival batches + 2 drain batches.
        assert len(stream) == 6
        assert all(isinstance(b, MixedBatch) for b in stream)
        # First `window` batches have no departures.
        assert stream[0].deletions == ()
        assert stream[1].deletions == ()
        assert stream[2].deletions != ()
        # Drain batches have no arrivals.
        assert stream[-1].insertions == ()

    def test_conservation(self):
        """Every edge that arrives eventually departs."""
        edges = [(i, i + 1) for i in range(35)]
        stream = list(MixedStreamGenerator(edges, batch_size=8, window=3, seed=2))
        arrived = [e for b in stream for e in b.insertions]
        departed = [e for b in stream for e in b.deletions]
        assert sorted(arrived) == sorted(departed)

    def test_apply_all_returns_graph_to_empty(self):
        n = 50
        edges = gen.erdos_renyi(n, 200, seed=3)
        cp = CPLDS(n)
        gen_stream = MixedStreamGenerator(edges, batch_size=40, window=2, seed=3)
        ins, dels = gen_stream.apply_all(cp)
        assert ins == dels == len(edges)
        assert cp.graph.num_edges == 0
        cp.check_invariants()

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            MixedStreamGenerator([], batch_size=0)
        with pytest.raises(WorkloadError):
            MixedStreamGenerator([], batch_size=1, window=0)

    def test_deterministic(self):
        edges = [(i, i + 1) for i in range(30)]
        a = list(MixedStreamGenerator(edges, 7, window=2, seed=5))
        b = list(MixedStreamGenerator(edges, 7, window=2, seed=5))
        assert a == b


class TestReadHeavyMix:
    def _mix(self, **kw):
        edges = gen.erdos_renyi(30, 120, seed=4)
        defaults = dict(
            reads_per_batch=5, read_block=8, window=2, seed=4
        )
        defaults.update(kw)
        return ReadHeavyMixGenerator(edges, 30, batch_size=25, **defaults)

    def test_schedule_shape(self):
        items = list(self._mix())
        updates = [b for kind, b in items if kind == "update"]
        reads = [op for kind, op in items if kind == "read"]
        assert updates and reads
        assert len(reads) == 5 * len(updates)
        assert all(isinstance(op, BulkReadOp) for op in reads)
        # Blocks are contiguous, in range, and of the configured size.
        for op in reads:
            assert len(op) == 8
            assert list(op.vertices) == list(
                range(op.vertices[0], op.vertices[0] + 8)
            )
            assert 0 <= op.vertices[0] and op.vertices[-1] < 30

    def test_deterministic_in_seed(self):
        assert list(self._mix()) == list(self._mix())
        assert list(self._mix(seed=9)) != list(self._mix(seed=4))

    def test_read_block_clamped_to_universe(self):
        mix = self._mix(read_block=500)
        reads = [op for kind, op in mix if kind == "read"]
        assert all(len(op) == 30 for op in reads)

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            ReadHeavyMixGenerator([], 0, batch_size=1)
        with pytest.raises(WorkloadError):
            ReadHeavyMixGenerator([], 10, batch_size=1, reads_per_batch=-1)
        with pytest.raises(WorkloadError):
            ReadHeavyMixGenerator([], 10, batch_size=1, read_block=0)

    def test_run_read_heavy_drives_epoch_tier(self):
        result = run_read_heavy(self._mix(), backend="columnar-frontier")
        assert result.insertions == result.deletions == 120
        assert result.bulk_reads == result.vertices_read // 8 > 0
        # Reads ride the epoch tier: every pin served a published epoch,
        # monotonically non-decreasing along the schedule.
        assert result.store.published_total > 0
        assert list(result.epochs_read) == sorted(result.epochs_read)
        assert result.engine.graph.num_edges == 0

    def test_run_read_heavy_rejects_engines_without_epoch_seam(self):
        with pytest.raises(TypeError):
            run_read_heavy(self._mix(), engine="nonsync")
