"""Tests for the write-ahead batch journal (scan, commit filtering,
torn-tail tolerance, mid-stream corruption, reopen, compaction).

The round-trip and damage tests run on version-2 journals (what
``BatchJournal`` writes) and again, for scan and recovery, on version-1
files written by ``tests/journal_files.py``.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CPLDS
from repro.errors import JournalCorruptError, JournalEncodeError, PersistError
from repro.lds import LDSParams
from repro.persist import (
    _HEADER_BYTES,
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    BatchJournal,
    cplds_from_snapshot,
)
from repro.runtime.supervisor import JOURNAL_FILENAME, SupervisedCPLDS
from tests.journal_files import V1Journal, damage_record, flip, record_spans


class _RoundTrip:
    writer = BatchJournal

    def make(self, path, n=8, params=None):
        return self.writer.create(
            path, num_vertices=n, params=params or LDSParams(n)
        )

    def test_committed_batches_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with self.make(path) as j:
            s1 = j.append_batch([(0, 1), (1, 2)], [])
            j.commit(s1)
            s2 = j.append_batch([(2, 3)], [(0, 1)])
            j.commit(s2)
        contents = BatchJournal.scan(path)
        recs = contents.committed_batches()
        assert [r.seq for r in recs] == [s1, s2]
        assert recs[0].insertions == ((0, 1), (1, 2))
        assert recs[1].deletions == ((0, 1),)
        assert not contents.torn_tail

    def test_uncommitted_batch_not_replayable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with self.make(path) as j:
            s1 = j.append_batch([(0, 1)], [])
            j.commit(s1)
            j.append_batch([(1, 2)], [])  # write-ahead, never committed
        recs = BatchJournal.scan(path).committed_batches()
        assert [r.seq for r in recs] == [s1]

    def test_genesis_carries_params(self, tmp_path):
        path = tmp_path / "j.jsonl"
        params = LDSParams(9, delta=0.5, lam=1.0)
        self.make(path, n=9, params=params).close()
        genesis = BatchJournal.scan(path).genesis
        assert genesis["num_vertices"] == 9
        assert genesis["delta"] == 0.5

    def test_checkpoint_notes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with self.make(path) as j:
            s = j.append_batch([(0, 1)], [])
            j.commit(s)
            j.note_checkpoint(s, "checkpoint-00000001.npz")
        notes = BatchJournal.scan(path).checkpoint_notes()
        assert notes == [(s, "checkpoint-00000001.npz")]


class TestRoundTrip(_RoundTrip):
    def test_create_refuses_existing_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self.make(path).close()
        with pytest.raises(PersistError):
            self.make(path)

    def test_file_is_version_2(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with self.make(path) as j:
            j.commit(j.append_batch([(0, 1)], []))
        assert path.read_bytes().startswith(JOURNAL_MAGIC)
        assert BatchJournal.scan(path).genesis["journal_version"] == 2
        assert j.size == os.path.getsize(path)

    def test_negative_ids_are_recorded_as_submitted(self, tmp_path):
        """The engine rejects a negative id after the write-ahead record;
        the record still holds the submitted values."""
        path = tmp_path / "j.jsonl"
        with self.make(path) as j:
            j.append_batch([(-1, 3)], [(2, -70000)])
        (record,) = BatchJournal.scan(path).records
        assert record["ins"] == [(-1, 3)] and record["del"] == [(2, -70000)]

    @pytest.mark.parametrize(
        "bad", [(0, 2**64), (0, 2**63), (-(2**63) - 1, 1), (0, 1.5), (0, "3")]
    )
    def test_endpoint_no_word_holds_is_refused_unwritten(self, tmp_path, bad):
        path = tmp_path / "j.jsonl"
        with self.make(path) as j:
            size = j.size
            with pytest.raises(JournalEncodeError):
                j.append_batch([(1, 2), bad], [])
            assert j.size == size
            assert j.append_batch([(np.uint64(2**63 - 1), 1)], []) == 1
        (record,) = BatchJournal.scan(path).records
        assert record["ins"] == [(2**63 - 1, 1)]


class TestRoundTripV1(_RoundTrip):
    writer = V1Journal


class _Damage:
    writer = BatchJournal

    def _journal_with_batches(self, path, count=3):
        with self.writer.create(
            path, num_vertices=8, params=LDSParams(8)
        ) as j:
            for i in range(count):
                seq = j.append_batch([(i, i + 1)], [])
                j.commit(seq)
        return path

    def test_torn_tail_tolerated(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 5)  # tear the final record
        contents = BatchJournal.scan(path)
        assert contents.torn_tail
        # The final commit marker was torn off: batch 3 is uncommitted.
        assert [r.seq for r in contents.committed_batches()] == [1, 2]

    def test_mid_stream_corruption_raises(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        damage_record(path, 2)
        with pytest.raises(JournalCorruptError):
            BatchJournal.scan(path)

    def test_corrupt_genesis_raises(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        damage_record(path, 0)
        with pytest.raises(JournalCorruptError):
            BatchJournal.scan(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"")
        with pytest.raises(JournalCorruptError):
            BatchJournal.scan(path)

    def test_damaged_last_record_is_a_torn_tail(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        damage_record(path, 6)
        contents = BatchJournal.scan(path)
        assert contents.torn_tail
        assert [r.seq for r in contents.committed_batches()] == [1, 2]

    def test_torn_directory_recovers(self, tmp_path):
        d = tmp_path / "state"
        d.mkdir()
        path = self._journal_with_batches(d / JOURNAL_FILENAME)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 5)
        service, report = SupervisedCPLDS.open(str(d))
        expected = CPLDS(8)
        expected.apply_batch([(0, 1)], [])
        expected.apply_batch([(1, 2)], [])
        assert report.torn_tail and report.recovered_through == 2
        assert service.impl.levels() == expected.levels()
        service.close()


class TestDamage(_Damage):
    def test_reopen_truncates_torn_tail(self, tmp_path):
        # A torn record must be chopped before appending, otherwise new
        # records land after the damage and the next scan sees mid-stream
        # corruption (found by the chaos harness).
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 5)
        with BatchJournal.open(path) as j:
            seq = j.append_batch([(5, 6)], [])
            j.commit(seq)
        contents = BatchJournal.scan(path)  # must not raise
        assert not contents.torn_tail
        assert seq in {r.seq for r in contents.committed_batches()}

    def test_reopen_never_reuses_sequence_numbers(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl", count=3)
        with BatchJournal.open(path) as j:
            assert j.append_batch([(6, 7)], []) == 4

    def test_every_cut_inside_the_last_frame_is_a_torn_tail(self, tmp_path):
        """Cut inside a final commit frame, then inside a final batch
        frame: each cut is a torn tail that loses only that record."""
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        for _ in range(2):
            data = path.read_bytes()
            full = BatchJournal.scan(path).records
            start, end = record_spans(data)[-1]
            cut_path = tmp_path / "cut.jsonl"
            for cut in range(start + 1, end):
                cut_path.write_bytes(data[:cut])
                contents = BatchJournal.scan(cut_path)
                assert contents.torn_tail, cut
                assert contents.intact_bytes == start
                assert contents.records == full[:-1], cut
            with BatchJournal.open(path) as j:
                j.append_batch([(0, 7), (3, 5)], [(2, 3)])  # never committed

    def test_every_header_byte_flip_mid_stream_raises(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        data = path.read_bytes()
        start, _ = record_spans(data)[3]
        for offset in range(start, start + _HEADER_BYTES):
            path.write_bytes(data)
            flip(path, offset)
            with pytest.raises(JournalCorruptError):
                BatchJournal.scan(path)

    def test_payload_flip_raises_mid_stream_and_tears_the_tail(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        data = path.read_bytes()
        spans = record_spans(data)
        (mid, mid_end), (last, last_end) = spans[3], spans[-1]
        flip(path, mid_end - 1)
        with pytest.raises(JournalCorruptError, match="not at the tail"):
            BatchJournal.scan(path)
        path.write_bytes(data)
        flip(path, last_end - 1)
        contents = BatchJournal.scan(path)
        assert contents.torn_tail
        assert contents.intact_bytes == last
        assert [r.seq for r in contents.committed_batches()] == [1, 2]


class TestDamageV1(_Damage):
    writer = V1Journal

    def test_open_refuses_to_append(self, tmp_path):
        path = self._journal_with_batches(tmp_path / "j.jsonl")
        with pytest.raises(PersistError, match="SupervisedCPLDS.open"):
            BatchJournal.open(path)

    def test_recovery_rewrites_the_directory_as_version_2(self, tmp_path):
        d = tmp_path / "state"
        d.mkdir()
        path = self._journal_with_batches(d / JOURNAL_FILENAME, count=4)
        expected = CPLDS(8)
        for i in range(4):
            expected.apply_batch([(i, i + 1)], [])
        service, report = SupervisedCPLDS.open(str(d))
        assert report.recovered_through == 4
        assert service.impl.levels() == expected.levels()
        service.apply_batch([(0, 7)], [])
        expected.apply_batch([(0, 7)], [])
        service.close()
        assert path.read_bytes().startswith(JOURNAL_MAGIC)
        assert BatchJournal.scan(path).genesis["journal_version"] == JOURNAL_VERSION
        again, _ = SupervisedCPLDS.open(str(d))
        assert again.impl.levels() == expected.levels()
        again.close()


ids = st.one_of(
    st.sampled_from([0, 1, 254, 255, 256, 65534, 65535, 65536, 65537]),
    st.integers(0, 1 << 20),
    st.integers(0, (1 << 63) - 1),
)
sides = st.lists(st.tuples(ids, ids), max_size=12)


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(st.tuples(sides, sides), min_size=1, max_size=4))
def test_batch_frames_keep_exact_order_in_the_narrowest_word(tmp_path_factory, batches):
    """Empty sides, reversed and duplicate edges and ids at every width
    boundary come back exactly as appended, each batch in the narrowest
    unsigned word that holds its largest id."""
    path = tmp_path_factory.mktemp("j") / "j.jsonl"
    with BatchJournal.create(path, num_vertices=8, params=LDSParams(8)) as j:
        for ins, dels in batches:
            j.commit(j.append_batch(ins, dels))
    data = path.read_bytes()
    records = BatchJournal.scan(path).records
    assert [(r["ins"], r["del"]) for r in records[0::2]] == [
        (list(ins), list(dels)) for ins, dels in batches
    ]
    spans = record_spans(data)[1::2]
    for (start, end), (ins, dels) in zip(spans, batches):
        top = max((max(e) for e in ins + dels), default=0)
        word = next(w for w in (1, 2, 4, 8) if top < 1 << (8 * w))
        assert end - start == 13 + 17 + 2 * len(ins + dels) * word


class TestCompaction:
    def test_compacted_journal_restores_alone(self, tmp_path):
        cp = CPLDS(8)
        cp.insert_batch([(0, 1), (1, 2), (0, 2), (2, 3)])
        path = tmp_path / "j.jsonl"
        j = BatchJournal.compact(path, cplds=cp, seq=5)
        s = j.append_batch([(3, 4)], [])
        j.commit(s)
        assert s == 6
        j.close()
        contents = BatchJournal.scan(path)
        assert contents.floor() == 5
        restored = cplds_from_snapshot(
            contents.genesis, contents.latest_snapshot()
        )
        assert restored.levels() == cp.levels()
        assert sorted(restored.graph.edges()) == sorted(cp.graph.edges())
        # Only the post-snapshot suffix remains as batch records.
        assert [r.seq for r in contents.committed_batches()] == [6]

    def test_floor_zero_without_snapshot(self, tmp_path):
        path = tmp_path / "j.jsonl"
        BatchJournal.create(path, num_vertices=8, params=LDSParams(8)).close()
        contents = BatchJournal.scan(path)
        assert contents.floor() == 0
        assert contents.latest_snapshot() is None

    def test_compaction_replaces_old_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BatchJournal.create(path, num_vertices=8, params=LDSParams(8)) as j:
            for i in range(4):
                j.commit(j.append_batch([(i, i + 1)], []))
        cp = CPLDS(8)
        cp.insert_batch([(0, 1)])
        BatchJournal.compact(path, cplds=cp, seq=4).close()
        contents = BatchJournal.scan(path)
        assert contents.committed_batches() == []
        assert contents.floor() == 4

    def test_malformed_snapshot_layout_raises_journal_error(self, tmp_path):
        """A snapshot frame whose CRC passes but whose gaps decode out of
        range is journal corruption, not checkpoint corruption."""
        cp = CPLDS(8)
        cp.insert_batch([(0, 1), (1, 2)])
        path = tmp_path / "j.jsonl"
        BatchJournal.compact(path, cplds=cp, seq=2).close()
        contents = BatchJournal.scan(path)
        snapshot = dict(contents.latest_snapshot(), gaps=[1, 9])
        with pytest.raises(JournalCorruptError, match="endpoint"):
            cplds_from_snapshot(contents.genesis, snapshot)
