"""Tests for the flight recorder (`repro.obs.flightrec`).

The recorder's contract: exact under concurrency (dense sequence numbers,
the ring always holds the newest `capacity` events), one-branch no-op when
disabled, deterministic dumps (both formats round-trip; keys exclude
timestamps), and crash dumps from a seeded chaos schedule reconstruct the
same pre-crash batch timeline on every run.
"""

import os
import threading

import pytest

from repro.core.cplds import CPLDS
from repro.obs import flightrec
from repro.obs.flightrec import Event, EventType, FlightRecorder


# ---------------------------------------------------------------------------
# Ring-buffer mechanics
# ---------------------------------------------------------------------------

def test_ring_wrap_keeps_newest_in_order():
    rec = FlightRecorder(capacity=8, enabled=True)
    for i in range(20):
        rec.record(EventType.NOTE, i)
    assert rec.total == 20
    assert len(rec) == 8
    events = rec.events()
    assert [e.seq for e in events] == list(range(12, 20))
    assert [e.a for e in events] == list(range(12, 20))


def test_below_capacity_keeps_everything():
    rec = FlightRecorder(capacity=8, enabled=True)
    for i in range(5):
        rec.record(EventType.NOTE, i)
    assert len(rec) == 5
    assert [e.seq for e in rec.events()] == [0, 1, 2, 3, 4]


def test_capacity_one_and_invalid_capacity():
    rec = FlightRecorder(capacity=1, enabled=True)
    rec.record(EventType.NOTE, 1)
    rec.record(EventType.NOTE, 2)
    assert [e.a for e in rec.events()] == [2]
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_clear_resets_sequence_numbers():
    rec = FlightRecorder(capacity=4, enabled=True)
    for i in range(6):
        rec.record(EventType.NOTE, i)
    rec.clear()
    assert rec.total == 0 and len(rec) == 0 and rec.events() == []
    rec.record(EventType.NOTE, 99)
    assert rec.events()[0].seq == 0  # deterministic replays restart at 0


def test_disabled_records_nothing():
    rec = FlightRecorder(capacity=8, enabled=False)
    rec.record(EventType.NOTE, 1)
    assert rec.total == 0 and rec.events() == []
    rec.enable()
    rec.record(EventType.NOTE, 2)
    rec.disable()
    rec.record(EventType.NOTE, 3)
    assert [e.a for e in rec.events()] == [2]


def test_concurrent_writers_are_exact():
    """8 threads x 500 events: no event lost, sequence numbers dense, and
    the ring retains exactly the `capacity` newest in order."""
    capacity = 512
    threads_n, per_thread = 8, 500
    rec = FlightRecorder(capacity=capacity, enabled=True)
    barrier = threading.Barrier(threads_n)

    def writer(tid: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            rec.record(EventType.NOTE, tid, i)

    threads = [threading.Thread(target=writer, args=(t,)) for t in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    total = threads_n * per_thread
    assert rec.total == total
    events = rec.events()
    assert len(events) == capacity
    # The retained window is exactly the newest `capacity` seqs, in order.
    assert [e.seq for e in events] == list(range(total - capacity, total))
    # Per-thread event streams survive interleaving in submission order.
    for tid in range(threads_n):
        own = [e.b for e in events if e.a == tid]
        assert own == sorted(own)


# ---------------------------------------------------------------------------
# Dump formats
# ---------------------------------------------------------------------------

def _populated(n=10, capacity=64) -> FlightRecorder:
    rec = FlightRecorder(capacity=capacity, enabled=True)
    rec.record(EventType.BATCH_BEGIN, 1, 0, 5)
    for i in range(n):
        rec.record(EventType.ROUND, 10 - i, i, i + 1)
    rec.record(EventType.BATCH_END, 1, 3, 2, 7)
    return rec


@pytest.mark.parametrize("fmt,ext", [("jsonl", ".jsonl"), ("binary", ".bin")])
def test_dump_load_roundtrip(tmp_path, fmt, ext):
    rec = _populated()
    path = str(tmp_path / f"dump{ext}")
    rec.dump(path)  # format inferred from extension
    loaded = flightrec.load(path)
    assert [e.key() for e in loaded] == [e.key() for e in rec.events()]
    # Timestamps survive the round-trip too (within float precision).
    for got, want in zip(loaded, rec.events()):
        assert got.t == pytest.approx(want.t)


def test_dump_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        _populated().dump(str(tmp_path / "x"), fmt="csv")


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "garbage"
    p.write_text("this is not a dump\n")
    with pytest.raises(ValueError):
        flightrec.load(str(p))


def test_load_rejects_truncated_binary(tmp_path):
    rec = _populated()
    blob = rec.dumps_binary()
    p = tmp_path / "trunc.bin"
    p.write_bytes(blob[: len(blob) - 4])
    with pytest.raises(ValueError, match="truncated"):
        flightrec.load(str(p))


def test_load_rejects_truncated_jsonl(tmp_path):
    rec = _populated()
    lines = rec.dumps_jsonl().splitlines()
    p = tmp_path / "trunc.jsonl"
    p.write_text("\n".join(lines[:-1]) + "\n")  # header count now lies
    with pytest.raises(ValueError, match="truncated"):
        flightrec.load(str(p))


def test_format_event_renders_semantics():
    begin = Event(0, EventType.BATCH_BEGIN, 3, 1, 100, 0, 0.0)
    assert "kind=delete" in flightrec.format_event(begin)
    fault = Event(1, EventType.CHAOS_FAULT, 2, 7, 0, 0, 0.0)
    assert "fault=poison" in flightrec.format_event(fault)
    unknown = Event(2, 99, 1, 2, 3, 4, 0.0)
    assert "UNKNOWN(99)" in flightrec.format_event(unknown)


def test_reconstruct_batches_marks_in_flight():
    events = [
        Event(0, EventType.BATCH_BEGIN, 1, 0, 4, 0, 0.0),
        Event(1, EventType.ROUND, 9, 5, 1, 0, 0.0),
        Event(2, EventType.BATCH_END, 1, 2, 1, 5, 0.0),
        Event(3, EventType.BATCH_BEGIN, 2, 1, 3, 0, 0.0),
        Event(4, EventType.ROUND, 6, 2, 1, 0, 0.0),
        # no BATCH_END: batch 2 was in flight when the dump was taken
    ]
    timeline = flightrec.reconstruct_batches(events)
    assert [b["batch"] for b in timeline] == [1, 2]
    assert timeline[0]["complete"] and timeline[0]["kind"] == "insert"
    assert timeline[0]["frontiers"] == [9] and timeline[0]["moves"] == 5
    assert not timeline[1]["complete"] and timeline[1]["kind"] == "delete"


# ---------------------------------------------------------------------------
# Pipeline wiring (the global RECORDER the hot paths cache)
# ---------------------------------------------------------------------------

@pytest.fixture
def recorder():
    """The process-wide recorder, cleared and enabled, restored after."""
    rec = flightrec.RECORDER
    was = rec.enabled
    rec.clear()
    rec.enable()
    yield rec
    rec.enabled = was
    rec.clear()


def test_batch_pipeline_emits_typed_events(recorder):
    cp = CPLDS(32)
    cp.insert_batch([(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    cp.delete_batch([(0, 1)])
    types = {e.etype for e in recorder.events()}
    assert EventType.BATCH_BEGIN in types
    assert EventType.BATCH_END in types
    assert EventType.ROUND in types
    timeline = flightrec.reconstruct_batches(recorder.events())
    assert [b["kind"] for b in timeline] == ["insert", "delete"]
    assert all(b["complete"] for b in timeline)


def test_read_verbose_emits_read_ok(recorder):
    cp = CPLDS(16)
    cp.insert_batch([(0, 1), (1, 2)])
    recorder.clear()
    cp.read_verbose(1)
    oks = [e for e in recorder.events() if e.etype == EventType.READ_OK]
    assert len(oks) == 1 and oks[0].a == 1


def test_plain_read_stays_quiet_on_success(recorder):
    """`read()` is the latency-critical path: success must not record."""
    cp = CPLDS(16)
    cp.insert_batch([(0, 1), (1, 2)])
    recorder.clear()
    cp.read(1)
    assert recorder.events() == []


# ---------------------------------------------------------------------------
# Supervisor crash dumps
# ---------------------------------------------------------------------------

def test_supervisor_dumps_on_health_transition(tmp_path, recorder):
    from repro.runtime.supervisor import HealthState, SupervisedCPLDS

    service = SupervisedCPLDS(CPLDS(16), journal_dir=tmp_path)
    service.apply_batch(insertions=[(0, 1), (1, 2)])
    service._set_health(HealthState.RECOVERING)
    assert service.crash_dumps, "RECOVERING transition wrote no dump"
    path = os.path.join(str(tmp_path), service.crash_dumps[-1])
    events = flightrec.load(path)
    healths = [e for e in events if e.etype == EventType.HEALTH]
    assert healths and healths[-1].b == 1  # -> RECOVERING ordinal
    service.close()


def test_checkpoint_bytes_reach_telemetry_registry_and_events(tmp_path, recorder):
    """Every checkpoint's archive size is counted in ``checkpoint_bytes``,
    mirrored as ``service_checkpoint_bytes_total``, and carried by its
    CHECKPOINT event."""
    from repro import obs
    from repro.runtime.supervisor import SupervisedCPLDS

    was = obs.REGISTRY.enabled
    obs.enable()
    obs.reset()
    try:
        cp = CPLDS(16)
        cp.insert_batch([(0, 1)])  # non-empty adoption: initial checkpoint
        service = SupervisedCPLDS(
            cp, journal_dir=tmp_path, checkpoint_every=1, keep_checkpoints=10
        )
        service.apply_batch(insertions=[(1, 2), (2, 3)])
        service.apply_batch(insertions=[(0, 2)], deletions=[(0, 1)])
        service.close()
        total = obs.REGISTRY.counter_value("service_checkpoint_bytes_total")
    finally:
        obs.reset()
        if not was:
            obs.disable()
    sizes = {
        int(f.name[len("checkpoint-"):-len(".npz")]): f.stat().st_size
        for f in tmp_path.glob("checkpoint-*.npz")
    }
    events = [e for e in recorder.events() if e.etype == EventType.CHECKPOINT]
    assert len(sizes) == len(events) == service.telemetry.checkpoints_written == 3
    assert {e.a: e.b for e in events} == sizes
    assert service.telemetry.checkpoint_bytes == sum(sizes.values()) == total
    assert service.telemetry.as_dict()["checkpoint_bytes"] == total
    assert flightrec.EVENT_FIELDS[EventType.CHECKPOINT] == ("seq", "bytes")


def test_journal_bytes_reach_telemetry_and_registry(tmp_path):
    """Every journal frame's bytes are counted in ``journal_bytes`` and
    mirrored as ``service_journal_bytes_total``: the field, the counter
    and the file size agree, and a reopened service starts from its
    compacted file."""
    from repro import obs
    from repro.runtime.supervisor import JOURNAL_FILENAME, SupervisedCPLDS

    journal = tmp_path / JOURNAL_FILENAME
    was = obs.REGISTRY.enabled
    obs.enable()
    try:
        for reopen in (False, True):
            obs.reset()
            if reopen:
                service, _ = SupervisedCPLDS.open(tmp_path, checkpoint_every=1)
                assert service.telemetry.journal_bytes == journal.stat().st_size
            else:
                cp = CPLDS(300)
                cp.insert_batch([(0, 1)])  # non-empty adoption: a checkpoint note
                service = SupervisedCPLDS(cp, journal_dir=tmp_path, checkpoint_every=1)
            service.apply_batch(insertions=[(1, 2), (2, 299)])
            service.apply_batch(insertions=[(0, 2)], deletions=[(0, 1)])
            service.close()
            total = obs.REGISTRY.counter_value("service_journal_bytes_total")
            assert service.telemetry.journal_bytes == journal.stat().st_size == total
            assert service.telemetry.as_dict()["journal_bytes"] == total
    finally:
        obs.reset()
        if not was:
            obs.disable()


def test_dump_flight_record_disabled_returns_none(tmp_path):
    from repro.runtime.supervisor import SupervisedCPLDS

    assert not flightrec.RECORDER.enabled
    service = SupervisedCPLDS(CPLDS(8), journal_dir=tmp_path)
    assert service.dump_flight_record("manual") is None
    assert service.crash_dumps == []
    service.close()


# ---------------------------------------------------------------------------
# Chaos crash dumps: deterministic pre-crash timelines
# ---------------------------------------------------------------------------

def test_chaos_crash_dumps_reconstruct_deterministically(tmp_path):
    """Two runs of the same chaos seed with recording on produce the same
    dump files, whose events (timestamps excluded) and reconstructed batch
    timelines match exactly."""
    from repro.runtime.chaos import run_chaos

    seed = 0
    results, dumps = [], []
    for run in ("a", "b"):
        jdir = tmp_path / f"journal-{run}"
        ddir = tmp_path / f"dumps-{run}"
        results.append(
            run_chaos(seed, jdir, record=True, dump_dir=ddir)
        )
        dumps.append(
            {
                name: flightrec.load(str(ddir / name))
                for name in results[-1].crash_dumps
            }
        )
    a, b = results
    assert a.crash_dumps == b.crash_dumps and a.crash_dumps
    for name in a.crash_dumps:
        keys_a = [e.key() for e in dumps[0][name]]
        keys_b = [e.key() for e in dumps[1][name]]
        assert keys_a == keys_b, f"{name}: event streams diverged"
        assert flightrec.reconstruct_batches(
            dumps[0][name]
        ) == flightrec.reconstruct_batches(dumps[1][name])
    # Every dump carries the fault context that preceded the failure.
    any_fault = any(
        e.etype == EventType.CHAOS_FAULT
        for events in dumps[0].values()
        for e in events
    )
    assert any_fault, "no CHAOS_FAULT event in any crash dump"


def test_chaos_record_mode_restores_recorder_state(tmp_path):
    from repro.runtime.chaos import run_chaos

    rec = flightrec.RECORDER
    assert not rec.enabled
    run_chaos(1, tmp_path / "j", record=True, dump_dir=tmp_path / "d")
    assert not rec.enabled, "record=True leaked an enabled recorder"
