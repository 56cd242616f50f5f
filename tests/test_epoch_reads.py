"""Unit tests for the multi-version epoch-snapshot read tier.

Covers the store's retention/pin/staleness mechanics, snapshot bulk
queries against quiescent engine reads on every backend, the wiring
through ``engines.create`` and the coordinator, and the supervisor's
degraded-read + recovery re-seeding paths.  The threaded rule-E histories
live in ``tests/test_threaded_linearizability.py``; the crash-with-pins
schedules in ``tests/test_chaos.py``.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.core import CPLDS
from repro.errors import EpochUnavailableError
from repro.lds.params import LDSParams
from repro.lds.store import BACKENDS
from repro.obs import REGISTRY
from repro.reads import EpochSnapshot, EpochSnapshotStore, attach_epoch_store
from repro.runtime.coordinator import BatchCoordinator
from repro.runtime.inject import HookChain
from repro.runtime.supervisor import HealthState, SupervisedCPLDS
from repro.runtime.chaos import ChaosHooks

EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5), (1, 5)]


def draw_snapshot(data):
    """A drawn snapshot and its stable-argsort top-k reference."""
    # Shallow groups and a few distinct levels make estimates tie
    # heavily, the case the selection must order exactly like a sort.
    n = data.draw(st.integers(1, 60), label="n")
    params = LDSParams(n, levels_per_group=data.draw(st.integers(1, 4)))
    distinct = data.draw(
        st.lists(st.integers(0, params.max_level), min_size=1, max_size=4),
        label="levels",
    )
    levels = data.draw(st.lists(st.sampled_from(distinct), min_size=n, max_size=n))
    est = np.asarray(params.estimate_table)[np.asarray(levels, dtype=np.int64)]
    order = np.argsort(-est, kind="stable")

    def reference(k):
        return [(int(v), float(est[v])) for v in order[: max(k, 0)]]

    return EpochSnapshot(1, levels, params), reference


def draw_k(n):
    """k values around the edges: 0, negative, n and above n."""
    return st.sampled_from([0, 1, n - 1, n, n + 3]) | st.integers(-2, n + 3)


def engine_with_store(backend="object", n=8, **store_kw):
    store = EpochSnapshotStore(**store_kw)
    eng = engines.create("cplds", n, backend=backend, epoch_store=store)
    return eng, store


class TestSnapshotQueries:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bulk_reads_match_quiescent_engine(self, backend):
        eng, store = engine_with_store(backend)
        eng.insert_batch(EDGES)
        snap = store.newest()
        assert snap.epoch == eng.batch_number == 1
        n = snap.num_vertices
        assert list(snap.levels) == list(eng.levels())
        assert [snap.estimate(v) for v in range(n)] == [
            eng.read(v) for v in range(n)
        ]
        np.testing.assert_array_equal(
            snap.coreness_many(), [eng.read(v) for v in range(n)]
        )
        np.testing.assert_array_equal(
            snap.levels_many([3, 1, 4]), [snap.level(3), snap.level(1), snap.level(4)]
        )
        assert snap.subgraph_coreness([5, 0]) == {
            5: eng.read(5), 0: eng.read(0)
        }

    def test_top_k_is_deterministic_desc_then_vertex(self):
        eng, store = engine_with_store("columnar-frontier")
        eng.insert_batch(EDGES)
        snap = store.newest()
        top = snap.top_k(4)
        assert len(top) == 4
        ests = [e for _, e in top]
        assert ests == sorted(ests, reverse=True)
        # Ties broken by ascending vertex id.
        for (v1, e1), (v2, e2) in zip(top, top[1:]):
            if e1 == e2:
                assert v1 < v2
        assert snap.top_k(0) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_top_k_equals_stable_argsort(self, data):
        snap, reference = draw_snapshot(data)
        k = data.draw(draw_k(snap.num_vertices), label="k")
        top = snap.top_k(k)
        assert top == reference(k)
        assert all(type(v) is int and type(e) is float for v, e in top)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_top_k_sequence_on_one_snapshot_equals_stable_argsort(self, data):
        # Growing, shrinking and repeated k on one snapshot: answers from
        # the stored prefix must equal fresh selections.
        snap, reference = draw_snapshot(data)
        ks = data.draw(
            st.lists(draw_k(snap.num_vertices), min_size=1, max_size=5),
            label="ks",
        )
        for k in ks:
            assert snap.top_k(k) == reference(k)

    def test_mutating_a_result_does_not_change_the_next_answer(self):
        snap = EpochSnapshot(1, [3, 1, 4, 1, 5, 9, 2, 6], LDSParams(8))
        first = snap.top_k(5)
        expected = list(first)
        first.clear()
        snap.top_k(3).append((0, 0.0))
        assert snap.top_k(5) == expected
        assert snap.top_k(3) == expected[:3]

    def test_stored_prefix_is_read_only(self):
        snap = EpochSnapshot(1, [3, 1, 4, 1, 5, 9, 2, 6], LDSParams(8))
        snap.top_k(4)
        ids, est = snap._top
        assert ids.size == est.size == 4
        for arr in (ids, est):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_selection_runs_once_per_snapshot_and_larger_k(self):
        from repro import obs

        rng = np.random.default_rng(7)
        n = 400
        pairs = {tuple(sorted(e)) for e in rng.integers(0, n, (1500, 2)).tolist()}
        edges = sorted(e for e in pairs if e[0] != e[1])
        was = obs.enabled()
        obs.reset()
        obs.enable()
        try:
            eng, store = engine_with_store("columnar-frontier", n=n)
            eng.insert_batch(edges[:1000])
            snap = store.newest()

            def selections():
                return REGISTRY.counter_value("epoch_top_k_selections_total")

            first = snap.top_k(100)
            for _ in range(19):
                assert snap.top_k(100) == first
            assert selections() == 1
            snap.top_k(150)
            assert selections() == 2
            assert snap.top_k(100) == first
            assert selections() == 2
            eng.insert_batch(edges[1000:])
            fresh = store.newest()
            assert fresh.epoch == snap.epoch + 1
            fresh.top_k(100)
            assert selections() == 3
        finally:
            REGISTRY.enabled = was
            obs.reset()

    def test_threads_racing_on_a_fresh_snapshot_agree_with_argsort(self):
        rng = np.random.default_rng(11)
        params = LDSParams(3000, levels_per_group=2)
        levels = rng.integers(0, params.max_level + 1, 3000)
        est = np.asarray(params.estimate_table)[levels]
        order = np.argsort(-est, kind="stable")
        snap = EpochSnapshot(1, levels, params)
        barrier = threading.Barrier(4, timeout=30)
        ks = ([50, 500, 5], [500, 50, 2000], [5, 2000, 500], [2000, 5, 50])
        results = [[] for _ in ks]

        def reader(i):
            barrier.wait()
            for k in ks[i] * 3:
                results[i].append((k, snap.top_k(k)))

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert len(got) == 9
            for k, top in got:
                assert top == [
                    (int(v), float(est[v])) for v in order[:k]
                ]

    def test_snapshots_share_one_read_only_estimate_array(self):
        eng, store = engine_with_store("columnar-frontier")
        eng.insert_batch(EDGES)
        first = store.newest()
        eng.delete_batch(EDGES[:2])
        second = store.newest()
        assert first.epoch != second.epoch
        assert first._estimates is second._estimates is eng.params.estimate_array
        assert not eng.params.estimate_array.flags.writeable
        with pytest.raises(ValueError):
            eng.params.estimate_array[0] = 99.0
        assert eng.params.estimate_array.tolist() == list(
            eng.params.estimate_table
        )

    def test_level_histogram_counts_every_vertex(self):
        eng, store = engine_with_store("columnar-frontier")
        eng.insert_batch(EDGES)
        snap = store.newest()
        hist = snap.level_histogram()
        assert hist.sum() == snap.num_vertices
        assert len(hist) == eng.params.num_levels
        for lvl in snap.levels:
            assert hist[lvl] >= 1

    def test_snapshot_levels_are_frozen(self):
        eng, store = engine_with_store()
        eng.insert_batch(EDGES)
        snap = store.newest()
        with pytest.raises(ValueError):
            snap.levels[0] = 99


class TestStoreRetention:
    def test_window_evicts_oldest_unpinned(self):
        eng, store = engine_with_store(window=2)
        for k in range(4):
            eng.insert_batch([EDGES[k]])
        assert store.retained_epochs() == (3, 4)
        assert store.latest_epoch == 4
        assert store.evicted_total >= 3  # seed epoch 0 plus epochs 1, 2

    def test_pin_blocks_eviction_until_release(self):
        eng, store = engine_with_store(window=2)
        eng.insert_batch([EDGES[0]])
        pin = store.pin(1)
        for k in range(1, 4):
            eng.insert_batch([EDGES[k]])
        assert 1 in store.retained_epochs()  # pinned epoch survives
        before = list(pin.levels_many(range(8)))
        pin.release()
        assert 1 not in store.retained_epochs()  # release enables eviction
        assert store.retained_epochs() == (3, 4)
        assert pin.released
        with pytest.raises(EpochUnavailableError):
            pin.coreness_many()
        assert before  # the pre-release read went through

    def test_publish_cadence_skips_epochs(self):
        eng, store = engine_with_store(publish_every=2, window=8)
        for k in range(5):
            eng.insert_batch([EDGES[k]])
        # Seed epoch 0 plus the even epochs; odd epochs never published.
        assert store.retained_epochs() == (0, 2, 4)
        assert not store.accepts(3)
        assert store.accepts(4)

    def test_pin_unknown_epoch_raises(self):
        eng, store = engine_with_store(window=1)
        eng.insert_batch(EDGES)
        with pytest.raises(EpochUnavailableError):
            store.pin(0)  # evicted by window=1
        with pytest.raises(EpochUnavailableError):
            store.pin(7)  # never published
        with pytest.raises(EpochUnavailableError):
            EpochSnapshotStore().pin()  # nothing published yet


class TestStalenessPolicy:
    def test_over_budget_pin_is_force_advanced(self):
        eng, store = engine_with_store(window=8, max_staleness=2)
        eng.insert_batch([EDGES[0]])
        pin = store.pin()  # epoch 1
        eng.insert_batch([EDGES[1]])
        eng.insert_batch([EDGES[2]])
        assert pin.advanced == 0  # staleness 2 == budget: still pinned
        eng.insert_batch([EDGES[3]])  # staleness 3 > budget
        assert pin.epoch == 4
        assert pin.advanced == 1
        np.testing.assert_array_equal(
            pin.levels_many(range(8)), store.newest().levels
        )

    def test_within_budget_pin_reads_bit_identical(self):
        eng, store = engine_with_store(window=8, max_staleness=None)
        eng.insert_batch(EDGES[:4])
        pin = store.pin()
        before = pin.coreness_many(range(8)).tolist()
        eng.insert_batch(EDGES[4:])
        eng.delete_batch(EDGES[:2])
        assert pin.advanced == 0
        assert pin.coreness_many(range(8)).tolist() == before

    def test_reseed_drops_rolled_back_epochs_and_advances_pins(self):
        eng, store = engine_with_store(window=8)
        eng.insert_batch(EDGES[:3])
        eng.insert_batch(EDGES[3:6])
        pin_old = store.pin(1)
        pin_new = store.pin(2)
        # Roll history back to epoch 1 (as a recovery would).
        store.reseed(1, eng.plds.state.snapshot_levels(), params=eng.params)
        assert store.latest_epoch == 1
        assert 2 not in store.retained_epochs()
        # The rolled-back pin advances at its next read; the surviving
        # pin keeps serving its (still retained) epoch.
        pin_new.level(0)
        assert pin_new.advanced == 1 and pin_new.epoch == 1
        pin_old.level(0)
        assert pin_old.advanced == 0 and pin_old.epoch == 1


class TestWiring:
    def test_attach_requires_the_epoch_seam(self):
        store = EpochSnapshotStore()
        baseline = engines.create("nonsync", 8)
        with pytest.raises(TypeError):
            attach_epoch_store(baseline, store)
        with pytest.raises(TypeError):
            engines.create("nonsync", 8, epoch_store=EpochSnapshotStore())

    def test_attach_seeds_current_state(self):
        eng = engines.create("cplds", 8, backend="columnar-frontier")
        eng.insert_batch(EDGES)
        store = EpochSnapshotStore()
        attach_epoch_store(eng, store)
        assert store.latest_epoch == eng.batch_number
        assert list(store.newest().levels) == list(eng.levels())

    def test_obs_counters_account_pins_and_reads(self):
        from repro import obs

        was = obs.enabled()
        obs.reset()
        obs.enable()
        try:
            eng, store = engine_with_store()
            eng.insert_batch(EDGES)
            with store.pin() as pin:
                pin.coreness_many()
                pin.top_k(3)
            assert REGISTRY.counter_value("epoch_pins_total") == 1
            assert REGISTRY.counter_value("epoch_reads_total") == 2
            hist = REGISTRY._histograms.get(("epoch_read_staleness_epochs", ()))
            assert hist is not None and hist.count == 2
        finally:
            REGISTRY.enabled = was
            obs.reset()


class TestCoordinatorFrontDoor:
    def test_epoch_store_and_tickets(self):
        store = EpochSnapshotStore()
        impl = CPLDS(8)
        with BatchCoordinator(
            impl, max_batch=4, max_delay=0.005, epoch_store=store
        ) as co:
            assert co.epoch_store is store
            tickets = [co.submit_insert(u, v) for u, v in EDGES]
            for t in tickets:
                t.wait(10.0)
            co.flush()
            assert co.current_epoch == impl.batch_number > 0
            ticket = co.read_ticketed(2)
            assert ticket.stable
            assert ticket.epoch == co.current_epoch
            assert ticket.estimate == impl.read(2)
            with co.pin_epoch() as pin:
                assert pin.epoch == co.current_epoch
                assert pin.estimate(2) == ticket.estimate

    def test_pin_epoch_without_store_raises(self):
        with BatchCoordinator(CPLDS(4), max_delay=0.005) as co:
            assert co.epoch_store is None
            with pytest.raises(ValueError):
                co.pin_epoch()


class TestSupervisorReadTier:
    def test_degraded_reads_serve_newest_epoch(self):
        service = SupervisedCPLDS(CPLDS(8))
        service.apply_batch(insertions=EDGES)
        healthy = [service.read(v) for v in range(8)]
        service._set_health(HealthState.RECOVERING)
        for v in range(8):
            tagged = service.read_tagged(v)
            assert tagged.stale
            assert tagged.estimate == healthy[v]
            assert tagged.batch == service.epoch_store.latest_epoch

    def test_recovery_reseeds_and_keeps_publishing(self):
        service = SupervisedCPLDS(CPLDS(8), backoff_base=0.0)
        hooks = ChaosHooks()

        def attach(impl):
            impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

        attach(service.impl)
        service.post_restore = attach
        service.apply_batch(insertions=EDGES[:4])
        pin = service.pin_epoch()
        before = pin.coreness_many(range(8)).tolist()
        hooks.arm_crash(0, times=1)  # next batch fails once, then retries
        outcome = service.apply_batch(insertions=EDGES[4:])
        assert outcome.fully_applied
        assert service.health is HealthState.HEALTHY
        # The pre-crash pin survived recovery bit-identically, and the
        # retried batch published a fresh epoch into the same store.
        assert pin.coreness_many(range(8)).tolist() == before
        assert service.epoch_store.latest_epoch == service.impl.batch_number
        assert service.impl.epoch_store is service.epoch_store

    def test_reopen_after_crash_reseeds_store(self, tmp_path):
        service = SupervisedCPLDS(CPLDS(8), journal_dir=tmp_path)
        service.apply_batch(insertions=EDGES)
        expected = [service.read(v) for v in range(8)]
        service._journal.close()  # simulated process death
        reopened, report = SupervisedCPLDS.open(tmp_path)
        try:
            store = reopened.epoch_store
            assert store.latest_epoch == reopened.impl.batch_number
            with reopened.pin_epoch() as pin:
                assert pin.coreness_many(range(8)).tolist() == expected
            reopened._set_health(HealthState.RECOVERING)
            assert reopened.read_tagged(0).estimate == expected[0]
        finally:
            reopened.close()
