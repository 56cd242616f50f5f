"""Tests for the self-healing service layer: supervised recovery, poison
quarantine, health transitions, degraded reads, and crash-restart.

The oracle throughout is a fresh-built CPLDS replaying exactly the batches
the service reports as committed — the PLDS is deterministic under the
sequential executor, so "recovered correctly" means *exact* per-vertex
equality, not approximation.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CPLDS
from repro.errors import (
    CoordinatorClosedError,
    PoisonUpdateError,
    ServiceFailedError,
    TicketTimeoutError,
)
from repro.runtime.inject import HookChain
from repro.runtime.supervisor import (
    HealthState,
    SupervisedCoordinator,
    SupervisedCPLDS,
    restore_from_dir,
)
from repro.runtime.chaos import ChaosHooks


def oracle_of(service):
    """Fresh structure replaying everything the service has committed."""
    oracle = CPLDS(service.impl.graph.num_vertices, params=service.impl.params)
    return oracle


def assert_matches_oracle(service, history):
    oracle = oracle_of(service)
    for rec in history:
        oracle.apply_batch(rec.insertions, rec.deletions)
    n = oracle.graph.num_vertices
    assert [service.read(v) for v in range(n)] == [
        oracle.read(v) for v in range(n)
    ]
    service.impl.check_invariants()


_LIVE_SERVICES = []


@pytest.fixture(autouse=True)
def _release_journal_handles():
    """Close journal handles left open by tests that simulate crashes."""
    yield
    while _LIVE_SERVICES:
        service = _LIVE_SERVICES.pop()
        if service._journal is not None:
            service._journal.close()


def supervised(tmp_path, n=12, **kw):
    kw.setdefault("backoff_base", 0.0)
    service = SupervisedCPLDS(CPLDS(n), journal_dir=tmp_path, **kw)
    _LIVE_SERVICES.append(service)
    hooks = ChaosHooks()

    def attach(impl):
        impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

    attach(service.impl)
    service.post_restore = attach
    return service, hooks


TRIANGLES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]


class TestRecovery:
    def test_transient_fault_recovers_and_retries(self, tmp_path):
        service, hooks = supervised(tmp_path, max_retries=2)
        history = list(service.apply_batch(TRIANGLES[:3]).applied)
        hooks.arm_crash(0, times=1)  # fails on the first move; retry succeeds
        clique = [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
        outcome = service.apply_batch(clique)
        history += outcome.applied
        assert outcome.fully_applied
        assert service.health is HealthState.HEALTHY
        assert service.telemetry.recoveries == 1
        assert service.telemetry.retries == 1
        assert_matches_oracle(service, history)

    def test_recovery_preserves_exact_level_history(self, tmp_path):
        # Journal replay reproduces the batch-by-batch history, so levels —
        # not just coreness — must match a batch-faithful oracle.
        service, hooks = supervised(tmp_path, max_retries=1)
        history = list(service.apply_batch(TRIANGLES[:4]).applied)
        hooks.arm_crash(2, times=1)
        history += service.apply_batch(TRIANGLES[4:], [(0, 2)]).applied
        oracle = oracle_of(service)
        for rec in history:
            oracle.apply_batch(rec.insertions, rec.deletions)
        assert service.impl.levels() == oracle.levels()

    def test_poison_batch_bisected_to_single_update(self, tmp_path):
        service, hooks = supervised(tmp_path, max_retries=1)
        bad = (1, 3)
        hooks.poison = {bad}
        outcome = service.apply_batch(TRIANGLES + [bad])
        assert [d.edge for d in outcome.dropped] == [bad]
        assert isinstance(outcome.dropped[0].error, PoisonUpdateError)
        applied_edges = [e for r in outcome.applied for e in r.insertions]
        assert sorted(applied_edges) == sorted(TRIANGLES)
        assert service.health is HealthState.DEGRADED
        assert_matches_oracle(service, outcome.applied)

    @pytest.mark.parametrize(
        "bad", [(0, 2**64), (0, np.uint64(2**63)), (-(2**63) - 1, 1), (0, 1.5)]
    )
    def test_update_no_journal_word_holds_is_quarantined(self, tmp_path, bad):
        service, _ = supervised(tmp_path)
        outcome = service.apply_batch(TRIANGLES[:3] + [bad])
        assert [d.edge for d in outcome.dropped] == [bad]
        assert isinstance(outcome.dropped[0].error, PoisonUpdateError)
        assert service.health is HealthState.DEGRADED
        history = outcome.applied + service.apply_batch(TRIANGLES[3:]).applied
        assert [e for r in history for e in r.insertions] == TRIANGLES
        assert_matches_oracle(service, history)
        service.close()
        reopened, _ = SupervisedCPLDS.open(tmp_path)
        _LIVE_SERVICES.append(reopened)
        assert reopened.impl.levels() == service.impl.levels()

    def test_degraded_clears_after_clean_batches(self, tmp_path):
        service, hooks = supervised(tmp_path, degraded_clearance=2)
        hooks.poison = {(0, 1)}
        service.apply_batch([(0, 1), (1, 2)])
        hooks.clear()
        assert service.health is HealthState.DEGRADED
        service.apply_batch([(2, 3)])
        assert service.health is HealthState.DEGRADED
        service.apply_batch([(3, 4)])
        assert service.health is HealthState.HEALTHY

    def test_transition_log_is_audited(self, tmp_path):
        service, hooks = supervised(tmp_path, max_retries=1)
        service.apply_batch(TRIANGLES[:3])
        hooks.arm_crash(0, times=1)
        service.apply_batch([(u, v) for u in range(5, 10) for v in range(u + 1, 10)])
        assert ("HEALTHY", "RECOVERING") in service.telemetry.transitions
        assert ("RECOVERING", "HEALTHY") in service.telemetry.transitions

    def test_rebuild_mode_without_journal(self, tmp_path):
        # journal_dir=None: best-effort recovery via rebuild still converges
        # to the right coreness (level history is not preserved).
        service = SupervisedCPLDS(CPLDS(12), backoff_base=0.0, max_retries=1)
        hooks = ChaosHooks()

        def attach(impl):
            impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

        attach(service.impl)
        service.post_restore = attach
        service.apply_batch(TRIANGLES[:3])
        hooks.arm_crash(1, times=1)
        outcome = service.apply_batch(TRIANGLES[3:])
        assert outcome.fully_applied
        oracle = oracle_of(service)
        oracle.apply_batch(TRIANGLES)
        n = oracle.graph.num_vertices
        assert [service.read(v) for v in range(n)] == [
            oracle.read(v) for v in range(n)
        ]


class TestDegradedReads:
    def test_reads_never_raise_while_failed(self, tmp_path):
        service, hooks = supervised(tmp_path)
        service.apply_batch(TRIANGLES)
        before = [service.read(v) for v in range(12)]
        # Force FAILED: break the journal handle so the append must fail.
        service._journal.close()
        service.apply_batch([(5, 6)])
        assert service.health is HealthState.FAILED
        tagged = service.read_tagged(0)
        assert tagged.stale
        assert tagged.health is HealthState.FAILED
        assert [service.read(v) for v in range(12)] == before

    def test_stale_tag_during_recovery_snapshot(self, tmp_path):
        service, hooks = supervised(tmp_path)
        history = list(service.apply_batch(TRIANGLES).applied)
        tagged = service.read_tagged(2)
        assert not tagged.stale
        assert tagged.health is HealthState.HEALTHY
        assert tagged.batch == service.impl.batch_number
        assert_matches_oracle(service, history)

    def test_failed_service_rejects_submissions(self, tmp_path):
        service, hooks = supervised(tmp_path)
        service.apply_batch(TRIANGLES[:2])
        service._journal.close()
        service.apply_batch([(4, 5)])  # drops, fails the service
        with pytest.raises(ServiceFailedError):
            service.apply_batch([(6, 7)])


class TestCrashRestart:
    def test_reopen_resumes_exact_state(self, tmp_path):
        service, hooks = supervised(tmp_path, checkpoint_every=2)
        history = []
        history += service.apply_batch(TRIANGLES[:3]).applied
        history += service.apply_batch(TRIANGLES[3:]).applied
        levels = service.impl.levels()
        service._journal.close()  # simulated crash: no graceful close

        reopened, report = SupervisedCPLDS.open(tmp_path, backoff_base=0.0)
        assert report.recovered_through == history[-1].seq
        assert reopened.impl.levels() == levels
        assert_matches_oracle(reopened, history)
        reopened.close()

    def test_reopen_replays_uncheckpointed_suffix(self, tmp_path):
        service, hooks = supervised(tmp_path, checkpoint_every=100)
        history = []
        for i in range(4):
            history += service.apply_batch([TRIANGLES[i]]).applied
        service._journal.close()
        reopened, report = SupervisedCPLDS.open(tmp_path, backoff_base=0.0)
        assert report.replayed >= 4  # no checkpoint: from-genesis replay
        assert_matches_oracle(reopened, history)
        reopened.close()

    def test_reopen_compacts_journal(self, tmp_path):
        # After reopen the journal alone must restore the recovered state,
        # even if every checkpoint file disappears (regression: truncation
        # below a checkpoint used to leave an unreplayable hole).
        service, hooks = supervised(tmp_path, checkpoint_every=2)
        history = []
        history += service.apply_batch(TRIANGLES[:3]).applied
        history += service.apply_batch(TRIANGLES[3:]).applied
        service._journal.close()
        reopened, report = SupervisedCPLDS.open(tmp_path, backoff_base=0.0)
        history += reopened.apply_batch([(5, 6)]).applied
        reopened._journal.close()
        for ckpt in tmp_path.glob("checkpoint-*.npz"):
            ckpt.unlink()
        again, report2 = SupervisedCPLDS.open(tmp_path, backoff_base=0.0)
        assert report2.recovered_through == history[-1].seq
        assert_matches_oracle(again, history)
        again.close()

    def test_restore_from_dir_is_read_only_entry_point(self, tmp_path):
        service, hooks = supervised(tmp_path)
        history = list(service.apply_batch(TRIANGLES).applied)
        service.close()
        impl, report = restore_from_dir(tmp_path)
        assert report.recovered_through == history[-1].seq
        assert impl.levels() == service.impl.levels()


class TestSupervisedCoordinator:
    def test_poison_fails_only_its_ticket(self, tmp_path):
        cp = CPLDS(12)
        coord = SupervisedCoordinator(
            cp, max_batch=64, max_delay=0.005,
            journal_dir=tmp_path, backoff_base=0.0, max_retries=1,
        )
        hooks = ChaosHooks()

        def attach(impl):
            impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

        attach(coord.impl)
        coord.service.post_restore = attach
        bad = (1, 3)
        hooks.poison = {bad}
        good = [coord.submit_insert(u, v) for u, v in TRIANGLES]
        poisoned = coord.submit_insert(*bad)
        coord.flush()
        for t in good:
            assert t.wait(timeout=10.0)
            assert not t.failed
        with pytest.raises(PoisonUpdateError):
            poisoned.wait(timeout=10.0)
        assert coord.health is HealthState.DEGRADED
        coord.close()

    def test_zero_stranded_tickets_under_faults(self, tmp_path):
        # Every ticket must complete or fail typed — none may hang.
        cp = CPLDS(16)
        coord = SupervisedCoordinator(
            cp, max_batch=8, max_delay=0.002,
            journal_dir=tmp_path, backoff_base=0.0, max_retries=1,
        )
        hooks = ChaosHooks()

        def attach(impl):
            impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

        attach(coord.impl)
        coord.service.post_restore = attach
        hooks.arm_crash(2, times=3)
        tickets = []
        for u in range(15):
            tickets.append(coord.submit_insert(u, u + 1))
        coord.flush()
        coord.close()
        outcomes = []
        for t in tickets:
            try:
                outcomes.append(t.wait(timeout=10.0))
            except Exception as exc:
                outcomes.append(exc)
        assert len(outcomes) == len(tickets)  # nobody hung
        assert coord.health is not HealthState.FAILED

    def test_reads_survive_recovery_concurrently(self, tmp_path):
        cp = CPLDS(16)
        coord = SupervisedCoordinator(
            cp, max_batch=4, max_delay=0.001,
            journal_dir=tmp_path, backoff_base=0.0, max_retries=2,
        )
        hooks = ChaosHooks()

        def attach(impl):
            impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

        attach(coord.impl)
        coord.service.post_restore = attach
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                try:
                    coord.read(3)
                    coord.read_tagged(7)
                except Exception as exc:  # pragma: no cover - the assertion
                    errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            hooks.arm_crash(2, times=2)
            for u in range(15):
                coord.submit_insert(u, u + 1)
            coord.flush()
        finally:
            stop.set()
            for t in threads:
                t.join()
            coord.close()
        assert errors == []

    def test_closed_coordinator_raises_typed(self, tmp_path):
        coord = SupervisedCoordinator(CPLDS(4), journal_dir=tmp_path)
        coord.close()
        with pytest.raises(CoordinatorClosedError):
            coord.submit_insert(0, 1)


class TestFaultPointProperty:
    """Satellite: whatever single move a batch dies at, post-recovery
    coreness equals a fresh-build oracle exactly."""

    @settings(max_examples=25, deadline=None)
    @given(
        fault_move=st.integers(min_value=1, max_value=12),
        times=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_any_fault_point_recovers_to_oracle(
        self, tmp_path_factory, fault_move, times, seed
    ):
        import random

        tmp = tmp_path_factory.mktemp("prop")
        rng = random.Random(seed)
        n = 14
        service, hooks = supervised(tmp, n=n, max_retries=2)
        history = []
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(edges)
        history += service.apply_batch(edges[:10]).applied
        hooks.arm_crash(fault_move, times=times)
        history += service.apply_batch(edges[10:24], edges[:3]).applied
        hooks.clear()
        assert service.health is HealthState.HEALTHY
        assert_matches_oracle(service, history)
        service.close()
