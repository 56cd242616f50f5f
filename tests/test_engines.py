"""The engine registry and the backend differential property.

The differential test is the refactor's correctness anchor: the same update
schedule driven through the same engine on the ``object`` and
``columnar-frontier`` level stores must produce identical levels, identical
coreness estimates, identical deterministic work counters
(moves/rounds/marked/DAGs) and identical invariant verdicts — through plain
batches, snapshot/restore round-trips, and supervised crash/recover cycles
alike.

DAG *roots* are deliberately not compared raw: the object engine's root
choice depends on set-iteration order within a marking round (a vertex never
becomes root of a pre-existing DAG), while the frontier engine's union-find
always picks the min-id member.  The DAG *partition* — which vertices ended
up merged — is order-independent, so the differential canonicalizes
``last_batch_dag_map`` to a sorted tuple of member groups before comparing.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.core import CPLDS
from repro.engines import CoreEngine
from repro.graph.generators import grid_road
from repro.lds.params import LDSParams
from repro.lds.store import BACKENDS
from repro.errors import (
    CheckpointCorruptError,
    JournalCorruptError,
    SelfLoopError,
    VertexOutOfRange,
)
from repro.persist import (
    BatchJournal,
    _checkpoint_checksum,
    _encode_record,
    _genesis_payload,
    load_cplds,
    save_cplds,
)
from repro.runtime.chaos import ChaosHooks
from repro.runtime.inject import HookChain, InjectionProbe, attach_probe
from repro.runtime.supervisor import JOURNAL_FILENAME, SupervisedCPLDS


def mixed_schedule(seed, n, num_batches):
    """Deterministic mixed insert/delete schedule over ``n`` vertices."""
    rng = random.Random(seed)
    live = set()
    batches = []
    for _ in range(num_batches):
        ins = []
        for _ in range(rng.randint(1, 10)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e not in live and e not in ins:
                ins.append(e)
        dels = rng.sample(sorted(live), min(len(live), rng.randint(0, 3)))
        live.update(ins)
        live.difference_update(dels)
        batches.append((ins, dels))
    return batches


class TestRegistry:
    def test_available_engines(self):
        names = engines.available()
        assert names == tuple(sorted(names))
        for name in ("cplds", "lds", "plds", "nonsync", "syncreads", "naive"):
            assert name in names

    def test_backends_listing(self):
        assert engines.backends() == BACKENDS

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="cplds"):
            engines.create("no-such-engine", 8)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            engines.create("cplds", 8, backend="no-such-backend")

    def test_lds_rejects_executor(self):
        class FakeExecutor:
            pass

        with pytest.raises(ValueError):
            engines.create("lds", 8, executor=FakeExecutor())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            engines.register("cplds", lambda *a, **k: None)
        # replace=True is the explicit override (restore the original after).
        original = engines._FACTORIES["cplds"]
        try:
            engines.register("cplds", original, replace=True)
        finally:
            engines._FACTORIES["cplds"] = original

    @pytest.mark.parametrize("name", ["cplds", "plds", "lds", "nonsync",
                                      "syncreads", "naive"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_engine_satisfies_core_engine(self, name, backend):
        impl = engines.create(name, 10, backend=backend)
        assert isinstance(impl, CoreEngine)
        assert impl.backend == backend
        impl.insert_batch([(0, 1), (1, 2)])
        assert impl.read(1) >= 1.0
        assert len(impl.levels()) == 10
        impl.delete_batch([(0, 1)])

    def test_params_threaded_through(self):
        params = LDSParams(12, levels_per_group=4)
        impl = engines.create(
            "cplds", 12, params=params, backend="columnar-frontier"
        )
        assert impl.params is params


class TestBackendDifferential:
    @pytest.mark.parametrize("engine", ["cplds", "plds", "nonsync", "naive"])
    def test_same_schedule_same_state(self, engine):
        n = 24
        impls = {
            be: engines.create(engine, n, backend=be) for be in BACKENDS
        }
        for ins, dels in mixed_schedule(11, n, 25):
            for impl in impls.values():
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            obj = impls["object"]
            obj_levels = list(obj.levels())
            obj_reads = [obj.read(v) for v in range(n)]
            for be in BACKENDS[1:]:
                other = impls[be]
                assert list(other.levels()) == obj_levels, be
                assert [other.read(v) for v in range(n)] == obj_reads, be
        for impl in impls.values():
            impl.check_invariants()

    def test_snapshot_restore_round_trip(self):
        n = 20
        for be in BACKENDS:
            impl = engines.create("cplds", n, backend=be)
            schedule = mixed_schedule(5, n, 12)
            for ins, dels in schedule[:6]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            snap = impl.snapshot_state()
            levels_at_snap = list(impl.levels())
            for ins, dels in schedule[6:]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            impl.restore_state(snap)
            assert list(impl.levels()) == levels_at_snap
            impl.check_invariants()
            # The restored structure keeps working.
            for ins, dels in schedule[6:]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            impl.check_invariants()

    def test_restore_diverge_reconverge(self):
        """Restoring both backends to the same snapshot point and replaying
        the same suffix must keep them identical."""
        n = 18
        schedule = mixed_schedule(7, n, 14)
        finals = {}
        for be in BACKENDS:
            impl = engines.create("cplds", n, backend=be)
            for ins, dels in schedule[:7]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            snap = impl.snapshot_state()
            impl.insert_batch([(0, 1), (2, 3)])  # divergence to undo
            impl.restore_state(snap)
            for ins, dels in schedule[7:]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            impl.check_invariants()
            finals[be] = list(impl.levels())
        assert len({tuple(v) for v in finals.values()}) == 1


def canonical_dag_partition(dag_map):
    """Order-independent view of a batch's DAG merges.

    Groups ``last_batch_dag_map`` members by root and drops the root ids
    themselves (they are construction-order artefacts in the object engine);
    what must agree across backends is *which* vertices merged together.
    """
    groups: dict = {}
    for v, root in dag_map.items():
        groups.setdefault(root, []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


_VERTS = 16
_edge = (
    st.tuples(st.integers(0, _VERTS - 1), st.integers(0, _VERTS - 1))
    .filter(lambda e: e[0] != e[1])
    .map(lambda e: (min(e), max(e)))
)
_batch = st.tuples(
    st.lists(_edge, max_size=10, unique=True),
    st.lists(st.integers(0, 10_000), max_size=3),
)


class TestHypothesisDifferential:
    """Property form of the backend differential, on both backends.

    Beyond levels and reads, this asserts the *work counters* the CI bench
    gate keys on (moves, rounds, marked vertices, DAG count) are
    bit-identical per phase, and that the DAG partitions match canonically —
    the frontier engine's claim is "same algorithm, array execution", so
    every deterministic observable must agree, not just the final state.
    """

    @settings(max_examples=25, deadline=None)
    @given(batches=st.lists(_batch, min_size=1, max_size=10))
    def test_backends_bit_identical(self, batches):
        n = _VERTS
        impls = {be: engines.create("cplds", n, backend=be) for be in BACKENDS}
        live: set = set()
        for ins, del_picks in batches:
            ins = [e for e in ins if e not in live]
            pool = sorted(live)
            dels = sorted({pool[i % len(pool)] for i in del_picks}) if pool else []
            live.update(ins)
            live.difference_update(dels)

            for phase_edges, apply in ((ins, "insert_batch"), (dels, "delete_batch")):
                observed = {}
                for be, impl in impls.items():
                    getattr(impl, apply)(phase_edges)
                    observed[be] = {
                        "levels": list(impl.levels()),
                        "reads": [impl.read(v) for v in range(n)],
                        "moves": impl.plds.last_batch_moves,
                        "rounds": impl.plds.last_batch_rounds,
                        "marked": impl.last_batch_marked,
                        "dags": impl.last_batch_dags,
                        "partition": canonical_dag_partition(
                            impl.last_batch_dag_map
                        ),
                    }
                for be in BACKENDS[1:]:
                    assert observed[be] == observed["object"], (be, apply)

        # Snapshots: backend-specific payloads, backend-neutral content.
        snaps = {be: impl.snapshot_state() for be, impl in impls.items()}
        for be in BACKENDS[1:]:
            assert (
                snaps[be]["plds"]["edges"] == snaps["object"]["plds"]["edges"]
            )
            assert snaps[be]["batch_number"] == snaps["object"]["batch_number"]
        for be, impl in impls.items():
            impl.insert_batch([(0, 1), (1, 2)])  # diverge...
            impl.restore_state(snaps[be])  # ...and come back
            impl.check_invariants()
        final = {be: list(impl.levels()) for be, impl in impls.items()}
        assert len({tuple(v) for v in final.values()}) == 1


class TestPairBufferBound:
    def test_buffer_stays_bounded_and_unions_match(self, monkeypatch):
        from repro.core import frontier
        from repro.unionfind.vectorized import VectorizedUnionFind

        class Probe(frontier.FrontierMarkingHooks):
            """Records the peak of the buffered rows over round boundaries."""

            def __init__(self, cp):
                super().__init__(cp)
                self.peak = 0

            def round_boundary(self):
                rows = sum(a.size for a, _ in self._pair_chunks)
                self.peak = max(self.peak, rows)

        class Unfiltered(Probe):
            """Buffers every triggered row, once per round that derives it."""

            def _buffer_pairs(self, rows, src, flat, pos):
                self._pair_chunks.append((src[rows], flat[rows]))

        unions: dict = {}
        union_pairs = VectorizedUnionFind.union_pairs

        def record(uf, a, b):
            unions.setdefault(id(uf), []).append(a * len(uf.parent) + b)
            union_pairs(uf, a, b)

        monkeypatch.setattr(VectorizedUnionFind, "union_pairs", record)
        # A 40-clique inserted as one batch climbs ~60 levels in lockstep.
        # On the way it lifts an 8-clique built by an earlier batch for a
        # few rounds, so that clique's pairs are derived early and are not
        # batch edges: only the first buffering of their rows carries them
        # to the union.  A cohort that climbs unchanged reuses its rows
        # without the co-mover ones and derives its pairs once (the
        # 8-clique's own climb in the first batch), but the 40-clique's
        # cohort changes twice, as the 8-clique joins it and leaves it, and
        # each change re-derives its 780 co-mover pairs.
        n = 56
        small = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        tail = [(7, 8)] + [(v, v + 1) for v in range(47, n - 1)]
        clique = [(u, v) for u in range(8, 48) for v in range(u + 1, 48)]
        links = [(i, 8 + i) for i in range(8)] + [(i, 16 + i) for i in range(8)]
        params = LDSParams(n, levels_per_group=4)
        impls = {
            "object": engines.create("cplds", n, backend="object", params=params),
            "filtered": engines.create(
                "cplds", n, backend="columnar-frontier", params=params
            ),
            "unfiltered": engines.create(
                "cplds", n, backend="columnar-frontier", params=params
            ),
        }
        probes = {}
        for name, hooks in (("filtered", Probe), ("unfiltered", Unfiltered)):
            probes[name] = impls[name].plds.hooks = hooks(impls[name])
        for apply, edges, rebuffers in (
            ("insert_batch", small + tail, False),
            ("insert_batch", clique + links, True),
            ("delete_batch", clique[::2], False),
        ):
            observed = {}
            for name, impl in impls.items():
                getattr(impl, apply)(edges)
                observed[name] = (
                    impl.last_batch_marked,
                    impl.last_batch_dags,
                    canonical_dag_partition(impl.last_batch_dag_map),
                )
            assert observed["filtered"] == observed["object"], apply
            assert observed["unfiltered"] == observed["object"], apply
            # The phase's CSR positions: the graph after the phase's edges.
            positions = 2 * impls["object"].graph.num_edges
            assert probes["filtered"].peak <= positions, apply
            # A climb whose cohort changes re-derives its pairs past
            # the CSR size; the filtered buffer holds each row once.
            assert (probes["unfiltered"].peak > positions) == rebuffers, apply
            for probe in probes.values():
                probe.peak = 0
        # The same key set reaches the union in every phase.
        filtered = unions[id(impls["filtered"]._uf)]
        unfiltered = unions[id(impls["unfiltered"]._uf)]
        assert len(filtered) == len(unfiltered) > 0
        for got, want in zip(filtered, unfiltered):
            assert np.array_equal(got, want)
        impls["filtered"].check_invariants()


class TestChainedObserversKeepBulkMarking:
    """A chain whose later hooks only watch boundaries keeps the frontier
    engine on whole-frontier marking; a chain that watches moves does not."""

    @staticmethod
    def _run(probe: bool):
        from repro.core.frontier import _hook_mode

        n = 24
        impl = engines.create(
            "cplds", n, backend="columnar-frontier",
            params=LDSParams(n, levels_per_group=4),
        )
        points = []
        if probe:
            attach_probe(impl, InjectionProbe(points.append, at_end=True))
        # A 16-clique climbs in lock-step rounds far above the scalar
        # cut-off, then the mixed batches tear parts of it down.
        clique16 = [(u, v) for u in range(16) for v in range(u + 1, 16)]
        batches = [(clique16, [])] + mixed_schedule(5, n, 12)
        batches.append(([], clique16[::2]))
        observed = []
        for ins, dels in batches:
            for edges, apply in ((ins, impl.insert_batch), (dels, impl.delete_batch)):
                apply(edges)
                observed.append((
                    impl.plds.last_batch_moves,
                    impl.last_batch_marked,
                    impl.last_batch_dags,
                    canonical_dag_partition(impl.last_batch_dag_map),
                ))
        impl.check_invariants()
        return _hook_mode(impl.plds.hooks), observed, impl.levels(), points

    def test_probe_chain_marks_in_bulk_with_identical_results(self):
        mode, observed, levels, points = self._run(probe=True)
        plain_mode, plain_observed, plain_levels, _ = self._run(probe=False)
        assert mode == plain_mode == "bulk"
        assert points  # the probe did observe the batches
        assert observed == plain_observed
        assert levels == plain_levels
        assert max(moves for moves, *_ in observed) > 16  # bulk rounds ran

    def test_chain_watching_moves_stays_scalar(self):
        from repro.core.frontier import _hook_mode

        impl = engines.create("cplds", 8, backend="columnar-frontier")
        impl.plds.hooks = HookChain(impl.plds.hooks, ChaosHooks())
        assert _hook_mode(impl.plds.hooks) == "scalar"
        probed = engines.create("cplds", 8, backend="columnar-frontier")
        attach_probe(probed, InjectionProbe(lambda _tag: None))
        probed.plds.hooks = HookChain(probed.plds.hooks, ChaosHooks())
        assert _hook_mode(probed.plds.hooks) == "scalar"

    @pytest.mark.parametrize("engine", ["nonsync", "syncreads"])
    def test_baseline_batch_counter_does_no_per_mover_work(self, engine):
        from repro.core.frontier import _hook_mode

        impl = engines.create(engine, 8, backend="columnar-frontier")
        assert _hook_mode(impl.plds.hooks) == "noop"
        impl.apply_batch(insertions=[(0, 1), (1, 2)], deletions=[(0, 1)])
        assert impl.batch_number == 2  # one per phase, as on the CPLDS


def _clique(lo, hi):
    return [(u, v) for u in range(lo, hi) for v in range(u + 1, hi)]


class TestCohortRowReuse:
    """An insert round whose movers are the previous round's reuses that
    round's rows instead of gathering them again; every round-boundary
    state must still be the object engine's."""

    # A 24-clique climbs ~50 levels in lock-step, carrying a pendant path
    # whose rows fall below the cohort and drop out of the kept rows.  The
    # first batch leaves a 6-clique at level 20 and a 10-clique at 32.
    # The 6-clique (two links a vertex) joins the cohort and leaves it
    # marked at 28; the 10-clique (one link a vertex) has room for one
    # more up-neighbour, so it stays put while the cohort climbs through
    # its level with the same movers: reused rows at, one above and two
    # above the round's level all change counters.
    n = 50
    first = _clique(0, 6) + _clique(6, 16)
    batch = (
        _clique(16, 40)
        + [(39, 40)] + [(v, v + 1) for v in range(40, 49)]
        + [(i, 16 + i) for i in range(6)] + [(i, 22 + i) for i in range(6)]
        + [(6 + j, 28 + j) for j in range(10)]
    )

    @classmethod
    def _run(cls, backend):
        from repro.core.frontier import _hook_mode

        n = cls.n
        impl = engines.create(
            "cplds", n, backend=backend, params=LDSParams(n, levels_per_group=4)
        )
        impl.insert_batch(cls.first)
        state = impl.plds.state

        def marked():
            if backend == "object":
                return [v for v in range(n) if impl.descriptors.is_marked(v)]
            return np.flatnonzero(impl._marked).tolist()

        boundaries = []

        def observe(_tag):
            state.assert_counters_consistent()
            boundaries.append((
                list(impl.levels()),
                [int(d) for d in state.up_deg],
                [state.satisfies_invariant1(v) for v in range(n)],
                [state.satisfies_invariant2(v) for v in range(n)],
                marked(),
            ))

        attach_probe(impl, InjectionProbe(observe))
        if backend == "columnar-frontier":
            assert _hook_mode(impl.plds.hooks) == "bulk"
        impl.insert_batch(cls.batch)
        impl.check_invariants()
        return impl, boundaries

    def test_round_boundaries_match_the_object_engine(self):
        obj, obj_bounds = self._run("object")
        frt, frt_bounds = self._run("columnar-frontier")
        assert len(frt_bounds) > 30  # the climb ran, one boundary a round
        assert frt_bounds == obj_bounds
        phase_end = [
            (
                impl.plds.last_batch_rounds,
                impl.plds.last_batch_moves,
                impl.last_batch_marked,
                impl.last_batch_dags,
                canonical_dag_partition(impl.last_batch_dag_map),
            )
            for impl in (obj, frt)
        ]
        assert phase_end[0] == phase_end[1]

    def test_repeated_cohort_is_gathered_once(self, monkeypatch):
        from repro.lds.store import FrontierLevelStore

        calls = {"gather": 0, "raise": 0}

        def counting(name, method):
            def spy(self, *args):
                calls[name] += 1
                return method(self, *args)

            return spy

        monkeypatch.setattr(
            FrontierLevelStore, "gather_round",
            counting("gather", FrontierLevelStore.gather_round),
        )
        # One bulk_raise_level_rows call per array round.
        monkeypatch.setattr(
            FrontierLevelStore, "bulk_raise_level_rows",
            counting("raise", FrontierLevelStore.bulk_raise_level_rows),
        )
        self._run("columnar-frontier")
        assert calls["raise"] > 30
        assert calls["gather"] < calls["raise"] // 4


class TestInvalidEdgesRejectedWhole:
    """A batch with a bad edge raises a typed error before anything moves:
    no half-applied edges, levels, counters or batch number (the filter
    validates), and the structure still checks out intact."""

    @staticmethod
    def _state(impl):
        graph = impl.graph
        counters = impl.plds.state.snapshot()
        return (
            sorted(graph.edges()),
            graph.num_edges,
            list(impl.levels()),
            [np.asarray(part).tolist() for part in counters],
        )

    @pytest.mark.parametrize(
        "engine,backend",
        [
            ("cplds", "object"),
            ("cplds", "columnar-frontier"),
            ("nonsync", "object"),
            ("syncreads", "object"),
        ],
    )
    @pytest.mark.parametrize(
        "bad,error",
        [
            ([(0, 1), (2, 9)], VertexOutOfRange),  # larger endpoint out of range
            ([(7, 9)], VertexOutOfRange),  # smaller endpoint out of range
            ([(0, 1), (-1, 2)], VertexOutOfRange),  # negative vertex
            ([(0, 1), (3, 3)], SelfLoopError),
        ],
    )
    def test_bad_edge_changes_nothing(self, engine, backend, bad, error):
        impl = engines.create(engine, 5, backend=backend)
        impl.insert_batch([(1, 2), (2, 3), (1, 3), (3, 4)])
        before = self._state(impl)
        batch_number = impl.batch_number
        attempts = (
            lambda: impl.insert_batch(bad),
            lambda: impl.delete_batch(bad),
            # Both sub-batches are validated before either phase runs.
            lambda: impl.apply_batch(insertions=[(0, 4)], deletions=bad),
            lambda: impl.apply_batch(insertions=bad, deletions=[(1, 2)]),
        )
        for attempt in attempts:
            with pytest.raises(error):
                attempt()
            assert self._state(impl) == before
            assert impl.batch_number == batch_number
            impl.check_invariants()

    def test_edge_in_both_sub_batches_is_inserted_then_deleted(self):
        for backend in BACKENDS:
            impl = engines.create("cplds", 5, backend=backend)
            impl.insert_batch([(1, 2)])
            assert impl.apply_batch(
                insertions=[(0, 1), (2, 1)], deletions=[(1, 0), (1, 2)]
            ) == (1, 2)
            assert impl.graph.num_edges == 0
            impl.check_invariants()


def test_round_drivers_release_the_gil_only_beside_other_threads():
    import math
    import threading
    import time

    from repro.core import frontier

    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        before = time.perf_counter()
        due = frontier._next_yield()
        assert before < due <= time.perf_counter() + frontier._READER_YIELD_S
    finally:
        stop.set()
        other.join(timeout=5)
    assert not other.is_alive()
    if threading.active_count() == 1:
        assert frontier._next_yield() == math.inf


class TestSupervisedDifferential:
    def _run(self, backend, tmp_path, journaled):
        n = 20
        hooks = ChaosHooks()

        def attach(impl: CPLDS) -> None:
            impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

        service = SupervisedCPLDS(
            engines.create("cplds", n, backend=backend),
            journal_dir=str(tmp_path / backend) if journaled else None,
            checkpoint_every=3,
            max_retries=2,
            backoff_base=0.0,
        )
        attach(service.impl)
        service.post_restore = attach

        trace = []
        for i, (ins, dels) in enumerate(mixed_schedule(3, n, 10)):
            if i in (2, 5):
                # One crash within the retry budget, one forcing bisection.
                hooks.arm_crash(after_moves=1, times=1 if i == 2 else 4)
            outcome = service.apply_batch(ins, dels)
            hooks.clear()
            trace.append(
                (
                    [(r.insertions, r.deletions) for r in outcome.applied],
                    len(outcome.dropped),
                    [service.read(v) for v in range(n)],
                )
            )
        service.impl.check_invariants()
        levels = list(service.impl.levels())
        recoveries = service.telemetry.recoveries
        service.close()
        return trace, levels, recoveries

    @pytest.mark.parametrize("journaled", [True, False])
    def test_crash_recover_identical_across_backends(self, tmp_path, journaled):
        runs = {
            be: self._run(be, tmp_path, journaled) for be in BACKENDS
        }
        for be in BACKENDS[1:]:
            assert runs[be] == runs["object"], be
        assert runs["object"][2] > 0, "schedule never exercised recovery"

    def test_reopen_preserves_backend(self, tmp_path):
        for be in BACKENDS:
            d = tmp_path / be
            service = SupervisedCPLDS(
                engines.create("cplds", 12, backend=be),
                journal_dir=str(d),
            )
            service.apply_batch([(0, 1), (1, 2), (2, 3)], [])
            levels = list(service.impl.levels())
            service._journal.close()  # simulated process death
            service, report = SupervisedCPLDS.open(str(d))
            assert service.impl.backend == be
            assert list(service.impl.levels()) == levels
            assert report.recovered_through == 1
            service.close()


class TestPersistBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_round_trip(self, tmp_path, backend):
        impl = engines.create("cplds", 16, backend=backend)
        for ins, dels in mixed_schedule(9, 16, 8):
            impl.insert_batch(ins)
            impl.delete_batch(dels)
        path = tmp_path / "ckpt.npz"
        save_cplds(impl, path)
        restored = load_cplds(path)
        assert restored.backend == backend
        assert list(restored.levels()) == list(impl.levels())
        assert restored.batch_number == impl.batch_number

    def test_v2_checkpoint_still_loads(self, tmp_path):
        """A hand-written version-2 archive (no backend field, v2 checksum)
        restores onto the object backend."""
        reference = engines.create("cplds", 8)
        reference.insert_batch([(0, 1), (1, 2), (2, 3), (0, 2)])
        path = tmp_path / "v2.npz"
        _write_checkpoint(path, reference, None)
        restored = load_cplds(path)
        assert restored.backend == "object"
        assert list(restored.levels()) == list(reference.levels())

    @pytest.mark.parametrize("stored_name", [None, "object", "columnar-frontier"])
    def test_v2_v3_archives_load_like_v4(self, tmp_path, stored_name):
        """Archives in the earlier edge layout (``int64`` pairs) still load,
        to the same levels, batch counter and edges as a current save."""
        impl = engines.create("cplds", 16, backend=stored_name or "object")
        for ins, dels in mixed_schedule(9, 16, 8):
            impl.insert_batch(ins)
            impl.delete_batch(dels)
        _write_checkpoint(tmp_path / "old.npz", impl, stored_name)
        save_cplds(impl, tmp_path / "new.npz")
        old, new = load_cplds(tmp_path / "old.npz"), load_cplds(tmp_path / "new.npz")
        assert list(old.levels()) == list(new.levels()) == list(impl.levels())
        assert old.batch_number == new.batch_number == impl.batch_number
        assert sorted(old.graph.edges()) == sorted(new.graph.edges())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_v4_archive_is_a_quarter_of_v3(self, tmp_path, backend):
        """Size pin: a preloaded 60 x 60 road grid checkpoints in at most a
        quarter of the bytes of the same state in the version-3 layout."""
        impl = engines.create("cplds", 3600, backend=backend)
        impl.insert_batch(grid_road(60, 60, seed=1))
        _write_checkpoint(tmp_path / "v3.npz", impl, backend)
        save_cplds(impl, tmp_path / "v4.npz")
        v3 = (tmp_path / "v3.npz").stat().st_size
        v4 = (tmp_path / "v4.npz").stat().st_size
        assert 4 * v4 <= v3, f"v4 {v4} B against v3 {v3} B"


def _write_checkpoint(path, impl, stored_name, checksum_name=None):
    """A hand-written archive of ``impl``'s state: version 3 naming
    ``stored_name`` as its backend and checksummed over ``checksum_name``
    (default: the same name), or version 2 (no backend field, version-2
    checksum) when ``stored_name`` is None."""
    edges = np.asarray(list(impl.graph.edges()), dtype=np.int64).reshape(-1, 2)
    levels = np.asarray(impl.levels(), dtype=np.int64)
    p = impl.params
    n = impl.graph.num_vertices
    checksum = _checkpoint_checksum(
        n, edges, levels, impl.batch_number, p.delta, p.lam, p.group_height,
        stored_name if checksum_name is None else checksum_name,
    )
    fields = {} if stored_name is None else {"backend": np.str_(stored_name)}
    np.savez_compressed(
        path,
        format_version=np.int64(2 if stored_name is None else 3),
        num_vertices=np.int64(n),
        edges=edges,
        levels=levels,
        batch_number=np.int64(impl.batch_number),
        delta=np.float64(p.delta),
        lam=np.float64(p.lam),
        group_height=np.int64(p.group_height),
        checksum=np.uint32(checksum),
        **fields,
    )


class TestRetiredColumnarName:
    """State stored under the retired ``"columnar"`` backend name (written
    by releases that still had the plain columnar store) restores onto
    ``columnar-frontier``, with the same levels as an ``object`` restore."""

    N = 16

    def _reference(self):
        impl = engines.create("cplds", self.N)
        schedule = mixed_schedule(9, self.N, 8)
        for ins, dels in schedule:
            impl.insert_batch(ins)
            impl.delete_batch(dels)
        return impl, schedule

    def test_checkpoint_restores_onto_frontier(self, tmp_path):
        impl, _ = self._reference()
        _write_checkpoint(tmp_path / "old.npz", impl, "columnar")
        _write_checkpoint(tmp_path / "obj.npz", impl, "object")
        restored = load_cplds(tmp_path / "old.npz")
        reference = load_cplds(tmp_path / "obj.npz")
        assert restored.backend == "columnar-frontier"
        assert type(restored).__name__ == "FrontierCPLDS"
        assert list(restored.levels()) == list(reference.levels())
        assert restored.batch_number == reference.batch_number
        # A re-save records the backend the state now runs on.
        save_cplds(restored, tmp_path / "resaved.npz")
        with np.load(tmp_path / "resaved.npz") as data:
            assert str(data["backend"]) == "columnar-frontier"
        assert load_cplds(tmp_path / "resaved.npz").backend == "columnar-frontier"

    def test_tampered_name_fails_checksum(self, tmp_path):
        impl, _ = self._reference()
        path = tmp_path / "tampered.npz"
        _write_checkpoint(path, impl, "columnar-frontier", "columnar")
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_cplds(path)

    def test_unknown_checkpoint_name_is_typed(self, tmp_path):
        impl, _ = self._reference()
        path = tmp_path / "bogus.npz"
        _write_checkpoint(path, impl, "bogus-store")
        with pytest.raises(CheckpointCorruptError, match="bogus-store"):
            load_cplds(path)

    def _open(self, directory):
        service, report = SupervisedCPLDS.open(str(directory))
        levels = list(service.impl.levels())
        backend = service.impl.backend
        service.close()
        genesis = BatchJournal.scan(directory / JOURNAL_FILENAME).genesis
        return backend, levels, genesis["backend"], report

    def test_genesis_only_journal_restores_onto_frontier(self, tmp_path):
        impl, schedule = self._reference()
        d = tmp_path / "state"
        d.mkdir()
        with BatchJournal.create(
            d / JOURNAL_FILENAME, num_vertices=self.N, params=impl.params,
            backend="columnar",
        ) as journal:
            for ins, dels in schedule:
                journal.commit(journal.append_batch(ins, []))
                journal.commit(journal.append_batch([], dels))
        backend, levels, resaved, report = self._open(d)
        assert backend == "columnar-frontier"
        assert levels == list(impl.levels())
        assert report.replayed == 2 * len(schedule)
        assert resaved == "columnar-frontier"

    def test_snapshot_journal_restores_onto_frontier(self, tmp_path):
        impl, _ = self._reference()
        d = tmp_path / "state"
        d.mkdir()
        snapshot = {
            "type": "snapshot",
            "seq": 5,
            "batch_number": impl.batch_number,
            "levels": list(impl.levels()),
            "edges": [list(e) for e in impl.graph.edges()],
        }
        genesis = _genesis_payload(self.N, impl.params, "columnar")
        (d / JOURNAL_FILENAME).write_bytes(
            _encode_record(genesis) + _encode_record(snapshot)
        )
        backend, levels, resaved, report = self._open(d)
        assert backend == "columnar-frontier"
        assert levels == list(impl.levels())
        assert report.recovered_through == 5
        assert resaved == "columnar-frontier"

    def test_unknown_genesis_name_is_typed(self, tmp_path):
        d = tmp_path / "state"
        d.mkdir()
        BatchJournal.create(
            d / JOURNAL_FILENAME, num_vertices=8, params=LDSParams(8),
            backend="bogus-store",
        ).close()
        with pytest.raises(JournalCorruptError, match="bogus-store"):
            SupervisedCPLDS.open(str(d))
