"""The paper's named claims, one executable check each (the claims ledger).

Each test quotes the claim it verifies (section in parentheses) and checks
it at test scale.  Heavier, statistics-grade versions of the performance
claims live in ``benchmarks/``; this file is the quick, deterministic
ledger a reviewer can run in seconds.
"""

import pytest

from repro import engines
from repro.core import CPLDS, NonSyncKCore
from repro.exact import core_decomposition
from repro.graph import generators as gen
from repro.lds import LDS, LDSParams
from repro.lds.coreness import approximation_factor
from repro.runtime.inject import InjectionProbe, attach_probe
from repro.runtime.stepping import InterleavedScheduler
from repro.verify import LinearizabilityChecker, RecordedKCore
from repro.workloads import BatchStream
from repro.workloads.adversarial import clique_edges


class TestSection3Claims:
    def test_lds_maintains_2_plus_eps_approximation(self):
        """(§3.1) "maintains a (2+ε)-approximate coreness value for each
        vertex in the graph for any constant ε > 0"."""
        n = 80
        lds = LDS(n)
        lds.insert_edges(gen.chung_lu(n, 320, seed=1))
        exact = core_decomposition(lds.graph)
        bound = lds.params.theoretical_approximation_factor()
        for v in range(n):
            if exact[v] >= 1:
                assert approximation_factor(
                    lds.coreness_estimate(v), int(exact[v])
                ) <= bound + 1e-9

    def test_insertions_only_violate_invariant_1(self):
        """(§3.1) "inserting more edges into the graph may only cause
        vertices to violate the first invariant, but not the second"."""
        n = 30
        lds = LDS(n)
        lds.insert_edges(gen.erdos_renyi(n, 90, seed=2))
        state = lds.state
        # Apply a fresh insertion *without* rebalancing and check only
        # Invariant 1 can now fail.
        for u, v in gen.erdos_renyi(n, 30, seed=3):
            if lds.graph.insert_edge(u, v):
                state.on_edge_inserted(u, v)
        for w in range(n):
            assert state.satisfies_invariant2(w), (
                "an insertion broke Invariant 2"
            )

    def test_deletions_only_violate_invariant_2(self):
        """(§3.1) symmetric claim for deletions."""
        n = 30
        lds = LDS(n)
        edges = gen.erdos_renyi(n, 120, seed=4)
        lds.insert_edges(edges)
        state = lds.state
        for u, v in edges[::3]:
            if lds.graph.delete_edge(u, v):
                state.on_edge_deleted(u, v)
        for w in range(n):
            assert state.satisfies_invariant1(w), (
                "a deletion broke Invariant 1"
            )

    def test_insertion_phase_visits_each_level_once(self):
        """(§3.2) "after vertices move up from level ℓ, no future step in
        the current batch moves a vertex up from level ℓ"."""
        from repro.lds.plds import PLDS, UpdateHooks

        moves_from = []

        class Spy(UpdateHooks):
            def before_move(self, v, old, new, phase):
                moves_from.append(old)

        plds = PLDS(12, hooks=Spy())
        plds.batch_insert(clique_edges(12))
        # All moves out of a level are contiguous in the move sequence.
        seen_done = set()
        prev = None
        for lvl in moves_from:
            if lvl != prev:
                assert lvl not in seen_done, f"level {lvl} revisited"
                if prev is not None:
                    seen_done.add(prev)
                prev = lvl


class TestSection5Claims:
    def test_descriptor_published_before_level_change(self):
        """(§5.2) marking happens before the move: a reader that sees a
        moved (non-pre-batch) live level must find the vertex marked."""
        n = 10
        cp = CPLDS(n)
        cp.insert_batch(clique_edges(10)[:20])
        pre = cp.levels()
        bad = []

        def on_point(_tag):
            for v in range(n):
                lvl = cp.plds.state.level[v]
                if lvl != pre[v] and cp.descriptors.get(v) is None:
                    bad.append((v, lvl))

        attach_probe(cp, InjectionProbe(on_point))
        cp.insert_batch(clique_edges(10)[20:])
        assert not bad, f"unmarked vertices observed off their old level: {bad}"

    def test_old_level_is_pre_batch_level(self):
        """(§5.2) "populate its old_level field with v's current level,
        before v moves" — and it never changes within the batch."""
        n = 10
        cp = CPLDS(n)
        cp.insert_batch(clique_edges(10)[:20])
        pre = cp.levels()
        mismatches = []

        def on_point(_tag):
            for v in range(n):
                d = cp.descriptors.get(v)
                if d is not None and d.old_level != pre[v]:
                    mismatches.append(v)

        attach_probe(cp, InjectionProbe(on_point))
        cp.insert_batch(clique_edges(10)[20:])
        assert not mismatches

    def test_lemma_6_3_no_edge_crosses_dags(self):
        """(Lemma 6.3) an updated edge whose endpoints both move stays
        inside one DAG."""
        n = 12
        cp = CPLDS(n)
        edges = clique_edges(n)
        cp.insert_batch(edges[:30])
        batch = edges[30:]
        cp.insert_batch(batch)
        dag = cp.last_batch_dag_map
        for u, v in batch:
            if u in dag and v in dag:
                assert dag[u] == dag[v]


class TestSection6Claims:
    def test_theorem_6_1_linearizable(self):
        """(Theorem 6.1) "Our algorithm is linearizable" — adversarial
        deterministic schedule, zero violations."""
        n = 10
        cp = CPLDS(n)
        rec = RecordedKCore(cp)

        def on_point(_tag):
            for v in range(n):
                rec.read(v)

        attach_probe(cp, InjectionProbe(on_point, at_begin=True, at_end=True))
        rec.insert_batch(clique_edges(n))
        rec.delete_batch(clique_edges(n)[::2])
        assert LinearizabilityChecker(rec.history).violations() == []

    def test_theorem_6_1_reads_lock_free(self):
        """(§6.2) reads retry only when an update progressed (batch number
        advanced or live level changed)."""
        n = 12
        for backend in engines.backends():
            stream = BatchStream.insert_then_delete(
                "claims", n, clique_edges(n), 12
            )
            impl = engines.create("cplds", n, backend=backend)
            sched = InterleavedScheduler(impl, num_readers=6, seed=1)
            for r in sched.run(stream):
                assert len(r.retry_causes) == r.retries
                assert set(r.retry_causes) <= {"batch", "level"}

    def test_6_3_unsynchronized_error_grows_with_jump(self):
        """(§6.3) "the error could be unbounded": NonSync's worst error
        grows with the per-batch group jump; CPLDS's does not."""
        from repro.harness.experiments import fig6_flash

        rows = fig6_flash(clique_sizes=(20, 50), sample_stride=5)
        ns = {r.clique_size: r.max_error for r in rows if r.impl == "nonsync"}
        cp = {r.clique_size: r.max_error for r in rows if r.impl == "cplds"}
        assert ns[50] > ns[20] > 1.5
        assert all(err <= 2.81 for err in cp.values())


class TestSection7Claims:
    """Wall-clock ratios, each side's best of ``TRIALS`` interleaved
    passes: one host stall lands in one pass of one side, not the
    ratio."""

    TRIALS = 5

    def _best_of(self, timed):
        """Per-kind minimum over interleaved rounds of ``timed(kind)``."""
        best = {}
        for _ in range(self.TRIALS):
            for kind in ("nonsync", "cplds"):
                t = timed(kind)
                best[kind] = min(best.get(kind, t), t)
        return best

    def test_update_overhead_factor(self):
        """(§7/abstract) "adding asynchronous reads only increases the
        update time by a factor of at most 1.48" — same order here (the
        Python trigger scan costs relatively more; see EXPERIMENTS.md)."""
        import time

        n = 400
        edges = gen.chung_lu(n, 2000, seed=7)
        params = LDSParams(n, levels_per_group=20)
        kinds = {"nonsync": NonSyncKCore, "cplds": CPLDS}

        def timed(kind):
            impl = kinds[kind](n, params=params)
            t0 = time.perf_counter()
            for i in range(0, len(edges), 500):
                impl.insert_batch(edges[i : i + 500])
            return time.perf_counter() - t0

        t = self._best_of(timed)
        assert t["cplds"] <= 3.0 * t["nonsync"]

    def test_read_overhead_factor(self):
        """(§7/abstract) "our read latency overhead is only up to a
        3.21-factor greater" than NonSync (quiescent microbenchmark)."""
        import time

        n = 300
        edges = gen.chung_lu(n, 1500, seed=8)
        params = LDSParams(n, levels_per_group=20)
        impls = {
            "cplds": CPLDS(n, params=params),
            "nonsync": NonSyncKCore(n, params=params),
        }
        for impl in impls.values():
            impl.insert_batch(edges)
        reps = 20_000

        def timed(kind):
            impl = impls[kind]
            t0 = time.perf_counter()
            for v in range(reps):
                impl.read(v % n)
            return time.perf_counter() - t0

        t = self._best_of(timed)
        ratio = t["cplds"] / t["nonsync"]
        assert ratio <= 3.5, f"read overhead {ratio:.2f}x out of band"
