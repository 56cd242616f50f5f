"""Step-level interleaving tests of the read protocol (Algorithm 4).

Every stepped test runs on both CPLDS engines: the one protocol generator
(:func:`repro.core.cplds.read_steps`) drives the object engine's descriptor
check and the frontier engine's ``marked``/``parent`` walk alike.
"""

import pytest

from repro import engines
from repro.core import CPLDS
from repro.core.frontier import _hook_mode
from repro.core.naive import NaiveMarkedKCore
from repro.graph import generators as gen
from repro.lds.params import LDSParams
from repro.runtime.inject import InjectionProbe, attach_probe
from repro.runtime.stepping import InterleavedScheduler, SteppedRead
from repro.workloads import BatchStream


def clique(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def cplds(n, backend, params=None):
    return engines.create("cplds", n, backend=backend, params=params)


class TestSteppedRead:
    def test_quiescent_read_completes(self):
        for backend in engines.backends():
            cp = cplds(4, backend)
            cp.insert_batch([(0, 1), (1, 2), (0, 2)])
            read = SteppedRead(cp, 0)
            result = read.advance(100)
            assert result is not None
            assert result.retries == 0
            assert result.estimate == cp.read(0)

    def test_object_attempt_is_six_steps(self):
        """b1, l1, descriptor fetch, check_DAG, l2, b2 — one step each."""
        cp = CPLDS(4)
        cp.insert_batch([(0, 1), (1, 2), (0, 2)])
        assert SteppedRead(cp, 0).advance(100).steps == 6

    def test_partial_advance_returns_none(self):
        for backend in engines.backends():
            read = SteppedRead(cplds(4, backend), 0)
            assert read.advance(2) is None
            assert read.advance(100) is not None

    def test_batch_number_change_forces_retry(self):
        """Suspend a reader after its first collect, run a whole batch, and
        resume: the sandwich must detect the torn state and retry."""
        for backend in engines.backends():
            cp = cplds(8, backend)
            read = SteppedRead(cp, 0)
            read.advance(2)  # read b1 and l1
            cp.insert_batch(clique(8))  # full batch while suspended
            result = read.advance(10_000)
            assert result is not None
            assert result.retries >= 1
            assert result.retry_causes[0] == "batch"
            # After the retry it returns the post-batch level.
            assert result.level == cp.plds.state.level[0]

    def test_result_matches_unstepped_read(self):
        for backend in engines.backends():
            cp = cplds(10, backend)
            cp.insert_batch(clique(10))
            for v in range(10):
                stepped = SteppedRead(cp, v).advance(1000)
                assert stepped.estimate == cp.read(v)


class TestInterleavedScheduler:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_return_boundary_levels(self, seed):
        n = 16
        edges = gen.erdos_renyi(n, 60, seed=seed)
        for backend in engines.backends():
            stream = BatchStream.insert_then_delete("step", n, edges, 15)
            cp = cplds(n, backend)
            sched = InterleavedScheduler(cp, num_readers=5, seed=seed)
            completed = sched.run(stream)
            # The scheduler validates each read on completion; reaching here
            # with a healthy population is the pass.
            assert len(completed) >= 5
            cp.check_invariants()

    @pytest.mark.parametrize("seed", range(4))
    def test_every_retry_has_a_cause(self, seed):
        """The paper's lock-freedom argument: a read retries only because an
        update made progress (batch number advanced or live level moved)."""
        n = 12
        for backend in engines.backends():
            stream = BatchStream.insert_then_delete("step", n, clique(n), 12)
            sched = InterleavedScheduler(cplds(n, backend), num_readers=6, seed=seed)
            completed = sched.run(stream)
            for r in completed:
                assert len(r.retry_causes) == r.retries
                assert all(c in ("batch", "level") for c in r.retry_causes)

    def test_retries_actually_occur_under_contention(self):
        """Sanity: the adversarial schedule does tear some reads (otherwise
        the retry-path tests above are vacuous)."""
        n = 12
        for backend in engines.backends():
            total_retries = 0
            for seed in range(10):
                stream = BatchStream.insert_then_delete("step", n, clique(n), 10)
                sched = InterleavedScheduler(
                    cplds(n, backend), num_readers=8, seed=seed
                )
                completed = sched.run(stream)
                total_retries += sum(r.retries for r in completed)
            assert total_retries > 0, backend

    def test_descriptor_reads_observed(self):
        """Some interleaved reads must land on marked vertices and take the
        descriptor (old-level) path."""
        n = 12
        for backend in engines.backends():
            hits = 0
            for seed in range(10):
                stream = BatchStream.insert_only("step", n, clique(n), 10)
                sched = InterleavedScheduler(
                    cplds(n, backend), num_readers=8, seed=seed
                )
                completed = sched.run(stream)
                hits += sum(1 for r in completed if r.from_descriptor)
            assert hits > 0, backend

    def test_deterministic_given_seed(self):
        n = 10

        def run(backend, seed):
            stream = BatchStream.insert_only("step", n, clique(n), 9)
            sched = InterleavedScheduler(cplds(n, backend), num_readers=4, seed=seed)
            return [
                (r.vertex, r.level, r.retries) for r in sched.run(stream)
            ]

        for backend in engines.backends():
            assert run(backend, 3) == run(backend, 3)

    def test_frontier_clique_teardown_on_bulk_marking(self):
        """A 12-clique built and torn down with shallow groups: the frontier
        engine's stepped reads walk its marking arrays (a reader of the
        object engine's empty descriptor table returns mid-batch levels
        here), and the scheduler's chained hooks keep the engine on
        whole-frontier marking."""
        n = 12
        cp = cplds(n, "columnar-frontier", LDSParams(n, levels_per_group=4))
        sched = InterleavedScheduler(cp, num_readers=6, seed=0)
        assert _hook_mode(cp.plds.hooks) == "bulk"
        completed = sched.run(BatchStream.insert_then_delete("step", n, clique(n), 12))
        assert any(r.from_descriptor for r in completed)
        cp.check_invariants()

    def test_naive_engine_steps_through_the_same_protocol(self):
        """The strawman supplies a single-descriptor check; per-vertex reads
        still never see an intermediate level."""
        n = 12
        cp = NaiveMarkedKCore(n)
        completed = InterleavedScheduler(cp, num_readers=6, seed=2).run(
            BatchStream.insert_then_delete("step", n, clique(n), 12)
        )
        assert any(r.from_descriptor for r in completed)


class TestHotReadsMatchTheProtocol:
    """Each engine's hand-inlined ``read`` answers what the protocol
    generator (``read_verbose``) answers, at every round boundary."""

    @pytest.mark.parametrize("backend", engines.backends())
    def test_read_equals_protocol_at_every_round_boundary(self, backend):
        n = 16
        cp = cplds(n, backend, LDSParams(n, levels_per_group=4))
        checked = {"points": 0, "descriptor": 0}

        def on_point(_tag):
            checked["points"] += 1
            for v in range(n):
                result = cp.read_verbose(v)
                assert cp.read(v) == cp.params.coreness_estimate(result.level)
                checked["descriptor"] += result.from_descriptor

        attach_probe(cp, InjectionProbe(on_point, at_end=True))
        edges = clique(n)
        cp.insert_batch(edges)
        cp.delete_batch(edges[::2])
        cp.apply_batch(insertions=edges[::2], deletions=edges[1::3])
        assert checked["points"] > 10
        assert checked["descriptor"] > 0
