"""Tests for the h-index iteration, graph analysis utils, and the monitor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.core import CPLDS
from repro.errors import InvariantViolation
from repro.exact import core_decomposition
from repro.exact.hindex import h_index, hindex_coreness, hindex_upper_bound_property
from repro.graph import DynamicGraph
from repro.graph import generators as gen
from repro.graph.analysis import (
    average_degree,
    bfs_distances,
    clustering_coefficient,
    connected_components,
    degree_histogram,
    induced_subgraph,
    triangles_at,
)
from repro.lds.plds import UpdateHooks
from repro.runtime.inject import HookChain
from repro.verify.monitor import InvariantMonitor, attach_monitor


def clique(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class TestHIndex:
    def test_h_index_basics(self):
        assert h_index(np.array([3, 3, 3])) == 3
        assert h_index(np.array([5, 1, 1])) == 1
        assert h_index(np.array([0, 0])) == 0
        assert h_index(np.array([], dtype=int)) == 0
        assert h_index(np.array([10])) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_converges_to_exact_coreness(self, seed):
        g = DynamicGraph(40, gen.erdos_renyi(40, 140, seed=seed))
        assert np.array_equal(hindex_coreness(g), core_decomposition(g))

    def test_community_graph(self):
        g = DynamicGraph(80, gen.community_overlay(80, 2, 12, 60, seed=1))
        values, sweeps = hindex_coreness(g, return_sweeps=True)
        assert np.array_equal(values, core_decomposition(g))
        assert sweeps >= 1

    def test_upper_bound_property(self):
        g = DynamicGraph(50, gen.chung_lu(50, 180, seed=2))
        assert hindex_upper_bound_property(g)

    def test_sweep_cap_respected(self):
        g = DynamicGraph(30, clique(10))
        capped = hindex_coreness(g, max_sweeps=1)
        assert np.all(capped >= core_decomposition(g))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_matches_peeling_on_random_graphs(self, seed):
        edges = gen.erdos_renyi(14, 30, seed=seed)
        g = DynamicGraph(14, edges)
        assert np.array_equal(hindex_coreness(g), core_decomposition(g))


class TestAnalysis:
    def test_connected_components(self):
        g = DynamicGraph(7, [(0, 1), (1, 2), (4, 5)])
        comps = connected_components(g)
        assert comps[0] == [0, 1, 2]
        assert [4, 5] in comps
        assert [3] in comps and [6] in comps

    def test_bfs_distances(self):
        g = DynamicGraph(5, [(0, 1), (1, 2), (2, 3)])
        d = bfs_distances(g, 0)
        assert d == {0: 0, 1: 1, 2: 2, 3: 3}
        assert 4 not in d

    def test_induced_subgraph(self):
        g = DynamicGraph(6, clique(4) + [(3, 4), (4, 5)])
        sub, mapping = induced_subgraph(g, [0, 1, 2, 3])
        assert sub.num_vertices == 4
        assert sub.num_edges == 6
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_average_degree_and_histogram(self):
        g = DynamicGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert average_degree(g) == pytest.approx(1.5)
        assert degree_histogram(g) == {3: 1, 1: 3}
        assert average_degree(DynamicGraph(0)) == 0.0

    def test_triangles_and_clustering(self):
        g = DynamicGraph(4, clique(3) + [(2, 3)])
        assert triangles_at(g, 0) == 1
        assert triangles_at(g, 3) == 0
        assert clustering_coefficient(g, 0) == 1.0
        assert clustering_coefficient(g, 2) == pytest.approx(1 / 3)
        assert clustering_coefficient(g, 3) == 0.0


class TestInvariantMonitor:
    def test_healthy_run_samples_cleanly(self):
        cp = CPLDS(20)
        monitor = attach_monitor(cp, sample_every=1)
        edges = gen.erdos_renyi(20, 70, seed=3)
        cp.insert_batch(edges)
        cp.delete_batch(edges[::2])
        assert monitor.samples_taken > 0
        assert monitor.rounds_seen > 0

    def test_detects_forged_self_parent(self):
        cp = CPLDS(6)
        monitor = InvariantMonitor(cp)
        d = cp.descriptors.mark(2, old_level=0, related=[], batch=1)
        d.parent = 2  # forge a self-loop
        with pytest.raises(InvariantViolation, match="itself"):
            monitor.sample()

    def test_detects_out_of_range_parent(self):
        cp = CPLDS(6)
        monitor = InvariantMonitor(cp)
        d = cp.descriptors.mark(2, old_level=0, related=[], batch=1)
        d.parent = 99
        with pytest.raises(InvariantViolation, match="out-of-range"):
            monitor.sample()

    def test_detects_counter_drift(self):
        cp = CPLDS(6)
        cp.insert_batch([(0, 1), (1, 2)])
        monitor = InvariantMonitor(cp)
        cp.plds.state.up_deg[0] += 1  # forge drift
        with pytest.raises(AssertionError):
            monitor.sample()

    def test_sampling_stride(self):
        cp = CPLDS(12)
        monitor = attach_monitor(cp, sample_every=1000)
        cp.insert_batch(clique(12))
        # Strided out of round sampling; batch_end still samples once/phase.
        assert monitor.samples_taken >= 1

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            InvariantMonitor(CPLDS(2), sample_every=0)


def frontier(n):
    return engines.create("cplds", n, backend="columnar-frontier")


class TestFrontierForestMonitor:
    """The monitor's forest check on the ``columnar-frontier`` engine's
    ``_marked`` flags and ``_uf.parent`` array."""

    def test_healthy_run_samples_cleanly(self):
        cp = frontier(40)
        monitor = attach_monitor(cp, sample_every=1)
        edges = gen.erdos_renyi(40, 200, seed=5)
        cp.insert_batch(edges)
        cp.delete_batch(edges[::2])
        assert monitor.samples_taken > 2
        assert cp.last_batch_marked > 0

    def test_detects_unmarked_vertex_with_foreign_parent(self):
        cp = frontier(8)
        cp._uf.parent[3] = 5
        with pytest.raises(InvariantViolation, match="unmarked vertex 3"):
            InvariantMonitor(cp).sample()

    def test_detects_cycle(self):
        cp = frontier(8)
        cp._marked[[2, 4, 6]] = True
        cp._uf.parent[[2, 4, 6]] = [4, 6, 2]
        with pytest.raises(InvariantViolation, match="does not terminate"):
            InvariantMonitor(cp).sample()

    def test_detects_two_cycle(self):
        # Pointer doubling maps a 2-cycle to itself after one squaring.
        cp = frontier(8)
        cp._marked[[1, 7]] = True
        cp._uf.parent[[1, 7]] = [7, 1]
        with pytest.raises(InvariantViolation, match="does not terminate"):
            InvariantMonitor(cp).sample()

    def test_detects_out_of_range_parent(self):
        cp = frontier(8)
        cp._marked[2] = True
        cp._uf.parent[2] = 99
        with pytest.raises(InvariantViolation, match="out of range"):
            InvariantMonitor(cp).sample()

    def test_marked_chains_to_a_root_pass(self):
        cp = frontier(8)
        cp._marked[[1, 3, 5]] = True
        cp._uf.parent[[3, 5]] = [1, 3]
        InvariantMonitor(cp).sample()

    def test_corruption_mid_batch_is_caught_at_the_next_round(self):
        class Corrupt(UpdateHooks):
            def round_boundary(self):
                assert cp._marked.any() and not cp._marked[13]
                cp._uf.parent[13] = 0

        cp = frontier(14)  # 12 and 13 stay isolated and unmarked
        monitor = InvariantMonitor(cp)
        cp.plds.hooks = HookChain(cp.plds.hooks, Corrupt(), monitor)
        with pytest.raises(InvariantViolation, match="unmarked vertex 13"):
            cp.insert_batch(clique(12))
        assert monitor.rounds_seen == 1
