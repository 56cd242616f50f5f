"""Unit tests for the dynamic-graph substrate."""

import pytest

from repro.errors import EdgeStateError, SelfLoopError, VertexOutOfRange
from repro.graph import DynamicGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DynamicGraph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_initial_edges(self):
        g = DynamicGraph(3, edges=[(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.has_edge(0, 1)
        assert g.has_edge(2, 1)

    def test_duplicate_initial_edges_collapsed(self):
        g = DynamicGraph(3, edges=[(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph(-1)


class TestInsertion:
    def test_insert_batch_returns_new_count(self):
        g = DynamicGraph(5)
        assert g.insert_batch([(0, 1), (1, 2), (0, 1)]) == 2
        assert g.num_edges == 2

    def test_insert_existing_is_noop(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        assert g.insert_batch([(1, 0)]) == 0
        assert g.num_edges == 1

    def test_insert_existing_strict_raises(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        with pytest.raises(EdgeStateError):
            g.insert_batch([(0, 1)], strict=True)

    def test_strict_insert_rejects_the_whole_batch(self):
        g = DynamicGraph(4, edges=[(1, 2)])
        version = g.version
        with pytest.raises(EdgeStateError):
            g.insert_batch([(0, 1), (1, 2)], strict=True)
        assert sorted(g.edges()) == [(1, 2)]
        assert g.num_edges == 1
        assert g.version == version

    def test_self_loop_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(SelfLoopError):
            g.insert_batch([(1, 1)])

    def test_out_of_range_rejected(self):
        g = DynamicGraph(3)
        with pytest.raises(VertexOutOfRange):
            g.insert_batch([(0, 3)])
        with pytest.raises(VertexOutOfRange):
            g.insert_batch([(-1, 0)])

    def test_insert_edge_single(self):
        g = DynamicGraph(3)
        assert g.insert_edge(0, 2) is True
        assert g.insert_edge(2, 0) is False

    def test_adjacency_is_symmetric(self):
        g = DynamicGraph(4)
        g.insert_batch([(0, 3), (3, 1)])
        assert 3 in g.neighbors(0)
        assert 0 in g.neighbors(3)
        assert 1 in g.neighbors(3)


class TestDeletion:
    def test_delete_batch(self):
        g = DynamicGraph(4, edges=[(0, 1), (1, 2), (2, 3)])
        assert g.delete_batch([(1, 0), (3, 2)]) == 2
        assert g.num_edges == 1
        assert not g.has_edge(0, 1)
        assert g.has_edge(1, 2)

    def test_delete_absent_is_noop(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        assert g.delete_batch([(1, 2)]) == 0
        assert g.num_edges == 1

    def test_delete_absent_strict_raises(self):
        g = DynamicGraph(3)
        with pytest.raises(EdgeStateError):
            g.delete_batch([(0, 1)], strict=True)

    def test_strict_delete_rejects_the_whole_batch(self):
        g = DynamicGraph(4, edges=[(1, 2), (2, 3)])
        version = g.version
        with pytest.raises(EdgeStateError):
            g.delete_batch([(1, 2), (0, 1)], strict=True)
        assert sorted(g.edges()) == [(1, 2), (2, 3)]
        assert g.num_edges == 2
        assert g.version == version

    def test_delete_then_reinsert(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        g.delete_edge(0, 1)
        assert g.num_edges == 0
        g.insert_edge(0, 1)
        assert g.num_edges == 1

    def test_duplicate_deletes_in_batch_counted_once(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        assert g.delete_batch([(0, 1), (1, 0)]) == 1
        assert g.num_edges == 0


class TestViewsAndHelpers:
    def test_neighbors_returns_copy(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        view = g.neighbors(0)
        g.insert_edge(0, 2)
        assert view == frozenset({1})

    def test_edges_iterates_canonical(self):
        g = DynamicGraph(4, edges=[(3, 1), (2, 0)])
        assert sorted(g.edges()) == [(0, 2), (1, 3)]

    def test_filter_new_edges(self):
        g = DynamicGraph(4, edges=[(0, 1)])
        assert g.filter_new_edges([(1, 0), (2, 3), (3, 2)]) == [(2, 3)]

    def test_filter_present_edges(self):
        g = DynamicGraph(4, edges=[(0, 1), (2, 3)])
        assert g.filter_present_edges([(1, 0), (1, 2)]) == [(0, 1)]

    def test_copy_is_independent(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        h = g.copy()
        h.insert_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_contains_and_len(self):
        g = DynamicGraph(3, edges=[(0, 1)])
        assert (0, 1) in g
        assert (1, 2) not in g
        assert len(g) == 3

    def test_degree(self):
        g = DynamicGraph(4, edges=[(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1
