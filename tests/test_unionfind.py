"""Tests for the sequential and concurrent union-find structures."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unionfind import ConcurrentUnionFind, SequentialUnionFind


class TestSequentialUnionFind:
    def test_initial_singletons(self):
        uf = SequentialUnionFind(4)
        assert uf.num_sets == 4
        assert [uf.find(i) for i in range(4)] == [0, 1, 2, 3]

    def test_union_returns_min_id_root(self):
        uf = SequentialUnionFind(5)
        assert uf.union(4, 2) == 2
        assert uf.union(2, 1) == 1
        assert uf.find(4) == 1

    def test_union_idempotent(self):
        uf = SequentialUnionFind(3)
        uf.union(0, 1)
        assert uf.union(1, 0) == 0
        assert uf.num_sets == 2

    def test_same_set(self):
        uf = SequentialUnionFind(4)
        uf.union(0, 3)
        assert uf.same_set(0, 3)
        assert not uf.same_set(1, 3)

    def test_sets_listing(self):
        uf = SequentialUnionFind(4)
        uf.union(1, 2)
        assert uf.sets() == {0: [0], 1: [1, 2], 3: [3]}

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SequentialUnionFind(-1)


class TestConcurrentUnionFind:
    def test_matches_sequential_semantics(self):
        cu = ConcurrentUnionFind(6)
        su = SequentialUnionFind(6)
        for a, b in [(0, 5), (1, 2), (5, 2), (3, 4)]:
            assert cu.union(a, b) == su.union(a, b)
        for x in range(6):
            assert cu.find(x) == su.find(x)

    def test_roots_listing(self):
        cu = ConcurrentUnionFind(5)
        cu.union(0, 1)
        cu.union(2, 3)
        assert sorted(cu.roots()) == [0, 2, 4]

    def test_concurrent_unions_converge(self):
        n = 64
        cu = ConcurrentUnionFind(n)
        pairs = [(i % n, (i * 7 + 3) % n) for i in range(n * 4)]
        barrier = threading.Barrier(4)

        def worker(offset):
            barrier.wait()
            for a, b in pairs[offset::4]:
                cu.union(a, b)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Compare against a sequential run of the same union set.
        su = SequentialUnionFind(n)
        for a, b in pairs:
            su.union(a, b)
        assert [cu.find(x) for x in range(n)] == [su.find(x) for x in range(n)]

    def test_concurrent_finds_during_unions_terminate(self):
        n = 128
        cu = ConcurrentUnionFind(n)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    for x in range(n):
                        r = cu.find(x)
                        assert 0 <= r <= x
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers:
            t.start()
        for i in range(n - 1):
            cu.union(i, i + 1)
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert all(cu.find(x) == 0 for x in range(n))


class TestUnionFindProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=24),
        st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=60
        ),
    )
    def test_concurrent_equals_sequential_on_any_script(self, n, ops):
        ops = [(a % n, b % n) for a, b in ops]
        cu = ConcurrentUnionFind(n)
        su = SequentialUnionFind(n)
        for a, b in ops:
            cu.union(a, b)
            su.union(a, b)
        assert [cu.find(x) for x in range(n)] == [su.find(x) for x in range(n)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40)
    )
    def test_representative_is_set_minimum(self, ops):
        uf = SequentialUnionFind(16)
        for a, b in ops:
            uf.union(a, b)
        for root, members in uf.sets().items():
            assert root == min(members)
