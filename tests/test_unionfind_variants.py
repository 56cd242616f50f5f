"""Tests for the concurrent union-find's four find strategies."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unionfind import SequentialUnionFind
from repro.unionfind.concurrent import FIND_STRATEGIES, ConcurrentUnionFind


class TestConstruction:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="find strategy"):
            ConcurrentUnionFind(4, find_strategy="teleport")

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ConcurrentUnionFind(-1)

    @pytest.mark.parametrize("strategy", FIND_STRATEGIES)
    def test_initial_singletons(self, strategy):
        uf = ConcurrentUnionFind(5, find_strategy=strategy)
        assert [uf.find(i) for i in range(5)] == list(range(5))


class TestSemanticsAcrossStrategies:
    OPS = [(0, 5), (1, 2), (5, 2), (3, 4), (6, 7), (7, 0)]

    @pytest.mark.parametrize("strategy", FIND_STRATEGIES)
    def test_matches_sequential(self, strategy):
        uf = ConcurrentUnionFind(8, find_strategy=strategy)
        ref = SequentialUnionFind(8)
        for a, b in self.OPS:
            assert uf.union(a, b) == ref.union(a, b)
        for x in range(8):
            assert uf.find(x) == ref.find(x)

    @pytest.mark.parametrize("strategy", FIND_STRATEGIES)
    def test_same_set(self, strategy):
        uf = ConcurrentUnionFind(6, find_strategy=strategy)
        uf.union(0, 3)
        assert uf.same_set(0, 3)
        assert not uf.same_set(1, 3)

    @pytest.mark.parametrize("strategy", FIND_STRATEGIES)
    def test_roots_listing(self, strategy):
        uf = ConcurrentUnionFind(5, find_strategy=strategy)
        uf.union(0, 1)
        uf.union(2, 3)
        assert sorted(uf.roots()) == [0, 2, 4]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(FIND_STRATEGIES),
        st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=50),
    )
    def test_any_script_matches_sequential(self, strategy, ops):
        uf = ConcurrentUnionFind(16, find_strategy=strategy)
        ref = SequentialUnionFind(16)
        for a, b in ops:
            uf.union(a, b)
            ref.union(a, b)
        assert [uf.find(x) for x in range(16)] == [
            ref.find(x) for x in range(16)
        ]


class TestWorkCharacteristics:
    def _chain(self, strategy, depth=256):
        uf = ConcurrentUnionFind(depth, find_strategy=strategy)
        # Build a worst-case chain by explicit parent writes.
        for v in range(1, depth):
            uf.parent[v] = v - 1
        return uf

    def test_compress_flattens_chain(self):
        uf = self._chain("compress")
        uf.find(255)
        assert uf.parent[255] == 0
        uf.pointer_hops = 0
        uf.find(255)
        assert uf.pointer_hops <= 2

    def test_naive_never_writes(self):
        uf = self._chain("naive")
        before = list(uf.parent)
        uf.find(255)
        assert uf.parent == before

    @pytest.mark.parametrize("strategy", ("split", "halve"))
    def test_splitting_strategies_shorten_paths(self, strategy):
        uf = self._chain(strategy)
        uf.find(255)
        first = uf.pointer_hops
        uf.pointer_hops = 0
        uf.find(255)
        assert uf.pointer_hops < first

    def test_repeated_finds_cheaper_than_naive(self):
        naive = self._chain("naive")
        halve = self._chain("halve")
        for _ in range(10):
            naive.find(255)
            halve.find(255)
        assert halve.pointer_hops < naive.pointer_hops


class TestConcurrency:
    @pytest.mark.parametrize("strategy", FIND_STRATEGIES)
    def test_concurrent_unions_converge(self, strategy):
        n = 48
        uf = ConcurrentUnionFind(n, find_strategy=strategy)
        pairs = [(i % n, (i * 5 + 2) % n) for i in range(n * 3)]
        barrier = threading.Barrier(3)

        def worker(off):
            barrier.wait()
            for a, b in pairs[off::3]:
                uf.union(a, b)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ref = SequentialUnionFind(n)
        for a, b in pairs:
            ref.union(a, b)
        assert [uf.find(x) for x in range(n)] == [ref.find(x) for x in range(n)]
