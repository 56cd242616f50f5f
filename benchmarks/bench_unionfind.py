"""Union-find strategy bench: the ConnectIt design-space slice.

The CPLDS's dependency-DAG merging is a union-find workload (many unions
during marking, many finds during reads); this bench measures the find
strategies' pointer-chase work on DAG-shaped workloads so the choice of
full path compression (what the paper's implementation uses via ConnectIt)
is justified by data in this repository too.

It also measures where :class:`repro.unionfind.vectorized.VectorizedUnionFind`
(whole-batch ``union_pairs`` over a numpy parent forest, used by the
``columnar-frontier`` engine) overtakes pairwise
:class:`~repro.unionfind.sequential.SequentialUnionFind` unions.  Measured on
random pairs over n=4096 (this container, CPython 3.12): the scalar loop wins
below ~64 pairs per batch, the two tie near ~100, and the array path wins
beyond ~128 pairs (1.3x at 1024 pairs) — which is why the frontier engine
buffers a whole batch's DAG-merge pairs, dedups them, and unions once at
batch end instead of unioning per move.
"""

import time

import numpy as np

from repro.harness.report import format_table
from repro.unionfind.sequential import SequentialUnionFind
from repro.unionfind.concurrent import FIND_STRATEGIES, ConcurrentUnionFind
from repro.unionfind.vectorized import VectorizedUnionFind


def dag_workload(n=4096, unions=6000, finds=40000, seed=0):
    """Union/find mix shaped like a batch's marking phase + reader traffic."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(unions):
        a, b = rng.integers(0, n, size=2)
        ops.append(("u", int(a), int(b)))
    for _ in range(finds):
        ops.append(("f", int(rng.integers(0, n)), 0))
    rng.shuffle(ops)
    return n, ops


def run(strategy, n, ops):
    uf = ConcurrentUnionFind(n, find_strategy=strategy)
    for kind, a, b in ops:
        if kind == "u":
            uf.union(a, b)
        else:
            uf.find(a)
    return uf.pointer_hops


def test_find_strategy_work(benchmark, emit):
    n, ops = dag_workload()
    rows = []
    for strategy in FIND_STRATEGIES:
        hops = run(strategy, n, ops)
        rows.append((strategy, hops))
    emit(
        "Union-find find-strategy pointer-chase work "
        f"({len(ops)} mixed ops, n={n})",
        format_table(["strategy", "pointer hops"], rows),
    )
    hops = dict(rows)
    # All write-performing strategies beat the naive one...
    for strategy in ("compress", "split", "halve"):
        assert hops[strategy] < hops["naive"]
    # ...and results agree regardless of strategy (semantic check).
    reps = {}
    for strategy in FIND_STRATEGIES:
        uf = ConcurrentUnionFind(n, find_strategy=strategy)
        for kind, a, b in ops:
            if kind == "u":
                uf.union(a, b)
        reps[strategy] = [uf.find(x) for x in range(n)]
    assert len({tuple(v) for v in reps.values()}) == 1

    def kernel():
        run("compress", n, ops)

    benchmark(kernel)


def test_vectorized_crossover(benchmark, emit):
    """Sequential pairwise unions vs whole-batch ``union_pairs``.

    Reproduces the crossover documented in the module docstring: the scalar
    loop wins tiny batches, the vectorized forest wins once a batch carries
    more than ~128 merge pairs (the regime every CPLDS batch-end union of a
    non-trivial batch is in).
    """
    n = 4096
    rng = np.random.default_rng(0)
    rows = []
    timings = {}
    for pairs in (8, 64, 512, 4096):
        a = rng.integers(0, n, size=pairs)
        b = rng.integers(0, n, size=pairs)
        reps = max(3, 8192 // pairs)

        seq = min(
            _timed_sequential(n, a, b) for _ in range(reps)
        )
        vec = min(
            _timed_vectorized(n, a, b) for _ in range(reps)
        )
        timings[pairs] = (seq, vec)
        rows.append((pairs, f"{seq * 1e6:.1f}", f"{vec * 1e6:.1f}", f"{seq / vec:.2f}"))

        # Same components, same min-id representatives, either way.
        suf = SequentialUnionFind(n)
        for x, y in zip(a.tolist(), b.tolist()):
            suf.union(x, y)
        vuf = VectorizedUnionFind(n)
        vuf.union_pairs(a, b)
        want = [suf.find(x) for x in range(n)]
        got = vuf.find_many(np.arange(n, dtype=np.int64)).tolist()
        assert got == want

    emit(
        f"Union-find batch crossover (n={n}, random pairs)",
        format_table(["pairs", "sequential us", "vectorized us", "seq/vec"], rows),
    )
    # The crossover claim, asserted loosely (timing, so generous margins):
    # vectorized must win the largest batch; the scalar loop must win the
    # smallest one.
    seq, vec = timings[4096]
    assert vec < seq
    seq, vec = timings[8]
    assert seq < vec

    a = rng.integers(0, n, size=4096)
    b = rng.integers(0, n, size=4096)
    benchmark(lambda: _timed_vectorized(n, a, b))


def _timed_sequential(n, a, b):
    uf = SequentialUnionFind(n)
    t0 = time.perf_counter()
    for x, y in zip(a.tolist(), b.tolist()):
        uf.union(x, y)
    return time.perf_counter() - t0


def _timed_vectorized(n, a, b):
    uf = VectorizedUnionFind(n)
    t0 = time.perf_counter()
    uf.union_pairs(a, b)
    return time.perf_counter() - t0
