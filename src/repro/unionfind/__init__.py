"""Union-find substrates.

The CPLDS merges dependency DAGs with the same mechanics as concurrent
union-find (the paper reuses the Jayanti–Tarjan-style implementation from
ConnectIt).  This package provides:

* :mod:`repro.unionfind.atomics` — the striped locks that stand in for
  hardware compare-and-swap (see DESIGN.md substitution table);
* :mod:`repro.unionfind.sequential` — the classic array-based structure with
  path compression (reference semantics and a baseline);
* :mod:`repro.unionfind.concurrent` — a CAS-loop union-find safe under
  concurrent ``union``/``find`` callers, with deterministic min-id roots
  (exactly the linking discipline the CPLDS descriptor DAGs use) and four
  find strategies (ConnectIt's naive/compress/split/halve);
* :mod:`repro.unionfind.vectorized` — a numpy parent forest with batched
  ``find_many`` (vectorized path halving) and ``union_pairs`` (grouped
  sort + reduceat linking), used by the ``columnar-frontier`` engine to
  merge a whole batch of dependency-DAG edges in a handful of array passes.
"""

from repro.unionfind.sequential import SequentialUnionFind
from repro.unionfind.concurrent import ConcurrentUnionFind
from repro.unionfind.vectorized import VectorizedUnionFind

__all__ = [
    "SequentialUnionFind",
    "ConcurrentUnionFind",
    "VectorizedUnionFind",
]
