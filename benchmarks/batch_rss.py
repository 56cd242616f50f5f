"""Peak memory of one large insert batch, in a fresh process.

Builds ``chung_lu(20_000, 80_000, seed=11)`` (svcbench's social-batch
graph), applies its first 64,000 edges to a ``columnar-frontier`` CPLDS as
a single insert batch, and prints the batch seconds, the process's
``ru_maxrss`` and the batch's work counters.  Exits 1 when the peak
reaches 1 GB (per-batch memory should be set by the graph, not by batch
size times levels) or when the moves, rounds, marked vertices or DAGs
differ from their pinned values: the batch is a lock-step climb of
thousands of vertices over hundreds of levels, so a faster execution of
the rounds must leave that work unchanged.

Run it on its own (``make batch-rss``): ``ru_maxrss`` is the peak of the
whole process, so anything else run before it in the same interpreter
would count too.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from repro import engines
from repro.graph.generators import chung_lu

N, M, SEED = 20_000, 80_000, 11
BATCH = 64_000
LIMIT_MB = 1024
#: The batch's work counters, identical on every correct execution.
PINNED = {"moves": 10_487_374, "rounds": 2_002, "marked": 13_982, "dags": 2}


def main() -> int:
    edges = chung_lu(N, M, seed=SEED)[:BATCH]
    eng = engines.create("cplds", N, backend="columnar-frontier")
    t0 = time.perf_counter()
    eng.insert_batch(edges)
    seconds = time.perf_counter() - t0
    # Linux reports ru_maxrss in KiB.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work = {
        "moves": eng.plds.last_batch_moves,
        "rounds": eng.plds.last_batch_rounds,
        "marked": eng.last_batch_marked,
        "dags": eng.last_batch_dags,
    }
    print(json.dumps({
        "edges": len(edges),
        "batch_s": round(seconds, 3),
        "ru_maxrss_mb": round(rss_mb, 1),
        "limit_mb": LIMIT_MB,
        **work,
    }))
    status = 0
    if rss_mb >= LIMIT_MB:
        print(f"batch-rss: peak {rss_mb:.0f} MB >= {LIMIT_MB} MB", file=sys.stderr)
        status = 1
    if work != PINNED:
        print(f"batch-rss: work {work} != pinned {PINNED}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
