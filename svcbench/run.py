"""Service benchmark: the supervised write path with reads and crash recovery.

Drives ``SupervisedCoordinator`` (ticket submit -> journal ->
``columnar-frontier`` CPLDS batch -> epoch publish -> ack) from one client
thread while the same thread serves point reads and pinned epoch bulk
reads on a fixed schedule, then abandons the service without ``close()``
(a simulated crash) and times ``SupervisedCPLDS.open`` on copies of the
state directory.  See ``README.md`` next to this file for the workloads,
the metrics and the layer map.

Run from the root of a checkout::

    python3 svcbench/run.py --workload social-batch --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``).
The line before it holds noise diagnostics and exact work counts.  The
exit code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
OUT = os.path.join(HERE, "out")

#: Point reads and pinned bulk reads fire on these fixed intervals (s).
POINT_INTERVAL = 0.005
BULK_INTERVAL = 0.010
BULK_VERTICES = 1000
TOP_K = 100
#: Repeated set-ups per run (``setup_s`` is their median) and reopenings
#: after the crash (``recover_s`` is their median).
SETUPS = 3
REOPENINGS = 3
#: Preload in chunks: one huge first batch needs several GB of numpy
#: temporaries in the round kernels; 8k-edge chunks keep the peak small.
PRELOAD_CHUNK = 8000
#: Batches close on size only: the timer never fires first.
MAX_DELAY = 600.0
#: A write phase running this many seconds past its schedule fails the run.
STALL_LIMIT = 120.0
#: Vertices whose reads are checked against exact coreness.
APPROX_SAMPLE = 2000
#: End-to-end figures reported as metrics (``BENCHMARK.json``'s
#: ``end_to_end``).  The others are CPU-bound times that moved with the
#: reference host's speed by more than the largest allowed bound over ten
#: seeds (see README.md); they are printed beside the result instead.
GATED = ("setup_s", "read_p50_us", "bulk_read_p50_ms", "disk_bytes_per_update")


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    preload_frac: float
    batch: int
    #: Closed loop: batches per second of ``--seconds`` (fixed work, not a
    #: timer).  Open loop: ``None``.
    batches_per_second: float | None
    #: Open loop: one batch-sized burst every ``period`` seconds.
    period: float | None


WORKLOADS = {
    "social-batch": Workload("social-batch", "chung-lu", 0.8, 1000, 3.25, None),
    "road-trickle": Workload("road-trickle", "grid", 0.9, 8, None, 0.150),
}


def _import_repro() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"svcbench: no repro package under {src}; run from a checkout")
    sys.path.insert(0, src)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (host-speed diagnostic)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i & 7
    return time.perf_counter() - t0


def make_graph(wl: Workload, seed: int) -> tuple[int, np.ndarray]:
    from repro.graph.generators import chung_lu, grid_road

    if wl.graph == "chung-lu":
        n, edges = 20_000, chung_lu(20_000, 80_000, seed=seed)
    else:
        n, edges = 40_000, grid_road(200, 200, seed=seed)
    return n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def setup(wl: Workload, seed: int, state_dir: str):
    """Graph generation + preload + service construction (timed)."""
    from repro import engines
    from repro.runtime.supervisor import SupervisedCoordinator

    t0 = time.perf_counter()
    n, edges = make_graph(wl, seed)
    order = np.random.default_rng([seed, 1]).permutation(len(edges))
    present = np.zeros(len(edges), dtype=bool)
    present[order[: int(wl.preload_frac * len(edges))]] = True
    pre = edges[present]
    eng = engines.create("cplds", n, backend="columnar-frontier")
    for chunk in np.array_split(pre, math.ceil(len(pre) / PRELOAD_CHUNK)):
        eng.insert_batch([tuple(e) for e in chunk.tolist()])
    co = SupervisedCoordinator(
        eng, journal_dir=state_dir, max_batch=wl.batch, max_delay=MAX_DELAY
    )
    return time.perf_counter() - t0, co, n, edges, present


def plan_batches(wl: Workload, seed: int, edges, present, count: int):
    """``count`` batches, each half deletes of present edges and half
    inserts of absent ones, valid in order (no update is a no-op)."""
    rng = np.random.default_rng([seed, 2])
    present = present.copy()
    half = wl.batch // 2
    out = []
    for _ in range(count):
        d = rng.choice(np.flatnonzero(present), half, replace=False)
        i = rng.choice(np.flatnonzero(~present), half, replace=False)
        present[d] = False
        present[i] = True
        out.append(([tuple(e) for e in edges[d].tolist()],
                    [tuple(e) for e in edges[i].tolist()]))
    return out


def plan_reads(n: int, seed: int):
    """Zipf-skewed point-read vertices and uniform bulk-read vertex sets."""
    rng = np.random.default_rng([seed, 3])
    weights = np.arange(1, n + 1, dtype=np.float64) ** -1.1
    hot = rng.permutation(n)
    points = hot[rng.choice(n, 1 << 15, p=weights / weights.sum())].tolist()
    bulks = [rng.choice(n, BULK_VERTICES, replace=False) for _ in range(64)]
    return points, bulks


def batch_count(wl: Workload, seconds: int, checkpoint_every: int) -> int:
    if wl.period is not None:
        count = round(seconds / wl.period)
    else:
        count = round(seconds * wl.batches_per_second)
    # A multiple of the checkpoint cadence would leave nothing to replay.
    return max(1, count + (count % checkpoint_every == 0))


class Client:
    """The single client thread: writes, reads on a schedule, acks."""

    def __init__(self, co, wl: Workload, batches, points, bulks, state_dir):
        self.co = co
        self.wl = wl
        self.batches = batches
        self.points = points
        self.bulks = bulks
        self.state_dir = state_dir
        self.ack: list[np.ndarray] = []
        self.read_lat: list[float] = []
        self.bulk_lat: list[float] = []
        self.late: list[float] = []
        self.failed = 0
        self.attempted = 0
        self.applied_in: list[set] = []
        self.ckpt_sizes: dict[str, int] = {}
        self.force_advanced = 0
        self._ip = self._ib = 0

    def _fire_due(self) -> None:
        """Fire every read that is due, each timed from its due time."""
        clock = time.perf_counter
        now = clock()
        while self.next_point <= now or self.next_bulk <= now:
            if self.next_point <= self.next_bulk:
                due = self.next_point
                self.next_point += POINT_INTERVAL
                v = self.points[self._ip % len(self.points)]
                self._ip += 1
                self.late.append(clock() - due)
                try:
                    self.co.read(v)
                except Exception:  # a raised read is a failed operation
                    self.failed += 1
                self.read_lat.append(clock() - due)
            else:
                due = self.next_bulk
                self.next_bulk += BULK_INTERVAL
                vs = self.bulks[self._ib % len(self.bulks)]
                self._ib += 1
                self.late.append(clock() - due)
                try:
                    with self.co.pin_epoch() as pin:
                        pin.coreness_many(vs)
                        pin.top_k(TOP_K)
                    self.force_advanced += pin.advanced
                except Exception:  # a raised read is a failed operation
                    self.failed += 1
                self.bulk_lat.append(clock() - due)
            self.attempted += 1
            now = clock()

    def _submit(self, b: int, due: float | None):
        dels, ins = self.batches[b]
        co = self.co
        clock = time.perf_counter
        tickets = []
        if due is not None:
            self.late.append(clock() - due)
        t_ref = np.empty(len(dels) + len(ins))
        j = 0
        for op, edges in ((co.submit_delete, dels), (co.submit_insert, ins)):
            for u, v in edges:
                if j % 64 == 0:
                    self._fire_due()
                t_ref[j] = clock() if due is None else due
                tickets.append(op(u, v))
                j += 1
        self.attempted += j
        return tickets, t_ref

    def _collect(self, tickets, t_ref) -> None:
        seen = time.perf_counter()
        self.ack.append(seen - t_ref)
        self.applied_in.append({t.applied_in_batch for t in tickets})
        self.failed += sum(1 for t in tickets if t.error is not None)
        # Sizes of checkpoints written so far; a later checkpoint deletes
        # old ones, so every file is seen complete at some ack before that.
        self.ckpt_sizes.update(dir_bytes(self.state_dir, "checkpoint-"))

    def run(self) -> float:
        """Drive the write phase; returns its wall time in seconds."""
        from repro.errors import ReproError

        clock = time.perf_counter
        t_start = clock()
        # Bulk reads run half a point interval out of phase with point
        # reads, so a point read never queues behind a bulk read.
        self.next_point = t_start
        self.next_bulk = t_start + POINT_INTERVAL / 2
        next_burst = t_start
        period = self.wl.period
        total = len(self.batches)
        nb = 0
        outstanding: deque = deque()
        while True:
            self._fire_due()
            if period is not None:
                while nb < total and next_burst <= clock():
                    outstanding.append(self._submit(nb, next_burst))
                    nb += 1
                    next_burst += period
            elif not outstanding and nb < total:
                outstanding.append(self._submit(nb, None))
                nb += 1
            while outstanding and outstanding[0][0][-1].done:
                self._collect(*outstanding.popleft())
            if nb == total and not outstanding:
                break
            now = clock()
            if now - t_start > STALL_LIMIT + total * (period or 0):
                self.failed += sum(len(t) for t, _ in outstanding)
                break
            deadline = min(self.next_point, self.next_bulk)
            if period is not None and nb < total:
                deadline = min(deadline, next_burst)
            if deadline > now:
                if outstanding:
                    try:
                        outstanding[0][0][-1].wait(deadline - now)
                    except ReproError:  # timeout, or a failed ticket (counted on collect)
                        pass
                else:
                    time.sleep(deadline - now)
        return clock() - t_start


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def dir_bytes(path: str, prefix: str) -> dict[str, int]:
    return {
        e.name: e.stat().st_size for e in os.scandir(path) if e.name.startswith(prefix)
    }


def run(wl: Workload, seed: int, seconds: int, traced: bool) -> int:
    from repro import obs
    from repro.errors import ReproError
    from repro.exact import core_decomposition
    from repro.lds.coreness import lemma_3_2_bounds
    from repro.runtime.supervisor import JOURNAL_FILENAME, HealthState, SupervisedCPLDS
    from spans import RECOVER_ROOT, Tracer

    run_dir = os.path.join(WORK, f"{wl.name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    state_dir = os.path.join(run_dir, "state")
    checks: dict[str, bool] = {}
    calib_before = calibrate()

    # -- set-up, several times; the last service is the one measured ----
    setup_times = []
    co = None
    for _ in range(SETUPS):
        if co is not None:
            co.close()
            del co, eng
            gc.collect()
            shutil.rmtree(state_dir)
        secs, co, n, edges, present = setup(wl, seed, state_dir)
        eng = co.impl
        setup_times.append(secs)
    count = batch_count(wl, seconds, co.service.checkpoint_every)
    batches = plan_batches(wl, seed, edges, present, count)
    points, bulks = plan_reads(n, seed)
    levels0 = np.asarray(eng.levels(), dtype=np.int64)
    journal = os.path.join(state_dir, JOURNAL_FILENAME)
    journal0 = os.path.getsize(journal)
    ckpts0 = co.telemetry.checkpoints_written
    ckpt_names0 = set(dir_bytes(state_dir, "checkpoint-"))

    tracer = Tracer() if traced else None
    if traced:
        obs.enable()
        obs.reset()
        tracer.install()

    # -- write phase with reads on a schedule ---------------------------
    pin0 = co.pin_epoch()  # held to the end: rule E on the first epoch
    client = Client(co, wl, batches, points, bulks, state_dir)
    wall = client.run()
    acked = sum(a.size for a in client.ack)
    reg = obs.REGISTRY
    read_counts = (
        reg.counter_value("cplds_read_retries_total"),
        reg.counter_value("cplds_reads_live_total"),
        reg.counter_value("cplds_reads_descriptor_total"),
    )
    if traced:
        obs.disable()

    # -- crash: abandon the service, reopen copies of its state ---------
    live = eng.levels()
    checks["healthy"] = co.health is HealthState.HEALTHY
    journal_bytes = os.path.getsize(journal) - journal0
    client.ckpt_sizes.update(dir_bytes(state_dir, "checkpoint-"))
    new_ckpts = {k: v for k, v in client.ckpt_sizes.items() if k not in ckpt_names0}
    in_run_ckpts = co.telemetry.checkpoints_written - ckpts0
    checks["checkpoint_bytes_seen"] = len(new_ckpts) == in_run_ckpts
    if traced:
        reopen = lambda d: tracer.call(RECOVER_ROOT, SupervisedCPLDS.open, (d,), {})  # noqa: E731
    else:
        reopen = SupervisedCPLDS.open
    recover_times, replayed = [], []
    recovered_ok = True
    for i in range(REOPENINGS):
        copy = os.path.join(run_dir, f"reopen-{i}")
        shutil.copytree(state_dir, copy)
        t0 = time.perf_counter()
        svc, report = reopen(copy)
        recover_times.append(time.perf_counter() - t0)
        recovered_ok &= svc.impl.levels() == live
        replayed.append(report.replayed)
        svc.close()
        del svc
        gc.collect()
        shutil.rmtree(copy)
    if traced:
        tracer.uninstall()
    checks["recovered_levels_equal_live"] = recovered_ok

    # -- correctness gate (untimed) --------------------------------------
    try:
        eng.check_invariants()
        checks["invariants"] = True
    except (AssertionError, ReproError):
        checks["invariants"] = False
    exact = core_decomposition(eng.graph)
    sample = np.random.default_rng([seed, 4]).choice(n, APPROX_SAMPLE, replace=False)
    within = 0
    for v in sample.tolist():
        lo, hi = lemma_3_2_bounds(eng.params, int(exact[v]))
        within += lo <= co.read(v) <= hi
    checks["reads_within_2_plus_eps"] = within == APPROX_SAMPLE
    checks["rule_e_first_epoch"] = np.array_equal(pin0.snapshot.levels, levels0)
    pin0.release()
    with co.pin_epoch() as pin:
        checks["rule_e_last_epoch"] = (
            pin.epoch == eng.batch_number
            and np.array_equal(pin.snapshot.levels, np.asarray(live))
        )
    sizes = [len(s) for s in client.applied_in]
    checks["one_batch_per_submission"] = (
        sizes == [1] * count
        and len({next(iter(s)) for s in client.applied_in}) == count
        and co.telemetry.batches_applied == count
    )
    checks["all_acked"] = acked == count * wl.batch
    checks["no_failures"] = client.failed == 0
    calib_after = calibrate()

    ack = np.concatenate(client.ack) if client.ack else np.zeros(1)
    figures = {
        "setup_s": (statistics.median(setup_times), "s"),
        "write_eps": (acked / wall, "1/s"),
        "ack_p50_ms": (pct(ack, 50) * 1e3, "ms"),
        "ack_p99_ms": (pct(ack, 99) * 1e3, "ms"),
        "read_p50_us": (pct(client.read_lat, 50) * 1e6, "us"),
        "read_p99_us": (pct(client.read_lat, 99) * 1e6, "us"),
        "bulk_read_p50_ms": (pct(client.bulk_lat, 50) * 1e3, "ms"),
        "bulk_read_p99_ms": (pct(client.bulk_lat, 99) * 1e3, "ms"),
        "recover_s": (statistics.median(recover_times), "s"),
        "disk_bytes_per_update": (
            (journal_bytes + sum(new_ckpts.values())) / max(acked, 1), "bytes"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    if traced:
        metrics = layer_metrics(tracer, wl, count, acked, wall, journal_bytes,
                                read_counts, client, seed)
    else:
        metrics = {k: v for k, v in figures.items() if k in GATED}
    correct = all(checks.values())
    diagnostics = {
        "workload": wl.name,
        "seed": seed,
        "calibration_before_s": round(calib_before, 4),
        "calibration_after_s": round(calib_after, 4),
        "client_late_p99_ms": round(pct(client.late, 99) * 1e3, 3),
        "switch_interval_s": sys.getswitchinterval(),
        "setup_times_s": [round(t, 3) for t in setup_times],
        "recover_times_s": [round(t, 3) for t in recover_times],
        "samples": {
            "updates": int(ack.size),
            "point_reads": len(client.read_lat),
            "bulk_reads": len(client.bulk_lat),
        },
        "checks": checks,
        "ungated": {
            k: {"value": v, "unit": u} for k, (v, u) in figures.items() if k not in GATED
        },
    }
    counts = {
        "batches": count,
        "checkpoints": in_run_ckpts,
        "replayed_batches": replayed,
        "journal_bytes": journal_bytes,
        "checkpoint_bytes": sum(new_ckpts.values()),
    }
    print(json.dumps({"diagnostics": diagnostics, "counts": counts}))
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if correct else 1


def layer_metrics(tracer, wl, count, acked, wall, journal_bytes, read_counts,
                  client, seed) -> dict:
    """Per-layer metrics of a traced run; also writes the span file and
    prints the layer table."""
    from spans import analyse, layer_table

    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"spans-{wl.name}-{seed}.jsonl"))
    a = analyse(tracer.spans)
    writer = a["writer"]
    rows, busy, leftover = layer_table(writer)

    def self_s(name: str) -> float:
        return writer.get(name, [0.0, 0])[0]

    def n_calls(name: str) -> int:
        return writer.get(name, [0.0, 0])[1]

    per_batch_ms = lambda name: self_s(name) / count * 1e3  # noqa: E731
    lines = [f"layer table ({wl.name}, seed {seed}): writer busy {busy:.3f} s "
             f"over {count} batches"]
    lines.append(f"{'layer':28s} {'self_s':>9s} {'count':>7s} {'share':>7s}")
    for name, s, c, share in rows:
        lines.append(f"{name:28s} {s:9.3f} {c:7d} {share:7.1%}")
    lines.append(f"{'(leftover)':28s} {leftover:9.3f} {'':7s} {leftover / busy:7.1%}")
    print("\n".join(lines))

    rec = a["recover"]

    def rec_med(name: str, idx: int) -> float:
        return statistics.median(r.get(name, [0.0, 0, 0.0])[idx] for r in rec)

    submits = a["other"].get("coordinator.submit", [0.0])
    reads = a["other"].get("read.call", [0.0])
    bulk = a["other"].get("epoch.bulk", [])
    retries, live_reads, desc_reads = read_counts
    moves, rounds, marked, dags = a["engine_counts"]
    waits = tracer.queue_waits or [0.0]
    return {
        "coordinator.submit_us": (statistics.fmean(submits) * 1e6, "us"),
        "coordinator.queue_wait_p50_ms": (pct(waits, 50) * 1e3, "ms"),
        "coordinator.queue_wait_p99_ms": (pct(waits, 99) * 1e3, "ms"),
        "coordinator.batch_size": (statistics.fmean(a["batch_sizes"]), "count"),
        "supervisor.self_ms": (per_batch_ms("supervisor"), "ms"),
        "persist.journal_ms": (per_batch_ms("persist.journal"), "ms"),
        "persist.journal_bytes_per_update": (journal_bytes / max(acked, 1), "bytes"),
        "persist.checkpoint_s": (
            self_s("persist.checkpoint") / max(n_calls("persist.checkpoint"), 1), "s"
        ),
        "persist.checkpoint_verify_s": (
            self_s("persist.checkpoint_verify")
            / max(n_calls("persist.checkpoint_verify"), 1), "s"
        ),
        "persist.checkpoints": (n_calls("persist.checkpoint"), "count"),
        "persist.recover_load_s": (rec_med("persist.recover_load", 2), "s"),
        "persist.replay_s": (rec_med("engine", 2), "s"),
        "persist.replay_batches": (rec_med("engine", 1), "count"),
        "persist.compact_s": (rec_med("persist.compact", 2), "s"),
        "engine.batch_ms": (per_batch_ms("engine"), "ms"),
        "frontier.insert_rounds_ms": (per_batch_ms("frontier.insert_rounds"), "ms"),
        "frontier.delete_rounds_ms": (per_batch_ms("frontier.delete_rounds"), "ms"),
        "marking.batch_end_ms": (per_batch_ms("marking.batch_end"), "ms"),
        "store.apply_edges_ms": (per_batch_ms("store.apply_edges"), "ms"),
        "store.csr_rebuild_ms": (per_batch_ms("store.csr_rebuild"), "ms"),
        "store.csr_rebuilds": (n_calls("store.csr_rebuild"), "count"),
        "graph.filter_ms": (per_batch_ms("graph.filter"), "ms"),
        "epoch.publish_ms": (per_batch_ms("epoch.publish"), "ms"),
        "epoch.bulk_ms": (sum(bulk) / max(len(client.bulk_lat), 1) * 1e3, "ms"),
        "epoch.force_advanced": (client.force_advanced, "count"),
        "read.call_us": (statistics.fmean(reads) * 1e6, "us"),
        "read.retries": (retries, "count"),
        "read.descriptor_frac": (desc_reads / max(live_reads + desc_reads, 1), "ratio"),
        "engine.moves": (int(moves), "count"),
        "engine.rounds": (int(rounds), "count"),
        "engine.marked": (int(marked), "count"),
        "engine.dags": (int(dags), "count"),
        "client.late_p99_ms": (pct(client.late, 99) * 1e3, "ms"),
        "writer.busy_s": (busy, "s"),
        "writer.leftover_frac": (leftover / busy, "ratio"),
        "trace.write_eps": (acked / wall, "1/s"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_repro()
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
