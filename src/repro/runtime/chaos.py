"""Deterministic chaos harness for the supervised service layer.

Everything here is a pure function of the seed: the workload (a long mixed
insert/delete stream), the fault schedule (mid-batch crashes à la
``DieAfterMoves``, always-failing *poison* edges, simulated process crashes
with journal tail truncation and checkpoint corruption), and therefore the
entire execution — the supervised engine is synchronous and the PLDS is
deterministic under the sequential executor.  That makes every chaos run a
reproducible regression test rather than a flaky stress test.

The verdict is an **oracle equivalence check**: the harness keeps its own
record of every sub-batch the service reports as committed (trimmed to the
recovered prefix after each simulated crash), replays that history into a
fresh-built CPLDS, and requires the supervised structure's coreness
estimate for *every* vertex to match the oracle's exactly — plus clean LDS
invariants, an edge set matching the harness's own bookkeeping, and a final
health state that never needed operator intervention.

The read tier is probed alongside: every batch (and every simulated process
crash) runs under a held epoch pin, and the harness requires each pin's
bulk read to stay bit-identical across the fault — or to have been
force-advanced because recovery rolled its epoch back.  The probes consume
no rng, so the fault schedule is unchanged by their presence.

Run one schedule with :func:`run_chaos`; sweep many with
``python -m repro.runtime.chaos --seeds 50``.
"""

from __future__ import annotations

import os
import random
import tempfile
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.cplds import CPLDS
from repro.lds.plds import Phase, UpdateHooks
from repro.obs.flightrec import RECORDER as _REC, EventType as _EV
from repro.runtime.inject import HookChain
from repro.runtime.supervisor import (
    AppliedRecord,
    HealthState,
    SupervisedCPLDS,
    _list_checkpoints,
)
from repro.types import Edge, canonical_edge


class ChaosHooks(UpdateHooks):
    """Seeded fault injector chained after a structure's own hooks.

    Two fault modes, driven by the harness between batches:

    * :meth:`arm_crash` — raise after the k-th vertex move, for the next
      ``times`` application attempts (``times`` ≤ the supervisor's retry
      budget exercises recovery+retry; larger values force a bisection);
    * :attr:`poison` — edges whose presence in a phase's applied sub-batch
      always raises, modelling updates that fail deterministically until
      the supervisor quarantines them.
    """

    def __init__(self) -> None:
        self.poison: set[Edge] = set()
        self._crash_after = 0
        self._crash_times = 0
        self._moves = 0
        self._counting = False

    def arm_crash(self, after_moves: int, times: int) -> None:
        """Fail the next ``times`` attempts after ``after_moves`` moves."""
        self._crash_after = after_moves
        self._crash_times = times

    def clear(self) -> None:
        """Disarm every fault (harness calls this between batches)."""
        self.poison.clear()
        self._crash_times = 0
        self._counting = False

    # -- hook callbacks --------------------------------------------------
    def batch_begin(self, kind: Phase, edges: Sequence[Edge]) -> None:
        if self.poison and self.poison & {canonical_edge(u, v) for u, v in edges}:
            raise RuntimeError("chaos: poison update in batch")
        self._moves = 0
        self._counting = self._crash_times > 0

    def before_move(self, v: int, old: int, new: int, phase: Phase) -> None:
        if not self._counting:
            return
        self._moves += 1
        if self._moves > self._crash_after:
            self._crash_times -= 1
            self._counting = False
            raise RuntimeError("chaos: injected mid-batch crash")


@dataclass(frozen=True)
class ChaosResult:
    """Verdict and statistics of one seeded chaos schedule."""

    seed: int
    backend: str
    num_vertices: int
    batches_submitted: int
    crashes_armed: int
    poison_edges: int
    restarts: int
    truncated_bytes: int
    checkpoints_corrupted: int
    quarantined: int
    recoveries: int
    final_health: str
    #: Vertices whose final estimate differed from the oracle (empty = pass).
    mismatches: tuple[int, ...]
    #: True iff estimates matched, invariants held, the edge set matched the
    #: harness's bookkeeping, and the service never needed an operator.
    converged: bool
    telemetry: dict = field(default_factory=dict)
    #: Basenames of every flight-recorder crash dump the run produced
    #: (empty unless ``record=True``).  Basenames, not paths, so results
    #: stay comparable across throwaway directories.
    crash_dumps: tuple[str, ...] = ()
    #: Epoch-pin immutability probes taken (one per batch, one per restart).
    epoch_pins_checked: int = 0
    #: Batch indices where a held pin's bulk read changed without the pin
    #: being force-advanced (empty = pass; folded into ``converged``).
    epoch_pin_mismatches: tuple[int, ...] = ()
    #: Total force-advances observed across probes (epochs rolled back by
    #: mid-batch recovery).
    epoch_pins_advanced: int = 0


def _sample_batch(
    rng: random.Random, n: int, live: set[Edge]
) -> tuple[list[Edge], list[Edge]]:
    """One seeded mixed batch: fresh insertions + deletions of live edges."""
    ins: list[Edge] = []
    want = rng.randint(1, 8)
    attempts = 0
    while len(ins) < want and attempts < 50:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = canonical_edge(u, v)
        if e in live or e in ins:
            continue
        ins.append(e)
    dels: list[Edge] = []
    if live:
        k = min(len(live), rng.randint(0, 4))
        dels = rng.sample(sorted(live), k)
    return ins, dels


def _corrupt_checkpoint(path: str, rng: random.Random) -> None:
    """Overwrite a slice in the middle of a checkpoint file."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(max(0, size // 2 - 8))
        fh.write(bytes(rng.getrandbits(8) for _ in range(16)))


def _truncate_tail(path: str, rng: random.Random) -> int:
    """Chop a seeded number of bytes off the journal tail; returns count."""
    size = os.path.getsize(path)
    chop = min(rng.randint(1, 120), max(0, size - 80))
    if chop > 0:
        with open(path, "r+b") as fh:
            fh.truncate(size - chop)
    return chop


def run_chaos(
    seed: int,
    journal_dir: str | os.PathLike[str],
    *,
    num_batches: int | None = None,
    backend: str = "object",
    record: bool = False,
    dump_dir: str | os.PathLike[str] | None = None,
) -> ChaosResult:
    """Execute one seeded fault schedule against a supervised service.

    Drives a mixed workload through a :class:`SupervisedCPLDS` (journaled
    into ``journal_dir``, which must be empty) while injecting the seed's
    fault schedule, then renders the oracle-equivalence verdict described
    in the module docstring.  Everything — workload, faults, recovery — is
    deterministic in ``seed``; ``backend`` picks the level-store layout
    without perturbing the schedule (rng consumption is backend-blind).

    With ``record=True`` the process-wide flight recorder is cleared and
    enabled for the duration of the run (its previous on/off state is
    restored afterwards): every distress transition, simulated restart and
    divergent verdict dumps the recorder tail into ``dump_dir`` (default:
    ``journal_dir``), and the dump basenames land in
    :attr:`ChaosResult.crash_dumps`.  Recording does not consume rng, so
    the fault schedule is identical with and without it.
    """
    if record:
        was_enabled = _REC.enabled
        _REC.clear()  # seq restarts at 0: dump names deterministic in seed
        _REC.enable()
        try:
            return _run_chaos_inner(
                seed, journal_dir,
                num_batches=num_batches, backend=backend, dump_dir=dump_dir,
            )
        finally:
            _REC.enabled = was_enabled
    return _run_chaos_inner(
        seed, journal_dir,
        num_batches=num_batches, backend=backend, dump_dir=dump_dir,
    )


def _run_chaos_inner(
    seed: int,
    journal_dir: str | os.PathLike[str],
    *,
    num_batches: int | None = None,
    backend: str = "object",
    dump_dir: str | os.PathLike[str] | None = None,
) -> ChaosResult:
    from repro import engines

    rng = random.Random(seed)
    n = rng.randint(16, 40)
    batches = num_batches if num_batches is not None else rng.randint(12, 24)
    max_retries = rng.randint(1, 2)
    directory = os.fspath(journal_dir)
    dump_root = os.fspath(dump_dir) if dump_dir is not None else directory

    hooks = ChaosHooks()

    def attach(impl: CPLDS) -> None:
        impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

    service = SupervisedCPLDS(
        engines.create("cplds", n, backend=backend),
        journal_dir=directory,
        checkpoint_every=rng.randint(2, 6),
        keep_checkpoints=2,
        max_retries=max_retries,
        backoff_base=0.0,
        degraded_clearance=2,
        crash_dump_dir=dump_root,
    )
    attach(service.impl)
    service.post_restore = attach
    crash_dumps: list[str] = []

    # Pre-draw the restart schedule so rng consumption stays independent of
    # outcomes: up to two simulated process crashes at fixed batch indices.
    restart_at = set(rng.sample(range(1, batches), min(2, batches - 1)))

    live: set[Edge] = set()
    history: list[AppliedRecord] = []
    crashes_armed = poison_edges = restarts = 0
    truncated_bytes = checkpoints_corrupted = quarantined = 0
    epoch_pins_checked = epoch_pins_advanced = 0
    epoch_pin_mismatches: list[int] = []

    for i in range(batches):
        ins, dels = _sample_batch(rng, n, live)
        roll = rng.random()
        crash_moves = rng.randint(1, 6)
        crash_times = rng.randint(1, max_retries + 2)
        poison_pick = rng.randrange(len(ins)) if ins else 0
        if roll < 0.40:
            hooks.arm_crash(crash_moves, crash_times)
            crashes_armed += 1
            if _REC.enabled:
                _REC.record(_EV.CHAOS_FAULT, 1, crash_moves, crash_times)
        elif roll < 0.55 and ins:
            hooks.poison = {ins[poison_pick]}
            poison_edges += 1
            if _REC.enabled:
                _REC.record(_EV.CHAOS_FAULT, 2, poison_pick)

        pin = service.pin_epoch()
        pin_before = tuple(pin.coreness_many(range(n)).tolist())

        outcome = service.apply_batch(ins, dels)
        hooks.clear()
        # A pin held across the batch — including any mid-batch recovery —
        # must either read bit-identically or have been force-advanced
        # because recovery rolled its epoch back.
        pin_after = tuple(pin.coreness_many(range(n)).tolist())
        epoch_pins_checked += 1
        if pin.advanced:
            epoch_pins_advanced += pin.advanced
        elif pin_after != pin_before:
            epoch_pin_mismatches.append(i)
        pin.release()
        quarantined += len(outcome.dropped)
        history.extend(outcome.applied)
        for rec in outcome.applied:
            live.update(rec.insertions)
            live.difference_update(rec.deletions)

        if i in restart_at:
            # Simulated process crash: no graceful close, maybe a torn /
            # truncated journal tail, maybe a corrupted newest checkpoint.
            restarts += 1
            if _REC.enabled:
                _REC.record(_EV.CHAOS_FAULT, 3, i)
            crash_dumps.extend(service.crash_dumps)
            restart_pin = service.pin_epoch()
            restart_before = tuple(
                restart_pin.coreness_many(range(n)).tolist()
            )
            service._journal.close()
            jpath = os.path.join(directory, "journal.jsonl")
            if rng.random() < 0.6:
                chop = _truncate_tail(jpath, rng)
                truncated_bytes += chop
                if _REC.enabled and chop:
                    _REC.record(_EV.CHAOS_FAULT, 4, chop)
            ckpts = _list_checkpoints(directory)
            if ckpts and rng.random() < 0.5:
                _corrupt_checkpoint(ckpts[0][1], rng)
                checkpoints_corrupted += 1
                if _REC.enabled:
                    _REC.record(_EV.CHAOS_FAULT, 5, ckpts[0][0])
            service, report = SupervisedCPLDS.open(
                directory,
                checkpoint_every=rng.randint(2, 6),
                keep_checkpoints=2,
                max_retries=max_retries,
                backoff_base=0.0,
                degraded_clearance=2,
                crash_dump_dir=dump_root,
            )
            attach(service.impl)
            service.post_restore = attach
            # A restart is an induced failure with no health transition on
            # the (fresh) service: dump its recovery timeline explicitly.
            service.dump_flight_record(f"restart-{restarts}")
            # The pin taken before the process crash leases a snapshot of
            # the dead service's store; it must keep reading bit-identically
            # even though the replacement service runs a fresh store seeded
            # at the recovered prefix.
            epoch_pins_checked += 1
            restart_after = tuple(
                restart_pin.coreness_many(range(n)).tolist()
            )
            if restart_after != restart_before:
                epoch_pin_mismatches.append(i)
            restart_pin.release()
            # Durability contract: recovery lands on a consistent prefix.
            history = [r for r in history if r.seq <= report.recovered_through]
            live = set()
            for rec in history:
                live.update(rec.insertions)
                live.difference_update(rec.deletions)

    # ------------------------------------------------------------------
    # Verdict
    # ------------------------------------------------------------------
    oracle = engines.create(
        "cplds", n, params=service.impl.params, backend=backend
    )
    for rec in history:
        oracle.apply_batch(rec.insertions, rec.deletions)
    mismatches = tuple(
        v for v in range(n) if service.read(v) != oracle.read(v)
    )
    structure_ok = True
    try:
        service.impl.check_invariants()
    except Exception:
        structure_ok = False
    edges_ok = set(map(tuple, service.impl.graph.edges())) == live
    health_ok = service.health in (HealthState.HEALTHY, HealthState.DEGRADED)
    converged = (
        not mismatches
        and structure_ok
        and edges_ok
        and health_ok
        and not epoch_pin_mismatches
    )
    if not converged:
        # Divergent verdict: capture the timeline for the post-mortem.
        service.dump_flight_record("diverged")
    crash_dumps.extend(service.crash_dumps)
    service.close()
    return ChaosResult(
        seed=seed,
        backend=backend,
        num_vertices=n,
        batches_submitted=batches,
        crashes_armed=crashes_armed,
        poison_edges=poison_edges,
        restarts=restarts,
        truncated_bytes=truncated_bytes,
        checkpoints_corrupted=checkpoints_corrupted,
        quarantined=quarantined,
        recoveries=service.telemetry.recoveries,
        final_health=service.health.name,
        mismatches=mismatches,
        converged=converged,
        telemetry=service.telemetry.as_dict(),
        crash_dumps=tuple(crash_dumps),
        epoch_pins_checked=epoch_pins_checked,
        epoch_pin_mismatches=tuple(epoch_pin_mismatches),
        epoch_pins_advanced=epoch_pins_advanced,
    )


def run_sweep(
    seeds: Sequence[int],
    *,
    backend: str = "object",
    record: bool = False,
    dump_dir: str | os.PathLike[str] | None = None,
) -> list[ChaosResult]:
    """Run one schedule per seed (each in a throwaway directory).

    With ``record``/``dump_dir`` set, each seed's flight-recorder crash
    dumps land in ``<dump_dir>/seed-<NNNN>/``.
    """
    results = []
    for seed in seeds:
        seed_dump: str | None = None
        if dump_dir is not None:
            seed_dump = os.path.join(os.fspath(dump_dir), f"seed-{seed:04d}")
            os.makedirs(seed_dump, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=f"chaos-{seed}-") as d:
            results.append(
                run_chaos(seed, d, backend=backend, record=record,
                          dump_dir=seed_dump)
            )
    return results


def _verify_dumps(dump_dir: str, results: Sequence[ChaosResult]) -> list[str]:
    """Parse every crash dump a sweep wrote; return unparseable paths."""
    from repro.obs import flightrec

    bad = []
    for r in results:
        for name in r.crash_dumps:
            path = os.path.join(dump_dir, f"seed-{r.seed:04d}", name)
            try:
                flightrec.load(path)
            except Exception:
                bad.append(path)
    return bad


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: sweep N seeds and report; exit non-zero on any divergence."""
    import argparse

    from repro import engines

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=50,
                        help="number of seeded schedules to run")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed of the sweep")
    parser.add_argument("--backend", default="object",
                        choices=engines.backends(),
                        help="level-store backend (default: object)")
    parser.add_argument("--record", action="store_true",
                        help="enable the flight recorder; dump on every "
                             "induced failure")
    parser.add_argument("--dump-dir", default=None,
                        help="directory for flight-recorder crash dumps "
                             "(per-seed subdirectories; implies --record)")
    args = parser.parse_args(argv)
    record = args.record or args.dump_dir is not None
    if record and args.dump_dir is None:
        parser.error("--record requires --dump-dir (nowhere to keep dumps)")
    results = run_sweep(
        range(args.start, args.start + args.seeds),
        backend=args.backend,
        record=record,
        dump_dir=args.dump_dir,
    )
    failures = [r for r in results if not r.converged]
    total_faults = sum(
        r.crashes_armed + r.poison_edges + r.restarts for r in results
    )
    print(
        f"chaos sweep [{args.backend}]: {len(results)} schedules, "
        f"{total_faults} faults, "
        f"{sum(r.recoveries for r in results)} recoveries, "
        f"{sum(r.quarantined for r in results)} quarantined updates, "
        f"{sum(r.epoch_pins_checked for r in results)} epoch-pin probes "
        f"({sum(r.epoch_pins_advanced for r in results)} force-advanced), "
        f"{len(failures)} divergences"
    )
    for r in failures:
        print(f"  seed {r.seed}: mismatches={r.mismatches} "
              f"pin_mismatches={r.epoch_pin_mismatches} "
              f"health={r.final_health}")
    if record:
        total_dumps = sum(len(r.crash_dumps) for r in results)
        bad = _verify_dumps(args.dump_dir, results)
        print(f"flight-recorder dumps: {total_dumps} written, "
              f"{len(bad)} unparseable")
        for path in bad:
            print(f"  unparseable: {path}")
        if bad:
            return 1
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
