"""Machine-readable benchmark summary for the level-store backends.

Runs the Fig 3 (read latency), Fig 5 (batch update time) and Fig 7
(virtual-time throughput) drivers once per backend and writes one JSON
document with per-figure CPLDS medians plus two single-trial headline
ratios of the frontier engine against the object reference:

* ``fig5_frontier_speedup`` — object median batch time /
  columnar-frontier median batch time (> 1 means the frontier engine
  updates faster);
* ``fig3_frontier_latency_ratio`` — columnar-frontier median read latency
  / object median (≈ 1 means no read-side regression for its
  union-find-walking readers).

The document also embeds a ``metrics`` section captured from the
observability registry (:mod:`repro.obs`): per backend, the deterministic
**work counters** (:data:`WORK_COUNTERS` — rebalancing rounds, total moves,
marked vertices, DAG counts) measured over the seeded Fig 3 + Fig 5 runs,
plus a full registry snapshot for inspection.  The work counters are
machine-independent, which is what lets CI compare them exactly
(:mod:`repro.harness.bench_gate`); wall-clock numbers are only ever
warned about.

Each backend additionally carries a ``staleness`` section — the sandwich
protocol's read-staleness accounting (live vs descriptor read counts,
retry rates, staleness-epoch percentiles from
:mod:`repro.obs.staleness`) plus the :data:`~repro.obs.staleness.
DEFAULT_SLOS` report evaluated against that backend's run.  The
bench-gate warns (never fails) on SLO-budget regressions in this section.

Each backend also carries a ``fig_epoch`` section — bulk-read throughput
through the epoch-snapshot read tier (:mod:`repro.reads`) at 1x and 2x
update load; because pinned reads never touch the live structure the
2x/1x ratio should stay near 1.0, and the worst ratio across backends is
surfaced top-level as ``fig3_epoch_read_throughput_ratio``.

Usage::

    PYTHONPATH=src python -m repro.harness.bench_json  # writes BENCH_ARTIFACT
"""

from __future__ import annotations

import json
import math
import statistics
from typing import Sequence

from repro import obs
from repro.harness import experiments as E
from repro.obs import staleness as SL
from repro.lds.store import BACKENDS

#: The checked-in benchmark artifact at the repo root: the default output
#: of this module's CLI and the default ``--baseline`` of the CI gate
#: (:mod:`repro.harness.bench_gate`).  Bump the name when a PR
#: intentionally reshapes the document, and update the Makefile/CI docs
#: references along with it.
BENCH_ARTIFACT = "BENCH_pr16.json"

#: Deterministic work counters compared exactly by the CI bench-gate.
#: Everything here is a pure function of the (seeded) update stream — no
#: wall-clock, thread-timing or allocator influence.
WORK_COUNTERS = (
    "plds_moves_total",
    "plds_rounds_total",
    "cplds_batches_total",
    "cplds_marked_total",
    "cplds_dags_total",
)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _fig3_summary(config: E.ExperimentConfig) -> dict:
    rows = E.fig3(config)
    cplds = [r.stats.mean for r in rows if r.impl == "cplds"]
    return {
        "cplds_median_read_latency_s": _median(cplds),
        "rows": [
            {
                "dataset": r.dataset,
                "impl": r.impl,
                "phase": r.phase,
                "mean_s": r.stats.mean,
                "p99_s": r.stats.p99,
            }
            for r in rows
        ],
    }


def _fig5_summary(config: E.ExperimentConfig) -> dict:
    rows = E.fig5(config)
    cplds = [r.mean for r in rows if r.impl == "cplds"]
    return {
        "cplds_median_batch_time_s": _median(cplds),
        "rows": [
            {
                "dataset": r.dataset,
                "impl": r.impl,
                "phase": r.phase,
                "mean_s": r.mean,
                "max_s": r.max,
            }
            for r in rows
        ],
    }


def _fig7_summary(config: E.ExperimentConfig) -> dict:
    cfg = config.with_(datasets=config.datasets[:1])
    rows = E.fig7(cfg)
    cplds_read = [
        r.read_throughput
        for r in rows
        if r.impl == "cplds" and r.direction == "readers"
    ]
    cplds_write = [
        r.write_throughput
        for r in rows
        if r.impl == "cplds" and r.direction == "writers"
    ]
    return {
        "cplds_median_read_throughput": _median(cplds_read),
        "cplds_median_write_throughput": _median(cplds_write),
    }


def _epoch_read_summary(config: E.ExperimentConfig) -> dict:
    """Epoch-tier bulk-read throughput at 1x vs 2x update load.

    Must run *after* :func:`_work_counters` is captured: the extra stream
    applications legitimately add moves/rounds that are not part of the
    gated seeded run.
    """
    rows = E.fig_epoch_reads(config)
    by_factor = {r.update_factor: r for r in rows}
    base = by_factor.get(1)
    double = by_factor.get(2)
    ratio = (
        double.read_throughput / base.read_throughput
        if base and double and base.read_throughput
        else float("nan")
    )
    return {
        "read_throughput_1x": base.read_throughput if base else None,
        "read_throughput_2x": double.read_throughput if double else None,
        "throughput_ratio_2x_over_1x": _finite(ratio),
        "rows": [
            {
                "dataset": r.dataset,
                "update_factor": r.update_factor,
                "epochs_published": r.epochs_published,
                "vertices_read": r.vertices_read,
                "elapsed_s": r.elapsed_s,
                "read_throughput": r.read_throughput,
            }
            for r in rows
        ],
    }


def _work_counters() -> dict[str, int | float]:
    """The deterministic work counters, in catalog order (absent → 0)."""
    return {
        name: obs.REGISTRY.counter_value(name) for name in WORK_COUNTERS
    }


def _finite(value: float | None) -> float | None:
    """JSON-safe float: ``inf``/``nan`` (empty or overflowed histogram
    readouts) become ``None``."""
    if value is None or not math.isfinite(value):
        return None
    return value


def _staleness_summary(read_latency_p99_s: float | None = None) -> dict:
    """The sandwich-read staleness accounting for the current registry.

    ``read_latency_p99_s`` feeds the read-latency SLO target — the
    registry does not time individual reads, so the Fig 3 driver supplies
    its measured p99.
    """
    reg = obs.REGISTRY
    live = reg.counter_value("cplds_reads_live_total")
    descriptor = reg.counter_value("cplds_reads_descriptor_total")
    retries = reg.counter_value("cplds_read_retries_total")
    total = live + descriptor
    observations = SL.observations_from_registry(reg)
    if read_latency_p99_s is not None and math.isfinite(read_latency_p99_s):
        observations["read_latency_p99_s"] = read_latency_p99_s
    report = SL.evaluate(SL.DEFAULT_SLOS, observations)
    return {
        "reads_live": live,
        "reads_descriptor": descriptor,
        "descriptor_read_fraction": descriptor / total if total else 0.0,
        "retries_total": retries,
        "retries_per_read": retries / total if total else 0.0,
        "staleness_epochs_p50": _finite(observations.get("staleness_epochs_p50")),
        "staleness_epochs_p99": _finite(observations.get("staleness_epochs_p99")),
        "staleness_epochs_max": _finite(observations.get("staleness_epochs_max")),
        "slo": report.as_dict(),
    }


def collect(config: E.ExperimentConfig) -> dict:
    """Run Figs 3/5/7 for every backend and assemble the summary document.

    Observability is force-enabled for the duration (and restored after),
    with a registry reset per backend so each ``metrics`` entry covers
    exactly that backend's runs.
    """
    per_backend: dict[str, dict] = {}
    metrics: dict[str, dict] = {}
    was_enabled = obs.enabled()
    obs.enable()
    try:
        for backend in BACKENDS:
            cfg = config.with_(backend=backend)
            obs.reset()
            fig3 = _fig3_summary(cfg)
            fig5 = _fig5_summary(cfg)
            # Captured before Fig 7: its throughput loops are time-driven,
            # so their work is not a pure function of the stream.
            work = _work_counters()
            stale = _staleness_summary(
                read_latency_p99_s=_median(
                    [r["p99_s"] for r in fig3["rows"] if r["impl"] == "cplds"]
                )
            )
            fig7 = _fig7_summary(cfg)
            fig_epoch = _epoch_read_summary(cfg)
            per_backend[backend] = {
                "fig3": fig3,
                "fig5": fig5,
                "fig7": fig7,
                "fig_epoch": fig_epoch,
                "staleness": stale,
            }
            metrics[backend] = {
                "work": work,
                "snapshot": obs.snapshot(),
            }
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()
    obj = per_backend["object"]
    frontier = per_backend["columnar-frontier"]
    epoch_ratios = [
        per_backend[b]["fig_epoch"]["throughput_ratio_2x_over_1x"]
        for b in BACKENDS
    ]
    epoch_ratios = [r for r in epoch_ratios if r is not None]
    return {
        "config": {
            "datasets": list(config.datasets),
            "batch_size": config.batch_size,
            "trials": config.trials,
        },
        "backends": per_backend,
        "metrics": metrics,
        "fig5_frontier_speedup": (
            obj["fig5"]["cplds_median_batch_time_s"]
            / frontier["fig5"]["cplds_median_batch_time_s"]
        ),
        "fig3_frontier_latency_ratio": (
            frontier["fig3"]["cplds_median_read_latency_s"]
            / obj["fig3"]["cplds_median_read_latency_s"]
        ),
        # Epoch-tier bulk reads: vertices/s at 1x update load per backend,
        # and the worst 2x-load/1x-load ratio across backends (pinned
        # reads never touch the write path, so this should stay near 1.0).
        "fig3_epoch_read_throughput": {
            b: per_backend[b]["fig_epoch"]["read_throughput_1x"]
            for b in BACKENDS
        },
        "fig3_epoch_read_throughput_ratio": (
            min(epoch_ratios) if epoch_ratios else None
        ),
    }


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: run the per-backend figure sweep and write the JSON summary."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=BENCH_ARTIFACT,
                        help=f"output path (default: {BENCH_ARTIFACT})")
    parser.add_argument("--full", action="store_true",
                        help="use the FULL config instead of QUICK")
    args = parser.parse_args(argv)
    # Warmup trimming only drops latency *samples*; the work counters are
    # a function of the streams applied, so the exact gate is unaffected.
    config = (E.FULL if args.full else E.QUICK).with_(warmup_fraction=0.1)
    doc = collect(config)
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    epoch_ratio = doc["fig3_epoch_read_throughput_ratio"]
    print(
        f"wrote {args.output}: "
        f"fig5_frontier_speedup={doc['fig5_frontier_speedup']:.2f}x "
        f"fig3_frontier_latency_ratio={doc['fig3_frontier_latency_ratio']:.2f}x "
        f"fig3_epoch_read_throughput_ratio="
        f"{epoch_ratio if epoch_ratio is None else f'{epoch_ratio:.2f}x'}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
