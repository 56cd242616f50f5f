"""Per-read staleness accounting and declarative SLO evaluation.

The paper's sandwich protocol (Algorithm 4) means every read falls into
one of two staleness classes: a **live** read (the descriptor check found
no in-flight mark, so the returned level is the current one — 0 epochs
behind) or a **descriptor** read (the vertex was marked by the batch in
flight, so the returned level is the pre-batch ``old_level`` — exactly 1
epoch behind the live structure).  Two more classes come from the service
layer: **epoch** reads served from the multi-version read tier
(:mod:`repro.reads`), whose staleness is the pinned epoch's distance from
the newest published epoch and is bounded by the store's staleness budget;
and **degraded** reads, which the supervisor serves from the newest
retained epoch while recovery is in flight, whose age is bounded only by
the publish cadence.  This module turns those classes into registry
metrics and machine-readable SLO verdicts.

Metrics (all in ``repro.obs.REGISTRY``; see ``docs/observability.md``):

* ``cplds_reads_live_total`` / ``cplds_reads_descriptor_total`` —
  counters tagging every successful ``CPLDS.read`` / ``FrontierCPLDS.read``
  with the epoch window it was sandwiched against.
* ``cplds_read_staleness_epochs`` — histogram of epochs-behind-live
  (0 for live reads, 1 for descriptor reads, the snapshot age for
  degraded reads).  Deterministic on single-threaded replays: the marked
  set is a pure function of the update stream, so all backends report
  identical histograms (``tests/test_staleness.py``).
* ``service_snapshot_age_epochs`` — histogram of degraded-read epoch
  ages (``live batch_number - served epoch``).
* ``service_recovery_seconds`` — histogram of supervisor recovery times.
* ``epoch_reads_total`` / ``epoch_pins_total`` /
  ``epoch_pins_force_advanced_total`` — read-tier traffic counters.
* ``epoch_read_staleness_epochs`` — histogram of epochs-behind-newest for
  every bulk read served through an :class:`repro.reads.EpochPin`.
* ``epoch_top_k_selections_total`` — top-k selections a snapshot ran
  because its stored prefix was shorter than the k asked for (misses of
  the per-snapshot top-k memo; hits are not counted).

SLOs are declarative :class:`SLOTarget` rows evaluated against an
observation dict (:func:`observations_from_registry` derives one from the
live registry) into PASS / WARN / FAIL / NODATA verdicts; ``repro-top``
and ``bench_json``/``bench_gate`` consume the resulting
:class:`SLOReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import REGISTRY, TIME_BUCKETS
from repro.obs.registry import Histogram, MetricsRegistry

__all__ = [
    "DEFAULT_SLOS",
    "EPOCH_BUCKETS",
    "EPOCH_PINS",
    "EPOCH_PINS_ADVANCED",
    "EPOCH_READS",
    "EPOCH_READ_STALENESS",
    "EPOCH_TOP_K_SELECTIONS",
    "READS_DESCRIPTOR",
    "READS_LIVE",
    "RECOVERY_SECONDS",
    "SLOReport",
    "SLOTarget",
    "SLOVerdict",
    "SNAPSHOT_AGE",
    "STALENESS_EPOCHS",
    "evaluate",
    "histogram_max_bound",
    "histogram_quantile",
    "observations_from_registry",
]

#: Buckets for epochs-behind-live.  ``log_buckets`` needs a positive start,
#: but staleness 0 (live read) vs 1 (descriptor read) is the distinction
#: the whole module exists to draw — so the 0.0 bucket is explicit.
EPOCH_BUCKETS: Tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

# Import-time cached handles on the process-wide registry (the registry
# zeroes in place, so these survive obs.reset()).
READS_LIVE = REGISTRY.counter("cplds_reads_live_total")
READS_DESCRIPTOR = REGISTRY.counter("cplds_reads_descriptor_total")
STALENESS_EPOCHS = REGISTRY.histogram("cplds_read_staleness_epochs", EPOCH_BUCKETS)
SNAPSHOT_AGE = REGISTRY.histogram("service_snapshot_age_epochs", EPOCH_BUCKETS)
RECOVERY_SECONDS = REGISTRY.histogram("service_recovery_seconds", TIME_BUCKETS)
EPOCH_READS = REGISTRY.counter("epoch_reads_total")
EPOCH_READ_STALENESS = REGISTRY.histogram(
    "epoch_read_staleness_epochs", EPOCH_BUCKETS
)
EPOCH_PINS = REGISTRY.counter("epoch_pins_total")
EPOCH_PINS_ADVANCED = REGISTRY.counter("epoch_pins_force_advanced_total")
EPOCH_TOP_K_SELECTIONS = REGISTRY.counter("epoch_top_k_selections_total")


# ---------------------------------------------------------------------------
# Histogram readouts
# ---------------------------------------------------------------------------

def histogram_quantile(hist: Histogram, q: float) -> float:
    """Upper-bound estimate of the ``q`` quantile of ``hist``.

    Returns the smallest bucket bound whose cumulative count reaches
    ``q * count`` (Prometheus ``histogram_quantile`` flavour: exact for
    integral observations landing on bounds, an upper bound otherwise).
    Returns ``nan`` for an empty histogram and ``inf`` when the quantile
    falls in the overflow bucket.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = hist.count
    if total == 0:
        return float("nan")
    rank = q * total
    for bound, cum in hist.cumulative():
        if cum >= rank:
            return bound
    return float("inf")


def histogram_max_bound(hist: Histogram) -> float:
    """Upper bound on the largest observation in ``hist``.

    The smallest bucket bound at or above every observation; ``inf`` when
    the overflow bucket is populated, ``nan`` when empty.
    """
    return histogram_quantile(hist, 1.0)


# ---------------------------------------------------------------------------
# Declarative SLOs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLOTarget:
    """One declarative target: ``observation`` must stay ≤ ``threshold``.

    ``warn_fraction`` sets the WARN band: an observed value above
    ``warn_fraction * threshold`` (but still within the threshold) is a
    WARN — the budget is mostly spent.  A missing observation yields
    NODATA, which counts as passing (nothing ran that could violate it).
    """

    name: str
    observation: str
    threshold: float
    warn_fraction: float = 0.8
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.warn_fraction <= 1.0:
            raise ValueError("warn_fraction must be in [0, 1]")


@dataclass(frozen=True)
class SLOVerdict:
    """The evaluation of one target against one observation."""

    target: SLOTarget
    observed: Optional[float]
    status: str  # "PASS" | "WARN" | "FAIL" | "NODATA"

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"


@dataclass(frozen=True)
class SLOReport:
    """All verdicts of one evaluation pass."""

    verdicts: Tuple[SLOVerdict, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def status(self) -> str:
        statuses = {v.status for v in self.verdicts}
        if "FAIL" in statuses:
            return "FAIL"
        if "WARN" in statuses:
            return "WARN"
        return "PASS"

    def as_dict(self) -> dict:
        """JSON-ready form (``inf`` observations become ``None``)."""
        return {
            "status": self.status,
            "verdicts": [
                {
                    "name": v.target.name,
                    "observation": v.target.observation,
                    "threshold": v.target.threshold,
                    "observed": (
                        v.observed
                        if v.observed is not None and math.isfinite(v.observed)
                        else None
                    ),
                    "status": v.status,
                }
                for v in self.verdicts
            ],
        }

    def render(self) -> str:
        """Human-readable table, one line per target."""
        lines = [f"SLO report: {self.status}"]
        for v in self.verdicts:
            observed = "-" if v.observed is None else f"{v.observed:g}"
            lines.append(
                f"  [{v.status:>6}] {v.target.name:<24} "
                f"observed={observed:<10} threshold={v.target.threshold:g}"
            )
        return "\n".join(lines)


def evaluate(
    targets: Sequence[SLOTarget], observations: Mapping[str, float]
) -> SLOReport:
    """Evaluate every target against the observation dict."""
    verdicts: List[SLOVerdict] = []
    for target in targets:
        observed = observations.get(target.observation)
        if observed is None or (isinstance(observed, float) and math.isnan(observed)):
            verdicts.append(SLOVerdict(target, None, "NODATA"))
            continue
        observed = float(observed)
        if observed > target.threshold:
            status = "FAIL"
        elif observed > target.warn_fraction * target.threshold:
            status = "WARN"
        else:
            status = "PASS"
        verdicts.append(SLOVerdict(target, observed, status))
    return SLOReport(tuple(verdicts))


def observations_from_registry(
    registry: MetricsRegistry | None = None,
) -> Dict[str, float]:
    """Derive the standard observation dict from a registry.

    Only quantities with data are emitted, so untouched metrics evaluate
    to NODATA instead of a spurious PASS/FAIL.
    """
    reg = registry if registry is not None else REGISTRY
    out: Dict[str, float] = {}

    def hist(name: str) -> Optional[Histogram]:
        h = reg._histograms.get((name, ()))
        return h if h is not None and h.count > 0 else None

    h = hist("cplds_read_staleness_epochs")
    if h is not None:
        out["staleness_epochs_p50"] = histogram_quantile(h, 0.5)
        out["staleness_epochs_p99"] = histogram_quantile(h, 0.99)
        out["staleness_epochs_max"] = histogram_max_bound(h)
    h = hist("cplds_read_retries_per_read")
    if h is not None:
        out["read_retries_p99"] = histogram_quantile(h, 0.99)
    h = hist("service_snapshot_age_epochs")
    if h is not None:
        out["snapshot_age_epochs_max"] = histogram_max_bound(h)
    h = hist("epoch_read_staleness_epochs")
    if h is not None:
        out["epoch_read_staleness_p99"] = histogram_quantile(h, 0.99)
        out["epoch_read_staleness_max"] = histogram_max_bound(h)
    h = hist("service_recovery_seconds")
    if h is not None:
        out["recovery_seconds_p99"] = histogram_quantile(h, 0.99)
    live = reg.counter_value("cplds_reads_live_total")
    desc = reg.counter_value("cplds_reads_descriptor_total")
    if live + desc > 0:
        out["descriptor_read_fraction"] = desc / (live + desc)
    return out


#: The repo's default targets, anchored in the paper's guarantees: a
#: sandwiched read is at most one epoch behind live (Theorem 5.2's window),
#: retries are contention-bounded, and the supervisor's recovery budget
#: matches docs/robustness.md.  ``read_latency_p99_s`` must be supplied by
#: the caller (e.g. bench_json from the Fig 3 driver) — the registry does
#: not time individual reads.
DEFAULT_SLOS: Tuple[SLOTarget, ...] = (
    SLOTarget(
        "staleness-p99",
        "staleness_epochs_p99",
        threshold=2.0,
        warn_fraction=0.5,
        description="p99 read staleness ≤ 2 epochs (descriptor reads are 1)",
    ),
    SLOTarget(
        "staleness-max",
        "staleness_epochs_max",
        threshold=8.0,
        description="no read observed more than 8 epochs behind live",
    ),
    SLOTarget(
        "read-retries-p99",
        "read_retries_p99",
        threshold=4.0,
        description="p99 sandwich retries per read ≤ 4",
    ),
    SLOTarget(
        "snapshot-age-max",
        "snapshot_age_epochs_max",
        threshold=16.0,
        description="degraded reads never served from a snapshot >16 epochs old",
    ),
    SLOTarget(
        "epoch-staleness-p99",
        "epoch_read_staleness_p99",
        threshold=4.0,
        warn_fraction=0.5,
        description="p99 bulk epoch-read staleness ≤ 4 epochs behind newest",
    ),
    SLOTarget(
        "epoch-staleness-max",
        "epoch_read_staleness_max",
        threshold=16.0,
        description="no pinned epoch read served >16 epochs behind newest",
    ),
    SLOTarget(
        "recovery-p99",
        "recovery_seconds_p99",
        threshold=2.0,
        description="p99 supervisor recovery ≤ 2 s",
    ),
    SLOTarget(
        "read-latency-p99",
        "read_latency_p99_s",
        threshold=0.05,
        description="p99 read latency ≤ 50 ms (supplied by the bench driver)",
    ),
)
