"""Experiment harness: statistics, experiment drivers, and report rendering.

One driver per paper artifact (Table 1, Figures 3–7) lives in
:mod:`repro.harness.experiments`; each returns plain dataclasses that
:mod:`repro.harness.report` renders as the same rows/series the paper plots.
The benchmarks under ``benchmarks/`` are thin pytest-benchmark wrappers over
these drivers.
"""

from repro.harness.stats import LatencyStats, percentile, summarize_latencies

__all__ = [
    "LatencyStats",
    "percentile",
    "summarize_latencies",
]
