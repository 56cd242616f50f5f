"""Shared configuration for the reproduction benches.

Scale is controlled by the ``REPRO_BENCH_CONFIG`` environment variable:

* ``quick`` (default) — a few datasets, one trial; every figure regenerates
  in well under a couple of minutes.
* ``full`` — all ten Table 1 stand-ins, three trials (the full reproduction
  sweep; budget ~20–40 minutes).

Every bench prints its rendered table, so ``pytest benchmarks/
--benchmark-only -s`` produces a textual version of the paper's evaluation
section.
"""

from __future__ import annotations

import os

import pytest

from repro.harness import experiments as E


def _select_config() -> E.ExperimentConfig:
    choice = os.environ.get("REPRO_BENCH_CONFIG", "quick").lower()
    if choice == "full":
        return E.FULL
    if choice == "quick":
        return E.QUICK
    raise ValueError(f"unknown REPRO_BENCH_CONFIG {choice!r}")


@pytest.fixture(scope="session")
def config() -> E.ExperimentConfig:
    return _select_config()


@pytest.fixture(scope="session", params=("object", "columnar-frontier"))
def backend(request) -> str:
    """Level-store backend axis (Fig 3/5/7 run once per backend)."""
    return request.param


@pytest.fixture(scope="session")
def backend_config(config, backend) -> E.ExperimentConfig:
    return config.with_(backend=backend)


@pytest.fixture(scope="session")
def emit():
    """Print a rendered experiment table under a banner."""

    def _emit(title: str, body: str) -> None:
        print(f"\n=== {title} ===\n{body}\n")

    return _emit
