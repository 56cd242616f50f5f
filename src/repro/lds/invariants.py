"""Checkers for the two LDS degree invariants (Section 3.1 of the paper).

These recompute every quantity from the graph itself — sharing no counters
with the structures under test — so they certify both the invariants and the
bookkeeping at once.

Both checks are whole-array passes over the graph's own CSR snapshot
(:func:`~repro.graph.csr.csr_view`) and the live levels: one ``bincount``
per invariant, compared against per-level threshold arrays built from the
parameters (:meth:`~repro.lds.params.LDSParams.threshold_arrays`);
:func:`check_all_invariants` builds the neighbour-level arrays once for
both.  The lowest-numbered violating vertex is then re-evaluated with the
scalar threshold, so the raised :class:`InvariantViolation` (message and
``vertex``) is the one a vertex-by-vertex scan would raise first.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvariantViolation
from repro.graph.csr import csr_view
from repro.lds.bookkeeping import LevelState
from repro.lds.params import LDSParams


def _neighbour_levels(state: LevelState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(level, src, lw)``: per-vertex levels, and for every adjacency
    entry of the CSR its source vertex and the neighbour's level."""
    csr = csr_view(state.graph)
    level = np.asarray(state.level, dtype=np.int64)
    src = np.repeat(np.arange(level.size, dtype=np.int64), np.diff(csr.offsets))
    return level, src, level[csr.targets]


def check_invariant1(state: LevelState) -> None:
    """Degree upper bound for every vertex, recomputed from the graph."""
    _check_invariant1(state.params, *_neighbour_levels(state))


def check_invariant2(state: LevelState) -> None:
    """Degree lower bound for every vertex, recomputed from the graph."""
    _check_invariant2(state.params, *_neighbour_levels(state))


def check_all_invariants(state: LevelState) -> None:
    """Both invariants plus counter consistency, in one call."""
    state.assert_counters_consistent()
    nbr = _neighbour_levels(state)
    _check_invariant1(state.params, *nbr)
    _check_invariant2(state.params, *nbr)


def _check_invariant1(
    params: LDSParams, level: np.ndarray, src: np.ndarray, lw: np.ndarray
) -> None:
    n = level.size
    up = np.bincount(src[lw >= level[src]], minlength=n)
    upper, _ = params.threshold_arrays()
    checked = level < params.max_level
    # Levels outside the table (only negative ones get here) go to the
    # scalar threshold below, which rejects them as the scan did.
    outside = level < 0
    bound = upper[np.clip(level, 0, params.max_level)]
    for v in np.flatnonzero(checked & (outside | (up > bound))).tolist():
        lvl = int(level[v])
        k = int(up[v])
        b = params.upper_threshold(lvl)
        if k > b:
            raise InvariantViolation(
                f"Invariant 1 violated at vertex {v}: level {lvl}, "
                f"up-degree {k} > bound {b:.3f}",
                vertex=v,
            )


def _check_invariant2(
    params: LDSParams, level: np.ndarray, src: np.ndarray, lw: np.ndarray
) -> None:
    n = level.size
    at_or_above = np.bincount(src[lw >= level[src] - 1], minlength=n)
    # lower_threshold is defined on 0..num_levels (0.0 at and below 0).
    top = params.num_levels
    _, lower = params.threshold_arrays()
    checked = level != 0
    outside = level > top
    bound = lower[np.clip(level, 0, top)]
    for v in np.flatnonzero(checked & (outside | (at_or_above < bound))).tolist():
        lvl = int(level[v])
        k = int(at_or_above[v])
        b = params.lower_threshold(lvl)
        if k < b:
            raise InvariantViolation(
                f"Invariant 2 violated at vertex {v}: level {lvl}, "
                f"neighbours at >= {lvl - 1}: {k} < bound {b:.3f}",
                vertex=v,
            )
