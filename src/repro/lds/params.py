"""LDS parameterisation: levels, groups and invariant thresholds.

The level data structure partitions its ``K`` levels into groups; all
structures in this library share this arithmetic, so it lives in one place.

Following the paper (Sections 3.1 and 3.2):

* there are ``⌈log_{1+δ} n⌉`` groups;
* each group has ``4⌈log_{1+δ} n⌉`` levels (Definition 3.1), unless overridden
  by the ``levels_per_group`` argument — the paper's experiments run the
  original PLDS code with ``-opt 20``, a shallower structure that "speeds up
  the code but degrades its approximation error", reproduced here by passing
  ``levels_per_group=20``;
* Invariant 1 (degree upper bound) threshold for a vertex on a level in group
  ``i`` is ``(2 + 3/λ)(1+δ)^i``;
* Invariant 2 (degree lower bound) threshold for group ``i`` is ``(1+δ)^i``;
* the coreness estimate of a vertex on level ``ℓ`` is
  ``(1+δ)^{max(⌊(ℓ+1)/levels_per_group⌋ − 1, 0)}``.

The paper's experiments use ``δ = 0.2`` and ``λ = 9``, giving a theoretical
approximation factor of ``(2 + 3/λ)(1+δ) ≈ 2.8``; those are the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LDSParams:
    """Immutable parameter pack for one level data structure instance.

    Parameters
    ----------
    num_vertices:
        ``n``; fixes the number of groups and (by default) the group height.
    delta:
        The ``δ > 0`` constant; controls the geometric growth of thresholds.
    lam:
        The ``λ > 0`` constant of Invariant 1 (``lambda`` is reserved).
    levels_per_group:
        Override for the per-group height.  ``None`` (default) uses the
        theoretical ``4⌈log_{1+δ} n⌉``; the paper's benchmarks use ``20``.
    """

    num_vertices: int
    delta: float = 0.2
    lam: float = 9.0
    levels_per_group: int | None = None

    # Derived fields, computed in __post_init__.
    log_base: float = field(init=False)
    num_groups: int = field(init=False)
    group_height: int = field(init=False)
    num_levels: int = field(init=False)
    #: ``estimate_table[ℓ]`` is the coreness estimate for level ℓ.
    estimate_table: tuple = field(init=False, repr=False, compare=False)
    #: The same estimates as one read-only float64 array, built once per
    #: parameter pack and shared by every epoch snapshot's bulk reads.
    estimate_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.levels_per_group is not None and self.levels_per_group < 1:
            raise ValueError("levels_per_group override must be >= 1")

        n = max(self.num_vertices, 2)
        log_n = math.log(n) / math.log(1.0 + self.delta)
        object.__setattr__(self, "log_base", 1.0 + self.delta)
        num_groups = max(1, math.ceil(log_n))
        object.__setattr__(self, "num_groups", num_groups)
        height = (
            self.levels_per_group
            if self.levels_per_group is not None
            else max(1, 4 * math.ceil(log_n))
        )
        object.__setattr__(self, "group_height", height)
        object.__setattr__(self, "num_levels", num_groups * height)
        # Precomputed per-level estimates: the read hot path is a single
        # tuple index instead of a float pow (see coreness_estimate).
        table = tuple(
            (1.0 + self.delta) ** max((lvl + 1) // height - 1, 0)
            for lvl in range(num_groups * height)
        )
        object.__setattr__(self, "estimate_table", table)
        estimates = np.array(table, dtype=np.float64)
        estimates.setflags(write=False)
        object.__setattr__(self, "estimate_array", estimates)

    # ------------------------------------------------------------------
    # Group arithmetic
    # ------------------------------------------------------------------
    def group_of_level(self, level: int) -> int:
        """The group index ``i`` that ``level`` belongs to."""
        if not 0 <= level < self.num_levels:
            raise ValueError(
                f"level {level} out of range [0, {self.num_levels})"
            )
        return level // self.group_height

    @property
    def max_level(self) -> int:
        """The topmost level index, ``K − 1``."""
        return self.num_levels - 1

    # ------------------------------------------------------------------
    # Invariant thresholds
    # ------------------------------------------------------------------
    def upper_threshold(self, level: int) -> float:
        """Invariant 1 bound for a vertex on ``level``: ``(2+3/λ)(1+δ)^i``.

        A vertex on this level with *more* same-or-higher-level neighbours
        than this violates Invariant 1 and must move up.
        """
        i = self.group_of_level(level)
        return (2.0 + 3.0 / self.lam) * (1.0 + self.delta) ** i

    def lower_threshold(self, level: int) -> float:
        """Invariant 2 bound for a vertex on ``level > 0``: ``(1+δ)^i``
        where ``i`` is the group of ``level − 1``.

        A vertex on this level with *fewer* neighbours at ``level − 1`` or
        above than this violates Invariant 2 and must move down.
        """
        if level <= 0:
            return 0.0  # level 0 trivially satisfies Invariant 2
        i = self.group_of_level(level - 1)
        return (1.0 + self.delta) ** i

    def threshold_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Both thresholds as per-level float64 arrays ``(upper, lower)``.

        ``upper[l] == upper_threshold(l)`` for every level ``l``, and
        ``lower[l] == lower_threshold(l)`` for ``0 <= l <= num_levels`` (one
        entry longer: ``lower_threshold`` is also defined one level above the
        top).  Each group's value is the same float expression as the scalar
        methods, so the arrays match them exactly.
        """
        base = 1.0 + self.delta
        group = np.array([base**i for i in range(self.num_groups)], dtype=np.float64)
        upper = np.repeat((2.0 + 3.0 / self.lam) * group, self.group_height)
        lower = np.concatenate(([0.0], np.repeat(group, self.group_height)))
        return upper, lower

    # ------------------------------------------------------------------
    # Coreness estimate (Definition 3.1)
    # ------------------------------------------------------------------
    def coreness_estimate(self, level: int) -> float:
        """The (2+ε)-approximate coreness of a vertex on ``level``."""
        return self.estimate_table[level]

    def theoretical_approximation_factor(self) -> float:
        """The worst-case factor ``(2 + 3/λ)(1 + δ)`` of Lemma 3.2.

        For the paper's defaults (δ=0.2, λ=9) this is 2.8, the blue line of
        Fig 6.
        """
        return (2.0 + 3.0 / self.lam) * (1.0 + self.delta)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LDSParams(n={self.num_vertices}, δ={self.delta}, λ={self.lam}, "
            f"groups={self.num_groups} × {self.group_height} levels = "
            f"{self.num_levels})"
        )
