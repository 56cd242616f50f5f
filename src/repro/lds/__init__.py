"""Level data structures: the substrate of the paper's CPLDS.

* :mod:`repro.lds.params` — the (δ, λ) parameterisation, group arithmetic and
  invariant thresholds shared by every structure.
* :mod:`repro.lds.bookkeeping` — per-vertex level state and degree counters
  (the ``"object"`` level-store backend).
* :mod:`repro.lds.store` — the :class:`LevelStore` seam and the flat-array
  ``"columnar-frontier"`` backend (:class:`FrontierLevelStore`).
* :mod:`repro.lds.lds` — the sequential LDS of Bhattacharya et al. /
  Henzinger et al. (one-level-at-a-time rebalancing after each edge update).
* :mod:`repro.lds.plds` — the parallel batch-dynamic PLDS of Liu et al.
  (SPAA 2022): level-ordered insertion sweep and desire-level deletion phase.
* :mod:`repro.lds.coreness` — the coreness-estimate formula (Definition 3.1)
  and approximation-bound helpers (Lemma 3.2).
* :mod:`repro.lds.invariants` — checkers for Invariants 1 and 2.
"""

from repro.lds.params import LDSParams
from repro.lds.lds import LDS
from repro.lds.plds import PLDS
from repro.lds.coreness import coreness_estimate
from repro.lds.store import (
    BACKENDS,
    FrontierLevelStore,
    LevelStore,
    make_store,
)
from repro.lds.bookkeeping import ObjectLevelStore

__all__ = [
    "LDSParams",
    "LDS",
    "PLDS",
    "coreness_estimate",
    "BACKENDS",
    "FrontierLevelStore",
    "LevelStore",
    "ObjectLevelStore",
    "make_store",
]
