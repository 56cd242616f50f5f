"""Engine registry: the single construction path for k-core engines.

Everything above the data-structure layer — runtime services, the
experiment harness, workload replay, benchmarks — builds engines through
:func:`create` instead of naming concrete classes, so both the engine
*algorithm* (``"cplds"``, ``"nonsync"``, ...) and the level-store
*backend* (``"object"``, ``"columnar-frontier"``) are late-bound
configuration — the ``cplds`` factory routes the frontier backend to the
vectorized :class:`repro.core.frontier.FrontierCPLDS`:

>>> from repro import engines
>>> eng = engines.create("cplds", 100, backend="columnar-frontier")
>>> type(eng).__name__
'FrontierCPLDS'
>>> eng.insert_batch([(0, 1), (1, 2), (0, 2)])
3
>>> sorted(engines.available())[:2]
['cplds', 'lds']

New engines register with :func:`register`; the registry is deliberately a
plain dict so extensions (and tests) can add entries without import-order
tricks.
"""

from __future__ import annotations

from typing import Callable

from repro.core.baselines import NonSyncKCore, SyncReadsKCore
from repro.core.cplds import CPLDS
from repro.core.naive import NaiveMarkedKCore
from repro.engines.base import CoreEngine
from repro.lds.lds import LDS
from repro.lds.plds import PLDS
from repro.lds.store import BACKENDS

__all__ = [
    "CoreEngine",
    "available",
    "backends",
    "create",
    "register",
]

EngineFactory = Callable[..., CoreEngine]


def _make_lds(num_vertices: int, *, params=None, executor=None, **kwargs):
    if executor is not None:
        raise ValueError("the sequential LDS does not take an executor")
    return LDS(num_vertices, params=params, **kwargs)


def _make_plds(num_vertices: int, *, params=None, executor=None, **kwargs):
    return PLDS(num_vertices, params=params, executor=executor, **kwargs)


def _make_cplds(
    num_vertices: int, *, params=None, executor=None, backend="object", **kwargs
):
    if backend == "columnar-frontier":
        from repro.core.frontier import FrontierCPLDS

        return FrontierCPLDS(
            num_vertices,
            params=params,
            executor=executor,
            backend=backend,
            **kwargs,
        )
    return CPLDS(
        num_vertices, params=params, executor=executor, backend=backend, **kwargs
    )


def _make_nonsync(num_vertices: int, *, params=None, executor=None, **kwargs):
    return NonSyncKCore(num_vertices, params=params, executor=executor, **kwargs)


def _make_syncreads(num_vertices: int, *, params=None, executor=None, **kwargs):
    return SyncReadsKCore(num_vertices, params=params, executor=executor, **kwargs)


def _make_naive(num_vertices: int, *, params=None, executor=None, **kwargs):
    return NaiveMarkedKCore(num_vertices, params=params, executor=executor, **kwargs)


_FACTORIES: dict[str, EngineFactory] = {
    "lds": _make_lds,
    "plds": _make_plds,
    "cplds": _make_cplds,
    "nonsync": _make_nonsync,
    "syncreads": _make_syncreads,
    "naive": _make_naive,
}


def register(name: str, factory: EngineFactory, *, replace: bool = False) -> None:
    """Register an engine factory under ``name``.

    The factory must accept ``(num_vertices, *, params, executor, backend,
    **kwargs)`` and return a :class:`CoreEngine`.
    """
    if name in _FACTORIES and not replace:
        raise ValueError(f"engine {name!r} already registered")
    _FACTORIES[name] = factory


def available() -> tuple[str, ...]:
    """Names of all registered engines."""
    return tuple(sorted(_FACTORIES))


def backends() -> tuple[str, ...]:
    """Names of all level-store backends."""
    return BACKENDS


def create(
    name: str,
    num_vertices: int,
    *,
    backend: str = "object",
    params=None,
    executor=None,
    epoch_store=None,
    **kwargs,
) -> CoreEngine:
    """Construct the engine ``name`` over ``num_vertices`` vertices.

    ``backend`` selects the level-store layout (see
    :mod:`repro.lds.store`); ``epoch_store`` optionally attaches a
    :class:`repro.reads.EpochSnapshotStore` so the engine publishes a
    level snapshot per batch epoch (CPLDS family only); every other
    keyword is passed through to the engine's constructor.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r} (available: {', '.join(available())})"
        ) from None
    engine = factory(
        num_vertices, params=params, executor=executor, backend=backend, **kwargs
    )
    if epoch_store is not None:
        from repro.reads import attach_epoch_store

        attach_epoch_store(engine, epoch_store)
    return engine
