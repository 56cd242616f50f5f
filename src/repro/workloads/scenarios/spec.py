"""Declarative scenario specs: schema, validation, and loaders.

A *scenario* composes the repo's workload building blocks into one
reproducible experiment: a **graph shape** (built by
:mod:`repro.graph.generators`), a **temporal traffic pattern** (how update
batches arrive over time, including the adversarial constructions from
:mod:`repro.workloads.adversarial`), a **read/write mix** (live sandwich
reads and epoch-pinned bulk reads through :mod:`repro.reads`), and an
optional **fault schedule** (the :mod:`repro.runtime.chaos` fault kinds at
declared batch indices).  Specs are plain JSON; every field is validated
with a loud :class:`SpecError` naming the offending path, so a bad spec
fails at load time, never mid-run.

The checked-in catalog lives next to this module (``catalog/``); see
``docs/scenarios.md`` for the full field reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence, Tuple

from repro.errors import WorkloadError
from repro.graph import generators
from repro.obs.staleness import DEFAULT_SLOS, SLOTarget
from repro.types import Edge

__all__ = [
    "FAULT_KINDS",
    "GRAPH_SHAPES",
    "TRAFFIC_PATTERNS",
    "FaultEvent",
    "FaultSpec",
    "GraphSpec",
    "ReadMixSpec",
    "ScenarioSpec",
    "ScoreSpec",
    "SpecError",
    "TrafficSpec",
    "catalog_dir",
    "catalog_paths",
    "load_catalog",
    "load_spec",
    "parse_scenario",
]

GRAPH_SHAPES: Tuple[str, ...] = (
    "power-law", "road", "community", "bipartite", "erdos-renyi",
)
TRAFFIC_PATTERNS: Tuple[str, ...] = (
    "sustained", "diurnal", "flash-crowd", "level-thrash", "insert-delete",
)
FAULT_KINDS: Tuple[str, ...] = ("crash", "poison", "restart")

#: Engines whose ``read`` path feeds the staleness accounting and whose
#: ``epoch_store`` seam exists (see :func:`repro.reads.attach_epoch_store`).
_EPOCH_ENGINES: Tuple[str, ...] = ("cplds",)


class SpecError(WorkloadError):
    """A scenario spec failed validation; the message names the path."""


def _err(path: str, message: str) -> SpecError:
    return SpecError(f"{path}: {message}")


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise _err(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(
    data: Mapping[str, Any], path: str, required: Sequence[str],
    optional: Sequence[str] = (),
) -> None:
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise _err(
            path,
            f"unknown keys {unknown} (allowed: "
            f"{sorted([*required, *optional])})",
        )
    missing = sorted(set(required) - set(data))
    if missing:
        raise _err(path, f"missing required keys {missing}")


def _get_int(
    data: Mapping[str, Any], key: str, path: str, *, default: int | None = None,
    minimum: int | None = None,
) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_float(
    data: Mapping[str, Any], key: str, path: str, *,
    default: float | None = None, minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(f"{path}.{key}", f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise _err(f"{path}.{key}", f"must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _err(f"{path}.{key}", f"must be <= {maximum}, got {value}")
    return value


def _get_str(
    data: Mapping[str, Any], key: str, path: str, *,
    default: str | None = None, choices: Sequence[str] | None = None,
) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise _err(f"{path}.{key}", f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise _err(
            f"{path}.{key}", f"must be one of {sorted(choices)}, got {value!r}"
        )
    return value


# ---------------------------------------------------------------------------
# Graph shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSpec:
    """Which synthetic graph the scenario's edge pool is drawn from.

    ``edges`` is the generator's target edge count; shape-specific knobs
    (power-law exponent, road grid dimensions, community layout, bipartite
    split) have validated defaults.  :meth:`build` is a pure function of
    the spec plus the scenario seed.
    """

    shape: str
    num_vertices: int
    edges: int
    exponent: float = 2.5
    rows: int = 0            # road only (0 = derive a near-square grid)
    diagonal_fraction: float = 0.05
    num_communities: int = 4
    community_size: int = 12
    intra_density: float = 0.9
    left_fraction: float = 0.5  # bipartite only

    @classmethod
    def from_dict(cls, data: Any, path: str = "graph") -> "GraphSpec":
        """Validate and build from parsed spec data."""
        mapping = _require_mapping(data, path)
        shape = _get_str(mapping, "shape", path, choices=GRAPH_SHAPES)
        allowed: Tuple[str, ...] = ()
        if shape == "power-law":
            allowed = ("exponent",)
        elif shape == "road":
            allowed = ("rows", "diagonal_fraction")
        elif shape == "community":
            allowed = ("num_communities", "community_size", "intra_density")
        elif shape == "bipartite":
            allowed = ("left_fraction",)
        _check_keys(
            mapping, path, ("shape", "num_vertices", "edges"), allowed
        )
        spec = cls(
            shape=shape,
            num_vertices=_get_int(mapping, "num_vertices", path, minimum=4),
            edges=_get_int(mapping, "edges", path, minimum=1),
            exponent=_get_float(
                mapping, "exponent", path, default=2.5, minimum=2.01
            ),
            rows=_get_int(mapping, "rows", path, default=0, minimum=0),
            diagonal_fraction=_get_float(
                mapping, "diagonal_fraction", path, default=0.05,
                minimum=0.0, maximum=1.0,
            ),
            num_communities=_get_int(
                mapping, "num_communities", path, default=4, minimum=1
            ),
            community_size=_get_int(
                mapping, "community_size", path, default=12, minimum=3
            ),
            intra_density=_get_float(
                mapping, "intra_density", path, default=0.9,
                minimum=0.0, maximum=1.0,
            ),
            left_fraction=_get_float(
                mapping, "left_fraction", path, default=0.5,
                minimum=0.05, maximum=0.95,
            ),
        )
        if shape == "road":
            rows, cols = spec._grid()
            if rows * cols != spec.num_vertices:
                raise _err(
                    path,
                    f"road needs num_vertices == rows*cols; "
                    f"got {spec.num_vertices} != {rows}*{cols}",
                )
        if shape == "community" and spec.community_size > spec.num_vertices:
            raise _err(path, "community_size exceeds num_vertices")
        return spec

    def _grid(self) -> Tuple[int, int]:
        rows = self.rows if self.rows else max(1, int(math.isqrt(self.num_vertices)))
        return rows, max(1, self.num_vertices // rows)

    def build(self, seed: int) -> list[Edge]:
        """Generate the edge pool (deterministic in ``seed``)."""
        n = self.num_vertices
        if self.shape == "power-law":
            return generators.chung_lu(n, self.edges, self.exponent, seed=seed)
        if self.shape == "road":
            rows, cols = self._grid()
            return generators.grid_road(
                rows, cols, self.diagonal_fraction, seed=seed
            )
        if self.shape == "community":
            return generators.community_overlay(
                n, self.num_communities, self.community_size,
                background_edges=self.edges, intra_density=self.intra_density,
                seed=seed,
            )
        if self.shape == "bipartite":
            return generators.bipartite(
                max(1, int(n * self.left_fraction)),
                n - max(1, int(n * self.left_fraction)),
                self.edges, seed=seed,
            )
        return generators.erdos_renyi(n, self.edges, seed=seed)


# ---------------------------------------------------------------------------
# Traffic pattern
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficSpec:
    """How update batches arrive over (batch-) time.

    ``batches`` bounds the number of update steps; ``batch_size`` is the
    base arrival rate, modulated per pattern (diurnal sine wave, flash
    clique slam, level-thrash insert/delete cycles, or the paper's
    standard insert-then-delete split).
    """

    pattern: str
    batches: int
    batch_size: int
    window: int = 4
    amplitude: float = 0.8       # diurnal
    period: int = 8              # diurnal
    clique_size: int = 8         # flash-crowd / level-thrash
    spike_at: int = -1           # flash-crowd (-1 = midpoint)
    delete_fraction: float = 0.5  # insert-delete

    @classmethod
    def from_dict(cls, data: Any, path: str = "traffic") -> "TrafficSpec":
        """Validate and build from parsed spec data."""
        mapping = _require_mapping(data, path)
        pattern = _get_str(mapping, "pattern", path, choices=TRAFFIC_PATTERNS)
        allowed: Tuple[str, ...] = ("window",)
        if pattern == "diurnal":
            allowed += ("amplitude", "period")
        elif pattern == "flash-crowd":
            allowed += ("clique_size", "spike_at")
        elif pattern == "level-thrash":
            allowed += ("clique_size",)
        elif pattern == "insert-delete":
            allowed = ("delete_fraction",)
        _check_keys(
            mapping, path, ("pattern", "batches", "batch_size"), allowed
        )
        spec = cls(
            pattern=pattern,
            batches=_get_int(mapping, "batches", path, minimum=1),
            batch_size=_get_int(mapping, "batch_size", path, minimum=1),
            window=_get_int(mapping, "window", path, default=4, minimum=1),
            amplitude=_get_float(
                mapping, "amplitude", path, default=0.8,
                minimum=0.0, maximum=1.0,
            ),
            period=_get_int(mapping, "period", path, default=8, minimum=2),
            clique_size=_get_int(
                mapping, "clique_size", path, default=8, minimum=3
            ),
            spike_at=_get_int(mapping, "spike_at", path, default=-1, minimum=-1),
            delete_fraction=_get_float(
                mapping, "delete_fraction", path, default=0.5,
                minimum=0.0, maximum=1.0,
            ),
        )
        if pattern == "flash-crowd" and spec.spike_at >= spec.batches:
            raise _err(f"{path}.spike_at", "must fall inside the batch range")
        return spec


# ---------------------------------------------------------------------------
# Read/write mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReadMixSpec:
    """The read side of the mix: a burst of reads after every update batch.

    ``weights`` splits each burst between **live** sandwich reads
    (``engine.read``, Algorithm 4) and **epoch** bulk reads (pinned
    ``coreness_many`` blocks through :mod:`repro.reads`).  Weights must be
    non-negative and sum to 1.
    """

    reads_per_batch: int = 0
    block: int = 32
    distribution: str = "uniform"
    zipf_s: float = 1.1
    live_weight: float = 1.0
    epoch_weight: float = 0.0
    epoch_window: int = 8
    max_staleness: int = 0  # 0 = no bounded-staleness budget

    @classmethod
    def from_dict(cls, data: Any, path: str = "reads") -> "ReadMixSpec":
        """Validate and build from parsed spec data."""
        if data is None:
            return cls()
        mapping = _require_mapping(data, path)
        _check_keys(
            mapping, path, ("reads_per_batch",),
            ("block", "distribution", "zipf_s", "weights", "epoch_window",
             "max_staleness"),
        )
        weights = _require_mapping(
            mapping.get("weights", {"live": 1.0}), f"{path}.weights"
        )
        _check_keys(weights, f"{path}.weights", (), ("live", "epoch"))
        live = _get_float(
            weights, "live", f"{path}.weights", default=0.0, minimum=0.0
        )
        epoch = _get_float(
            weights, "epoch", f"{path}.weights", default=0.0, minimum=0.0
        )
        if abs(live + epoch - 1.0) > 1e-9:
            raise _err(
                f"{path}.weights",
                f"mix weights must sum to 1.0, got {live + epoch:g}",
            )
        return cls(
            reads_per_batch=_get_int(
                mapping, "reads_per_batch", path, minimum=0
            ),
            block=_get_int(mapping, "block", path, default=32, minimum=1),
            distribution=_get_str(
                mapping, "distribution", path, default="uniform",
                choices=("uniform", "zipf"),
            ),
            zipf_s=_get_float(
                mapping, "zipf_s", path, default=1.1, minimum=0.1
            ),
            live_weight=live,
            epoch_weight=epoch,
            epoch_window=_get_int(
                mapping, "epoch_window", path, default=8, minimum=1
            ),
            max_staleness=_get_int(
                mapping, "max_staleness", path, default=0, minimum=0
            ),
        )


# ---------------------------------------------------------------------------
# Fault schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One declared fault: ``kind`` fired at update batch ``at_batch``.

    ``crash`` arms a mid-batch exception after ``after_moves`` vertex moves
    for ``times`` attempts (the :class:`repro.runtime.chaos.ChaosHooks`
    fault); ``poison`` makes one of the batch's insertions always-failing;
    ``restart`` simulates a process crash + journal re-open after the batch.
    """

    at_batch: int
    kind: str
    after_moves: int = 3
    times: int = 1

    @classmethod
    def from_dict(cls, data: Any, path: str) -> "FaultEvent":
        """Validate and build from parsed spec data."""
        mapping = _require_mapping(data, path)
        kind = _get_str(mapping, "kind", path, choices=FAULT_KINDS)
        allowed: Tuple[str, ...] = ()
        if kind == "crash":
            allowed = ("after_moves", "times")
        _check_keys(mapping, path, ("at_batch", "kind"), allowed)
        return cls(
            at_batch=_get_int(mapping, "at_batch", path, minimum=0),
            kind=kind,
            after_moves=_get_int(
                mapping, "after_moves", path, default=3, minimum=1
            ),
            times=_get_int(mapping, "times", path, default=1, minimum=1),
        )


@dataclass(frozen=True)
class FaultSpec:
    """The scenario's fault schedule plus the supervisor's knobs."""

    events: Tuple[FaultEvent, ...]
    max_retries: int = 2
    checkpoint_every: int = 4

    @classmethod
    def from_dict(cls, data: Any, path: str = "faults") -> "FaultSpec | None":
        """Validate and build from parsed spec data (``None`` stays ``None``)."""
        if data is None:
            return None
        mapping = _require_mapping(data, path)
        _check_keys(
            mapping, path, ("events",), ("max_retries", "checkpoint_every")
        )
        raw_events = mapping["events"]
        if not isinstance(raw_events, Sequence) or isinstance(raw_events, str):
            raise _err(f"{path}.events", "expected a list of fault events")
        events = tuple(
            FaultEvent.from_dict(e, f"{path}.events[{i}]")
            for i, e in enumerate(raw_events)
        )
        return cls(
            events=events,
            max_retries=_get_int(
                mapping, "max_retries", path, default=2, minimum=1
            ),
            checkpoint_every=_get_int(
                mapping, "checkpoint_every", path, default=4, minimum=1
            ),
        )


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreSpec:
    """What the runner scores beyond the always-on work counters.

    ``approximation`` compares the final estimates against the exact
    peeling decomposition (:mod:`repro.exact`); ``slos`` overrides the
    default staleness/recovery targets of
    :data:`repro.obs.staleness.DEFAULT_SLOS`.
    """

    approximation: bool = False
    slos: Tuple[SLOTarget, ...] = field(default=DEFAULT_SLOS)

    @classmethod
    def from_dict(cls, data: Any, path: str = "score") -> "ScoreSpec":
        """Validate and build from parsed spec data."""
        if data is None:
            return cls()
        mapping = _require_mapping(data, path)
        _check_keys(mapping, path, (), ("approximation", "slos"))
        approximation = mapping.get("approximation", False)
        if not isinstance(approximation, bool):
            raise _err(
                f"{path}.approximation",
                f"expected a boolean, got {approximation!r}",
            )
        slos: Tuple[SLOTarget, ...] = DEFAULT_SLOS
        if "slos" in mapping:
            raw = mapping["slos"]
            if not isinstance(raw, Sequence) or isinstance(raw, str):
                raise _err(f"{path}.slos", "expected a list of SLO targets")
            rows = []
            for i, entry in enumerate(raw):
                epath = f"{path}.slos[{i}]"
                emap = _require_mapping(entry, epath)
                _check_keys(
                    emap, epath, ("name", "observation", "threshold"),
                    ("warn_fraction",),
                )
                rows.append(SLOTarget(
                    name=_get_str(emap, "name", epath),
                    observation=_get_str(emap, "observation", epath),
                    threshold=_get_float(emap, "threshold", epath),
                    warn_fraction=_get_float(
                        emap, "warn_fraction", epath, default=0.8,
                        minimum=0.0, maximum=1.0,
                    ),
                ))
            slos = tuple(rows)
        return cls(approximation=approximation, slos=slos)


# ---------------------------------------------------------------------------
# The scenario itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One fully validated scenario, ready for the runner."""

    name: str
    description: str
    graph: GraphSpec
    traffic: TrafficSpec
    reads: ReadMixSpec = field(default_factory=ReadMixSpec)
    faults: "FaultSpec | None" = None
    score: ScoreSpec = field(default_factory=ScoreSpec)
    engine: str = "cplds"
    seed: int = 0
    smoke_batches: int = 4

    @property
    def uses_epoch_reads(self) -> bool:
        """Whether any burst routes reads through the epoch tier."""
        return self.reads.reads_per_batch > 0 and self.reads.epoch_weight > 0

    @classmethod
    def from_dict(cls, data: Any, path: str = "scenario") -> "ScenarioSpec":
        """Validate an entire parsed spec document."""
        mapping = _require_mapping(data, path)
        _check_keys(
            mapping, path, ("name", "description", "graph", "traffic"),
            ("reads", "faults", "score", "engine", "seed", "smoke_batches"),
        )
        name = _get_str(mapping, "name", path)
        if not name or not all(c.isalnum() or c in "-_" for c in name):
            raise _err(
                f"{path}.name",
                f"must be non-empty [-_ alphanumeric], got {name!r}",
            )
        spec = cls(
            name=name,
            description=_get_str(mapping, "description", path),
            graph=GraphSpec.from_dict(mapping["graph"], f"{path}.graph"),
            traffic=TrafficSpec.from_dict(
                mapping["traffic"], f"{path}.traffic"
            ),
            reads=ReadMixSpec.from_dict(
                mapping.get("reads"), f"{path}.reads"
            ),
            faults=FaultSpec.from_dict(
                mapping.get("faults"), f"{path}.faults"
            ),
            score=ScoreSpec.from_dict(mapping.get("score"), f"{path}.score"),
            engine=_get_str(mapping, "engine", path, default="cplds"),
            seed=_get_int(mapping, "seed", path, default=0, minimum=0),
            smoke_batches=_get_int(
                mapping, "smoke_batches", path, default=4, minimum=1
            ),
        )
        from repro import engines as engine_registry

        if spec.engine not in engine_registry.available():
            raise _err(
                f"{path}.engine",
                f"unknown engine {spec.engine!r} "
                f"(available: {', '.join(engine_registry.available())})",
            )
        if (spec.uses_epoch_reads or spec.faults is not None) and (
            spec.engine not in _EPOCH_ENGINES
        ):
            raise _err(
                f"{path}.engine",
                f"epoch reads and fault schedules require one of "
                f"{_EPOCH_ENGINES}, got {spec.engine!r}",
            )
        if spec.traffic.pattern in ("flash-crowd", "level-thrash") and (
            spec.traffic.clique_size > spec.graph.num_vertices
        ):
            raise _err(
                f"{path}.traffic.clique_size",
                "clique does not fit in graph.num_vertices",
            )
        if spec.faults is not None:
            for i, event in enumerate(spec.faults.events):
                if event.at_batch >= spec.traffic.batches:
                    raise _err(
                        f"{path}.faults.events[{i}].at_batch",
                        f"beyond the last update batch "
                        f"({spec.traffic.batches - 1})",
                    )
        return spec


# ---------------------------------------------------------------------------
# Loaders and the bundled catalog
# ---------------------------------------------------------------------------

def parse_scenario(text: str, *, source: str = "<string>") -> ScenarioSpec:
    """Parse + validate one JSON spec document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{source}: invalid JSON ({exc})") from None
    return ScenarioSpec.from_dict(data, path=source)


def load_spec(path: str | os.PathLike[str]) -> ScenarioSpec:
    """Load and validate one spec file."""
    p = Path(path)
    return parse_scenario(p.read_text(), source=p.name)


def catalog_dir() -> Path:
    """Directory of the bundled scenario catalog."""
    return Path(__file__).resolve().parent / "catalog"


def catalog_paths() -> list[Path]:
    """The bundled spec files, sorted by name."""
    return sorted(catalog_dir().glob("*.json"))


def load_catalog() -> list[ScenarioSpec]:
    """Load every bundled spec; duplicate names are a hard error."""
    specs = [load_spec(p) for p in catalog_paths()]
    names = [s.name for s in specs]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise SpecError(f"catalog has duplicate scenario names: {dupes}")
    return specs
