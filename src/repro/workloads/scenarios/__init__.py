"""``repro.workloads.scenarios`` — the declarative scenario layer.

A JSON scenario spec composes a graph shape, a temporal traffic
pattern, a read/write mix, and an optional fault schedule into one
reproducible, scored experiment; the runner executes
any spec on any registered engine backend and emits a deterministic
JSONL report row.  The bundled catalog (``catalog/``) covers the paper's
figures plus the robustness scenarios, and CI runs it as the standard
sweep substrate (``scenario-smoke`` per PR, the full catalog nightly).

Quickstart::

    from repro.workloads import scenarios

    spec = scenarios.load_catalog()[0]
    result = scenarios.run_scenario(spec, backend="columnar-frontier", smoke=True)
    print(result.slo["status"], result.work)

CLI: ``python -m repro.workloads.scenarios --catalog --backend all``
(see ``docs/scenarios.md``).
"""

from repro.workloads.scenarios.report import (
    render_table,
    report_lines,
    slo_failures,
    work_divergences,
    write_jsonl,
)
from repro.workloads.scenarios.runner import ScenarioRunResult, run_scenario
from repro.workloads.scenarios.spec import (
    FaultEvent,
    FaultSpec,
    GraphSpec,
    ReadMixSpec,
    ScenarioSpec,
    ScoreSpec,
    SpecError,
    TrafficSpec,
    catalog_dir,
    catalog_paths,
    load_catalog,
    load_spec,
    parse_scenario,
)
from repro.workloads.scenarios.traffic import ReadBurst, build_schedule

__all__ = [
    "FaultEvent",
    "FaultSpec",
    "GraphSpec",
    "ReadBurst",
    "ReadMixSpec",
    "ScenarioRunResult",
    "ScenarioSpec",
    "ScoreSpec",
    "SpecError",
    "TrafficSpec",
    "build_schedule",
    "catalog_dir",
    "catalog_paths",
    "load_catalog",
    "load_spec",
    "parse_scenario",
    "render_table",
    "report_lines",
    "run_scenario",
    "slo_failures",
    "work_divergences",
    "write_jsonl",
]
