"""Tests for the scenario catalog, spec validation, and the runner.

Covers the CI contract: every checked-in catalog spec must load,
validate, and run truncated (``--smoke``) with byte-identical reports
and work counters across repeated runs; and malformed specs, including
text that is not JSON, must be rejected loudly.
"""

import json

import pytest

from repro.workloads.scenarios.report import (
    report_lines,
    render_table,
    slo_failures,
    work_divergences,
)
from repro.workloads.scenarios.runner import run_scenario
from repro.workloads.scenarios.spec import (
    ScenarioSpec,
    SpecError,
    catalog_dir,
    catalog_paths,
    load_catalog,
    load_spec,
    parse_scenario,
)
from repro.workloads.scenarios.traffic import build_schedule, truncate_for_smoke

CATALOG = catalog_paths()
CATALOG_IDS = [p.stem for p in CATALOG]


def make_spec(**overrides):
    """A small valid scenario dict; overrides are merged shallowly."""
    base = {
        "name": "unit-test",
        "description": "spec used by the unit tests",
        "seed": 1,
        "graph": {"shape": "erdos-renyi", "num_vertices": 40, "edges": 80},
        "traffic": {"pattern": "sustained", "batches": 4, "batch_size": 10},
    }
    base.update(overrides)
    return base


def parse(data) -> ScenarioSpec:
    return parse_scenario(json.dumps(data), source="<test>")


# ---------------------------------------------------------------- catalog


def test_catalog_has_expected_size():
    assert len(CATALOG) >= 8


def test_catalog_loads_without_duplicates():
    specs = load_catalog()
    assert len(specs) == len(CATALOG)
    assert len({s.name for s in specs}) == len(specs)


@pytest.mark.parametrize("path", CATALOG, ids=CATALOG_IDS)
def test_catalog_spec_name_matches_filename(path):
    spec = load_spec(path)
    assert spec.name == path.stem


@pytest.mark.parametrize("path", CATALOG, ids=CATALOG_IDS)
def test_catalog_smoke_run_is_deterministic(path):
    spec = load_spec(path)
    first = run_scenario(spec, backend="object", smoke=True)
    second = run_scenario(spec, backend="object", smoke=True)
    assert first.ok, f"{spec.name} smoke run not ok: slo={first.slo}"
    assert first.work == second.work
    assert report_lines([first]) == report_lines([second])


def test_cross_backend_work_counters_match():
    spec = load_spec(catalog_dir_path("bipartite-churn"))
    results = [
        run_scenario(spec, backend=b, smoke=True)
        for b in ("object", "columnar-frontier")
    ]
    assert work_divergences(results) == {}
    assert slo_failures(results) == []
    table = render_table(results)
    assert "bipartite-churn" in table
    assert "divergence" not in table


def catalog_dir_path(name):
    """Path of the named catalog spec (helper for single-spec tests)."""
    for p in CATALOG:
        if p.stem == name:
            return p
    raise AssertionError(f"no catalog spec named {name}")


def test_smoke_truncation_shortens_schedule():
    spec = load_spec(catalog_dir_path("fig3-read-mix"))
    schedule = build_schedule(spec)
    truncated = truncate_for_smoke(schedule, spec.smoke_batches)
    updates = [s for s in truncated if s[0] == "update"]
    assert len(updates) == spec.smoke_batches
    assert len(truncated) < len(schedule)


def test_report_row_shape():
    spec = load_spec(catalog_dir_path("fig5-batch-updates"))
    result = run_scenario(spec, backend="object", smoke=True)
    row = json.loads(report_lines([result])[0])
    assert row["schema"] == 1
    assert row["scenario"] == "fig5-batch-updates"
    assert row["backend"] == "object"
    assert row["mode"] == "smoke"
    assert "timing" not in row  # wall clock is opt-in, reports stay canonical
    assert set(row["work"]) >= {"plds_moves_total", "plds_rounds_total"}


# ------------------------------------------------------- spec rejection


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError, match="unknown key"):
        parse(make_spec(bogus=1))


def test_unknown_graph_key_rejected():
    bad = make_spec(graph={"shape": "road", "num_vertices": 25, "edges": 40,
                           "exponent": 2.5})
    with pytest.raises(SpecError, match="exponent"):
        parse(bad)


def test_negative_rate_rejected():
    bad = make_spec(traffic={"pattern": "sustained", "batches": 4,
                             "batch_size": -3})
    with pytest.raises(SpecError, match="batch_size"):
        parse(bad)


def test_negative_reads_rejected():
    bad = make_spec(reads={"reads_per_batch": -1})
    with pytest.raises(SpecError, match="reads_per_batch"):
        parse(bad)


def test_bool_is_not_an_int():
    bad = make_spec(traffic={"pattern": "sustained", "batches": True,
                             "batch_size": 10})
    with pytest.raises(SpecError, match="batches"):
        parse(bad)


def test_mix_weights_must_sum_to_one():
    bad = make_spec(reads={"reads_per_batch": 8,
                           "weights": {"live": 0.5, "epoch": 0.2}})
    with pytest.raises(SpecError, match="sum to 1"):
        parse(bad)


def test_negative_mix_weight_rejected():
    bad = make_spec(reads={"reads_per_batch": 8,
                           "weights": {"live": 1.5, "epoch": -0.5}})
    with pytest.raises(SpecError):
        parse(bad)


def test_unknown_engine_rejected():
    with pytest.raises(SpecError, match="engine"):
        parse(make_spec(engine="warp-drive"))


def test_epoch_reads_require_epoch_engine():
    bad = make_spec(engine="lds",
                    reads={"reads_per_batch": 8,
                           "weights": {"live": 0.0, "epoch": 1.0}})
    with pytest.raises(SpecError, match="epoch"):
        parse(bad)


def test_fault_beyond_stream_rejected():
    bad = make_spec(faults={"events": [{"at_batch": 99, "kind": "crash"}]})
    with pytest.raises(SpecError, match="at_batch"):
        parse(bad)


def test_bad_name_charset_rejected():
    with pytest.raises(SpecError, match="name"):
        parse(make_spec(name="no spaces allowed!"))


def test_unknown_backend_rejected_at_run_time():
    spec = parse(make_spec())
    with pytest.raises(ValueError, match="backend"):
        run_scenario(spec, backend="ramdisk")


# ------------------------------------------------------------ spec text


def test_non_json_spec_file_rejected_naming_the_file(tmp_path):
    path = tmp_path / "road-yaml.json"
    path.write_text("name: road-yaml\nseed: 9\n")
    with pytest.raises(SpecError, match=r"road-yaml\.json: invalid JSON"):
        load_spec(path)


def test_road_diurnal_catalog_spec_is_json():
    """Every catalog entry, the road-diurnal wave included, is JSON: no
    other file in the catalog directory would be loaded."""
    assert {p.suffix for p in catalog_dir().iterdir() if p.is_file()} == {".json"}
    path = catalog_dir_path("road-diurnal")
    spec = load_spec(path)
    assert spec.graph.shape == "road"
    assert spec.traffic.pattern == "diurnal"
    assert spec.reads.live_weight == pytest.approx(0.5)
