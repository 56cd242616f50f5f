"""Tests for the CI perf-regression gate (`repro.harness.bench_gate`).

The gate's contract: deterministic work counters compare exactly (higher =
fail, lower = warn), wall-clock medians only ever warn, and `--warn-only`
(the CI override label's mode) downgrades failures to exit 0.
"""

import copy
import json

import pytest

from repro.harness import bench_gate
from repro.harness.bench_json import WORK_COUNTERS


def _staleness(p99=1.0, frac=0.05, retries=0.001, slo_status="PASS") -> dict:
    return {
        "reads_live": 950,
        "reads_descriptor": 50,
        "descriptor_read_fraction": frac,
        "retries_total": 1,
        "retries_per_read": retries,
        "staleness_epochs_p50": 0.0,
        "staleness_epochs_p99": p99,
        "staleness_epochs_max": 1.0,
        "slo": {
            "status": slo_status,
            "verdicts": [
                {"name": "staleness-p99", "status": slo_status},
            ],
        },
    }


def _doc(moves=1000, rounds=50, batch_s=0.5, read_s=1e-5, staleness=None) -> dict:
    work = {name: 1 for name in WORK_COUNTERS}
    work["plds_moves_total"] = moves
    work["plds_rounds_total"] = rounds
    backends = {}
    metrics = {}
    for backend in ("object", "columnar-frontier"):
        backends[backend] = {
            "fig3": {"cplds_median_read_latency_s": read_s},
            "fig5": {"cplds_median_batch_time_s": batch_s},
            "fig7": {},
        }
        if staleness is not None:
            backends[backend]["staleness"] = copy.deepcopy(staleness)
        metrics[backend] = {"work": dict(work), "snapshot": {}}
    return {"backends": backends, "metrics": metrics}


def test_identical_documents_pass():
    doc = _doc()
    result = bench_gate.compare(doc, copy.deepcopy(doc))
    assert result.ok
    assert result.failures == []
    assert result.warnings == []


def test_counter_regression_fails():
    base = _doc(moves=1000)
    cand = _doc(moves=1001)
    result = bench_gate.compare(base, cand)
    assert not result.ok
    # Both backends regressed (the fixture shares the work dict shape).
    assert len(result.failures) == 2
    assert "plds_moves_total" in result.failures[0]
    assert "+1" in result.failures[0]


def test_counter_improvement_warns_only():
    result = bench_gate.compare(_doc(moves=1000), _doc(moves=900))
    assert result.ok
    assert len(result.warnings) == 2
    assert "improved" in result.warnings[0]


def test_wall_clock_is_warn_only():
    # 10x slower wall clock: far past tolerance, still passes.
    result = bench_gate.compare(_doc(batch_s=0.5), _doc(batch_s=5.0))
    assert result.ok
    assert any("fig5_batch_time_s" in w for w in result.warnings)


def test_wall_clock_within_tolerance_is_silent():
    result = bench_gate.compare(_doc(batch_s=0.5), _doc(batch_s=0.55))
    assert result.ok and result.warnings == []


def test_missing_metrics_section_fails():
    base = _doc()
    del base["metrics"]
    result = bench_gate.compare(base, _doc())
    assert not result.ok
    assert "regenerate" in result.failures[0]

    cand = _doc()
    del cand["metrics"]["columnar-frontier"]["work"]
    result = bench_gate.compare(_doc(), cand)
    assert not result.ok
    assert any("[columnar-frontier]" in f for f in result.failures)


def test_missing_counter_fails():
    cand = _doc()
    del cand["metrics"]["object"]["work"]["plds_rounds_total"]
    result = bench_gate.compare(_doc(), cand)
    assert not result.ok
    assert any("plds_rounds_total" in f for f in result.failures)


def test_empty_documents_fail():
    assert not bench_gate.compare({}, {}).ok


@pytest.mark.parametrize(
    "mutate,expected",
    [(lambda d: None, 0), (lambda d: d["metrics"]["object"]["work"].update(plds_moves_total=9999), 1)],
)
def test_cli_exit_codes(tmp_path, capsys, mutate, expected):
    base = _doc()
    cand = _doc()
    mutate(cand)
    bp = tmp_path / "base.json"
    cp = tmp_path / "cand.json"
    bp.write_text(json.dumps(base))
    cp.write_text(json.dumps(cand))
    rc = bench_gate.main(["--baseline", str(bp), "--candidate", str(cp)])
    assert rc == expected
    out = capsys.readouterr().out
    assert ("PASS" in out) == (expected == 0)


def test_cli_warn_only_overrides_failure(tmp_path, capsys):
    base = _doc()
    cand = _doc(moves=2000)
    bp = tmp_path / "base.json"
    cp = tmp_path / "cand.json"
    bp.write_text(json.dumps(base))
    cp.write_text(json.dumps(cand))
    rc = bench_gate.main(
        ["--baseline", str(bp), "--candidate", str(cp), "--warn-only"]
    )
    assert rc == 0
    assert "overridden" in capsys.readouterr().out


def test_slo_budget_overrun_warns_only():
    """Spending >1.25x+slack of a staleness budget warns, never fails."""
    base = _doc(staleness=_staleness(p99=1.0))
    cand = _doc(staleness=_staleness(p99=4.0))
    result = bench_gate.compare(base, cand)
    assert result.ok
    assert any("staleness_epochs_p99" in w for w in result.warnings)


def test_slo_budget_within_tolerance_is_silent():
    base = _doc(staleness=_staleness(p99=1.0, frac=0.05, retries=0.001))
    cand = _doc(staleness=_staleness(p99=1.0, frac=0.055, retries=0.002))
    result = bench_gate.compare(base, cand)
    assert result.ok and result.warnings == []


def test_slo_section_missing_from_baseline_is_silent():
    """Old baselines predate the staleness section: nothing to compare."""
    base = _doc()  # no staleness anywhere
    cand = _doc(staleness=_staleness())
    result = bench_gate.compare(base, cand)
    assert result.ok and result.warnings == []


def test_slo_section_lost_by_candidate_warns():
    base = _doc(staleness=_staleness())
    cand = _doc()
    result = bench_gate.compare(base, cand)
    assert result.ok
    assert any("lost the staleness section" in w for w in result.warnings)


def test_slo_fail_verdict_warns():
    base = _doc(staleness=_staleness())
    cand = _doc(staleness=_staleness(slo_status="FAIL"))
    result = bench_gate.compare(base, cand)
    assert result.ok
    assert any("SLO report is FAIL" in w for w in result.warnings)
    assert any("staleness-p99" in w for w in result.warnings)


def test_slo_none_valued_fields_are_skipped():
    """None percentiles (no histogram data on one side) never warn."""
    stale = _staleness()
    stale["staleness_epochs_p99"] = None
    result = bench_gate.compare(
        _doc(staleness=_staleness()), _doc(staleness=stale)
    )
    assert result.ok and result.warnings == []


def test_checked_in_baseline_has_metrics():
    """The repo's checked-in baseline (BENCH_ARTIFACT) must carry the
    work-counter section the CI gate depends on, for every backend."""
    import os

    from repro.harness.bench_json import BENCH_ARTIFACT

    path = os.path.join(os.path.dirname(__file__), os.pardir, BENCH_ARTIFACT)
    with open(path) as fh:
        doc = json.load(fh)
    for backend in ("object", "columnar-frontier"):
        work = doc["metrics"][backend]["work"]
        for name in WORK_COUNTERS:
            assert isinstance(work[name], int) and work[name] >= 0
    # Work counters are backend-independent by construction.
    assert (
        doc["metrics"]["object"]["work"]
        == doc["metrics"]["columnar-frontier"]["work"]
    )
    # Every backend carries the staleness accounting the SLO budgets read.
    for backend in ("object", "columnar-frontier"):
        stale = doc["backends"][backend]["staleness"]
        assert stale["reads_live"] + stale["reads_descriptor"] > 0
        assert stale["slo"]["status"] in ("PASS", "WARN", "FAIL")
