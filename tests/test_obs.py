"""Tests for the observability layer: registry, tracing, exporters.

Covers the design contracts of ``repro.obs``:

* counters/gauges/histograms are exact under concurrent writers;
* histogram buckets use inclusive (Prometheus ``le``) upper bounds;
* the process-wide registry resets in place — cached handles stay valid;
* spans nest per thread and feed the ``span_<name>_seconds`` histograms;
* disabled instrumentation records nothing (and hands out the null span);
* exporter output is byte-stable (golden files in ``tests/golden/``);
* the built-in hot-path instrumentation reports identical deterministic
  work counters on both level-store backends.
"""

import json
import os
import threading

import pytest

from repro import obs
from repro.obs import (
    COUNT_BUCKETS,
    MetricsRegistry,
    NULL_SPAN,
    log_buckets,
)
from repro.obs.export import to_jsonl, to_prometheus, render

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture
def reg():
    return MetricsRegistry(enabled=True)


@pytest.fixture(autouse=True)
def _clean_global_registry():
    """Leave the process-wide registry the way the session started."""
    was = obs.enabled()
    yield
    obs.REGISTRY.enabled = was
    obs.reset()


# ----------------------------------------------------------------------
# Buckets
# ----------------------------------------------------------------------
def test_log_buckets_values():
    assert log_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
    assert log_buckets(1e-6, 10.0, 3) == pytest.approx((1e-6, 1e-5, 1e-4))


@pytest.mark.parametrize(
    "start,factor,count", [(0.0, 2.0, 3), (-1.0, 2.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 0)]
)
def test_log_buckets_validation(start, factor, count):
    with pytest.raises(ValueError):
        log_buckets(start, factor, count)


def test_histogram_bucket_edges_inclusive(reg):
    h = reg.histogram("h", (1.0, 2.0, 4.0))
    # x == bound lands in that bucket (le semantics); above all bounds
    # lands in the overflow bucket.
    h.observe(1.0)
    h.observe(2.0)
    h.observe(1.5)
    h.observe(4.0)
    h.observe(4.0001)
    h.observe(0.1)
    assert h.counts == [2, 2, 1, 1]
    assert h.count == 6
    assert h.sum == pytest.approx(1.0 + 2.0 + 1.5 + 4.0 + 4.0001 + 0.1)
    cum = h.cumulative()
    assert cum[-1] == (float("inf"), 6)
    assert [c for _, c in cum] == [2, 4, 5, 6]


def test_histogram_rejects_bad_bounds(reg):
    with pytest.raises(ValueError):
        reg.histogram("bad", ())
    with pytest.raises(ValueError):
        reg.histogram("bad2", (2.0, 1.0))
    with pytest.raises(ValueError):
        reg.histogram("bad3", (1.0, 1.0))


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_counter_rejects_negative(reg):
    c = reg.counter("c")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_get_or_create_returns_same_handle(reg):
    assert reg.counter("x") is reg.counter("x")
    assert reg.counter("x", {"a": "1"}) is not reg.counter("x")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_reset_preserves_handles(reg):
    c = reg.counter("c")
    g = reg.gauge("g")
    h = reg.histogram("h", (1.0, 2.0))
    c.inc(5)
    g.set(3)
    h.observe(1.5)
    with reg.span("s"):
        pass
    reg.reset()
    assert c.value == 0 and g.value == 0 and h.count == 0
    assert sum(h.counts) == 0 and h.sum == 0.0
    assert len(reg.spans) == 0
    # The same objects are still wired into the registry.
    assert reg.counter("c") is c
    c.inc()
    assert reg.counter_value("c") == 1


def test_concurrent_writers_exact_totals(reg):
    c = reg.counter("hits")
    g = reg.gauge("depth")
    h = reg.histogram("obs", COUNT_BUCKETS)
    n_threads, per_thread = 8, 2000

    def work():
        for i in range(per_thread):
            c.inc()
            g.add(1)
            h.observe(i % 7 + 1)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = n_threads * per_thread
    assert c.value == total
    assert g.value == total
    assert h.count == total
    assert sum(h.counts) == total


def test_snapshot_format(reg):
    reg.inc("a_total", 2)
    reg.inc("b_total", 1, labels={"kind": "x"})
    reg.set_gauge("g", 7)
    snap = reg.snapshot()
    assert snap["counters"] == {"a_total": 2, "b_total{kind=x}": 1}
    assert snap["gauges"] == {"g": 7}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_spans_nest_and_feed_histograms(reg):
    with reg.span("outer", edges=3) as outer:
        with reg.span("inner") as inner:
            inner.set(moves=2)
    assert len(reg.spans) == 1
    root = reg.spans[0]
    assert root is outer
    assert root.attrs == {"edges": 3}
    assert [c.name for c in root.children] == ["inner"]
    assert root.children[0].attrs == {"moves": 2}
    assert root.duration >= root.children[0].duration >= 0.0
    # Every finished span feeds its latency histogram.
    assert reg.histogram("span_outer_seconds").count == 1
    assert reg.histogram("span_inner_seconds").count == 1
    # walk() yields depth-annotated nodes.
    assert [(d, s.name) for d, s in root.walk()] == [(0, "outer"), (1, "inner")]


def test_span_disabled_is_null(reg):
    reg.disable()
    sp = reg.span("nothing")
    assert sp is NULL_SPAN
    with sp as s:
        s.set(x=1)
    assert len(reg.spans) == 0
    assert reg.current_span() is NULL_SPAN


def test_spans_bounded(reg):
    small = MetricsRegistry(enabled=True, max_spans=4)
    for i in range(10):
        with small.span(f"s{i}"):
            pass
    assert len(small.spans) == 4
    assert small.spans[0].name == "s6"


def test_disabled_instrumentation_records_nothing():
    obs.disable()
    obs.reset()
    from repro.core.cplds import CPLDS

    cp = CPLDS(8)
    cp.insert_batch([(0, 1), (1, 2), (0, 2), (2, 3)])
    for v in range(4):
        cp.read(v)
    snap = obs.snapshot()
    assert all(v == 0 for v in snap["counters"].values())
    assert len(obs.REGISTRY.spans) == 0


def test_enabled_counters_match_engine_fields():
    obs.enable()
    obs.reset()
    from repro.core.cplds import CPLDS

    cp = CPLDS(16)
    clique = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    cp.insert_batch(clique)
    cp.delete_batch(clique[:20])
    reg = obs.REGISTRY
    assert reg.counter_value("cplds_batches_total") == 2
    assert reg.counter_value("plds_moves_total") > 0
    # The process-wide counters aggregate exactly the engine's own fields
    # (single structure, so totals == the per-batch sums we can recompute).
    span_names = [s.name for s in reg.spans]
    assert span_names == ["cplds.insert_batch", "cplds.delete_batch"]
    insert_span = reg.spans[0]
    assert insert_span.attrs["edges"] == len(clique)
    assert insert_span.attrs["moves"] > 0


# ----------------------------------------------------------------------
# Exporters (golden files)
# ----------------------------------------------------------------------
def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry(enabled=True)
    reg.inc("plds_moves_total", 42)
    reg.inc("columnar_kernel_calls_total", 3, labels={"kernel": "bulk_raise_level"})
    reg.set_gauge("coordinator_queue_depth", 7)
    h = reg.histogram("batch_rounds", (1.0, 2.0, 4.0))
    for x in (1, 2, 2, 3, 9):
        h.observe(x)
    with reg.span("insert_batch", edges=10) as sp:
        with reg.span("insert_phase"):
            pass
        sp.set(moves=5)
    # Pin the only nondeterministic fields so the export is byte-stable.
    root = reg.spans[0]
    root.duration = 0.25
    root.children[0].duration = 0.125
    reg._histograms.clear()  # span timing histograms are timing-dependent
    hh = reg.histogram("batch_rounds", (1.0, 2.0, 4.0))
    for x in (1, 2, 2, 3, 9):
        hh.observe(x)
    return reg


def _check_golden(name: str, text: str):
    path = os.path.join(GOLDEN_DIR, name)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        with open(path, "w") as fh:
            fh.write(text)
    with open(path) as fh:
        assert text == fh.read()


def test_prometheus_golden():
    _check_golden("obs_metrics.prom", to_prometheus(_golden_registry()))


def test_jsonl_golden():
    text = to_jsonl(_golden_registry())
    _check_golden("obs_metrics.jsonl", text)
    # And every line is valid JSON with a type tag.
    types = [json.loads(line)["type"] for line in text.splitlines()]
    assert types == ["counter", "counter", "gauge", "histogram", "span"]


def test_prometheus_shape():
    text = to_prometheus(_golden_registry())
    assert "# TYPE batch_rounds histogram" in text
    assert 'batch_rounds_bucket{le="+Inf"} 5' in text
    assert "batch_rounds_count 5" in text
    assert 'columnar_kernel_calls_total{kernel="bulk_raise_level"} 3' in text


def test_render_human():
    text = render(_golden_registry())
    assert "plds_moves_total" in text
    assert "coordinator_queue_depth" in text
    assert "insert_batch" in text and "insert_phase" in text


def test_render_empty():
    assert render(MetricsRegistry()) == "(no metrics recorded)"


# ----------------------------------------------------------------------
# Differential: both backends report identical deterministic counters
# ----------------------------------------------------------------------
#: Counters every CPLDS engine records (the bench gate's work counters).
ENGINE_COUNTERS = (
    "plds_moves_total",
    "plds_rounds_total",
    "cplds_batches_total",
    "cplds_marked_total",
    "cplds_dags_total",
)


def test_backends_report_identical_work_counters():
    import random

    from repro import engines
    from repro.core.cplds import CPLDS

    random.seed(7)
    n = 120
    edges = set()
    while len(edges) < 420:
        u, v = random.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    stream = sorted(edges)

    def counters(cp):
        obs.reset()
        cp.insert_batch(stream[:300])
        cp.delete_batch(stream[:80])
        cp.insert_batch(stream[300:])
        return {
            name: obs.REGISTRY.counter_value(name)
            for name in ENGINE_COUNTERS
        }

    obs.enable()
    reference = counters(engines.create("cplds", n, backend="object"))
    # The marking engine over the array store: every counter agrees.
    assert counters(CPLDS(n, backend="columnar-frontier")) == reference
    # The frontier engine the registry builds for the array store.
    frontier = engines.create("cplds", n, backend="columnar-frontier")
    assert type(frontier).__name__ == "FrontierCPLDS"
    assert counters(frontier) == reference
    assert reference["plds_moves_total"] > 0
    assert reference["cplds_batches_total"] == 3


# ----------------------------------------------------------------------
# ServiceTelemetry mirrors into the registry
# ----------------------------------------------------------------------
def test_service_telemetry_mirrors_counters():
    from repro.runtime.supervisor import ServiceTelemetry

    obs.enable()
    obs.reset()
    tele = ServiceTelemetry()
    tele.batches_applied += 3
    tele.recoveries += 1
    tele.record_transition("HEALTHY", "RECOVERING")
    reg = obs.REGISTRY
    assert reg.counter_value("service_batches_applied_total") == 3
    assert reg.counter_value("service_recoveries_total") == 1
    assert (
        reg.counter_value(
            "service_health_transitions_total",
            {"from": "HEALTHY", "to": "RECOVERING"},
        )
        == 1
    )
    # The dataclass remains the instance-local source of truth.
    assert tele.batches_applied == 3
    assert tele.transitions == [("HEALTHY", "RECOVERING")]


def test_service_telemetry_disabled_does_not_mirror():
    from repro.runtime.supervisor import ServiceTelemetry

    obs.disable()
    obs.reset()
    tele = ServiceTelemetry()
    tele.retries += 5
    assert obs.REGISTRY.counter_value("service_retries_total") == 0
    assert tele.retries == 5


# ----------------------------------------------------------------------
# Hygiene: durations must come from monotonic clocks
# ----------------------------------------------------------------------
def test_no_wall_clock_durations_in_src():
    """``time.time()`` is banned in src/ — it is not monotonic, so every
    duration must use ``perf_counter`` (or ``monotonic`` for deadlines)."""
    src_root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    offenders = []
    for dirpath, _dirs, files in os.walk(src_root):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, encoding="utf-8") as fh:
                if "time.time(" in fh.read():
                    offenders.append(os.path.relpath(path, src_root))
    assert not offenders, f"wall-clock time.time() found in: {offenders}"
