"""Per-phase records: the ``plds.*_phase`` spans are the per-batch series.

Every insert or delete phase runs inside one ``plds.insert_phase`` /
``plds.delete_phase`` span carrying the phase's ``edges``, ``moves`` and
``rounds``; on the CPLDS engines the marking hooks' phase end adds
``marked`` and ``dags``.  These tests drive insert, delete and mixed
batches through the object engine, the ``columnar-frontier`` engine and
the NonSync baseline and check every span against the ``last_batch_*``
values of its phase.
"""

import pytest

from repro import engines, obs
from repro.core import NonSyncKCore
from repro.core.frontier import _hook_mode
from repro.graph import generators as gen

N = 40

ENGINES = {
    "object": lambda: engines.create("cplds", N, backend="object"),
    "columnar-frontier": lambda: engines.create(
        "cplds", N, backend="columnar-frontier"
    ),
    "nonsync": lambda: NonSyncKCore(N),
}

EDGES = gen.chung_lu(N, 160, seed=3)

#: (kind, insertions, deletions): two inserts, a delete, then a mixed batch
#: whose deletions all hit present edges.
SCRIPT = [
    ("insert", EDGES[:90], []),
    ("insert", EDGES[90:130], []),
    ("delete", [], EDGES[:30]),
    ("mixed", EDGES[130:], EDGES[30:70]),
]


@pytest.fixture(autouse=True)
def _registry_on():
    was = obs.enabled()
    obs.enable()
    obs.reset()
    yield
    obs.REGISTRY.enabled = was
    obs.reset()


def phase_spans():
    """Every finished ``plds.*_phase`` span, oldest first."""
    return [
        sp
        for root in obs.REGISTRY.spans
        for _depth, sp in root.walk()
        if sp.name.startswith("plds.")
    ]


def marks(impl) -> bool:
    return hasattr(impl, "last_batch_marked")


def phase_record(impl, edges: int) -> dict:
    """The ``last_batch_*`` values of the phase that just ran."""
    rec = {
        "edges": edges,
        "moves": impl.plds.last_batch_moves,
        "rounds": impl.plds.last_batch_rounds,
    }
    if marks(impl):
        rec["marked"] = impl.last_batch_marked
        rec["dags"] = impl.last_batch_dags
    return rec


def single_phase_records(make):
    """Run ``SCRIPT`` one phase per call, recording each phase's values."""
    impl = make()
    records = []
    for _kind, ins, dels in SCRIPT:
        if ins:
            records.append(phase_record(impl, impl.insert_batch(ins)))
        if dels:
            records.append(phase_record(impl, impl.delete_batch(dels)))
    return records


def span_record(sp) -> dict:
    keys = ("edges", "moves", "rounds", "marked", "dags")
    return {k: sp.attrs[k] for k in keys if k in sp.attrs}


class TestTelemetry:
    def test_counts_match_impl_telemetry(self):
        for name, make in ENGINES.items():
            obs.reset()
            expected = single_phase_records(make)
            obs.reset()
            impl = make()
            for kind, ins, dels in SCRIPT:
                if kind == "mixed":
                    counts = impl.apply_batch(ins, dels)
                    assert counts == (len(ins), len(dels)), name
                    ins_span, del_span = phase_spans()[-2:]
                    # The mixed batch's counters run across both phases.
                    assert impl.plds.last_batch_moves == (
                        ins_span.attrs["moves"] + del_span.attrs["moves"]
                    ), name
                    if marks(impl):
                        assert del_span.attrs["marked"] == impl.last_batch_marked
                        assert del_span.attrs["dags"] == impl.last_batch_dags
                elif kind == "insert":
                    rec = phase_record(impl, impl.insert_batch(ins))
                    assert span_record(phase_spans()[-1]) == rec, name
                else:
                    rec = phase_record(impl, impl.delete_batch(dels))
                    assert span_record(phase_spans()[-1]) == rec, name
            # Each phase of the mixed batch carries the values that phase
            # has when run on its own.
            assert [span_record(sp) for sp in phase_spans()] == expected, name
            assert any(r["moves"] for r in expected), name
            if marks(impl):
                assert any(r["marked"] for r in expected), name

    def test_records_per_batch(self):
        for name, make in ENGINES.items():
            obs.reset()
            impl = make()
            for _kind, ins, dels in SCRIPT:
                impl.apply_batch(ins, dels)
            assert [sp.name for sp in phase_spans()] == [
                "plds.insert_phase",
                "plds.insert_phase",
                "plds.delete_phase",
                "plds.insert_phase",
                "plds.delete_phase",
            ], name

    def test_works_on_baselines_without_marking(self):
        ns = NonSyncKCore(N)
        ns.insert_batch(EDGES)
        (sp,) = phase_spans()
        assert sp.attrs["edges"] == len(EDGES)
        assert sp.attrs["moves"] == ns.plds.last_batch_moves > 0
        assert "marked" not in sp.attrs and "dags" not in sp.attrs

    def test_render_and_totals(self):
        cp = engines.create("cplds", N, backend="columnar-frontier")
        cp.insert_batch(EDGES)
        cp.delete_batch(EDGES[:50])
        text = obs.render(spans=2)
        assert "plds.insert_phase" in text and "plds.delete_phase" in text
        assert "marked=" in text and "dags=" in text
        # The registry totals are the sums of the per-phase records.
        spans = phase_spans()
        reg = obs.REGISTRY
        assert reg.counter_value("cplds_batches_total") == len(spans) == 2
        for counter, attr in (
            ("plds_moves_total", "moves"),
            ("plds_rounds_total", "rounds"),
            ("cplds_marked_total", "marked"),
            ("cplds_dags_total", "dags"),
        ):
            assert reg.counter_value(counter) == sum(
                sp.attrs[attr] for sp in spans
            ), counter

    def test_render_tail(self):
        cp = engines.create("cplds", 6, backend="object")
        for e in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            cp.insert_batch([e])
        spans_section = obs.render(spans=2).split("spans:\n", 1)[1]
        assert spans_section.count("plds.insert_phase") == 2

    def test_structure_still_correct_with_telemetry(self):
        """Recording the series needs no extra hooks: the frontier engine
        keeps its whole-frontier marking and reaches the same levels as a
        run with the registry off."""
        traced = engines.create("cplds", N, backend="columnar-frontier")
        assert _hook_mode(traced.plds.hooks) == "bulk"
        for _kind, ins, dels in SCRIPT:
            traced.apply_batch(ins, dels)
        traced.check_invariants()
        obs.disable()
        plain = engines.create("cplds", N, backend="columnar-frontier")
        for _kind, ins, dels in SCRIPT:
            plain.apply_batch(ins, dels)
        assert traced.levels() == plain.levels()
