"""Tests for the lock-freedom (liveness) analysis."""

import pytest

from repro import engines
from repro.core import CPLDS
from repro.errors import ReproError
from repro.runtime.stepping import InterleavedScheduler, SteppedResult
from repro.runtime.threads import run_concurrent_session
from repro.verify.liveness import analyze_stepped, check_session_liveness
from repro.workloads import BatchStream
from repro.graph import generators as gen


def stepped_population(seed=0, n=12):
    """Stepped reads of a clique build and teardown, on every backend."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    results = []
    for backend in engines.backends():
        stream = BatchStream.insert_then_delete("live", n, edges, 12)
        cp = engines.create("cplds", n, backend=backend)
        sched = InterleavedScheduler(cp, num_readers=6, seed=seed)
        results += sched.run(stream)
    return results


class TestAnalyzeStepped:
    def test_healthy_population(self):
        results = stepped_population()
        report = analyze_stepped(results)
        assert report.reads == len(results)
        assert report.total_retries == sum(r.retries for r in results)
        assert set(report.cause_counts) == {"batch", "level"}
        assert (
            report.cause_counts["batch"] + report.cause_counts["level"]
            == report.total_retries
        )

    def test_retry_rate(self):
        report = analyze_stepped(stepped_population(seed=2))
        assert report.retry_rate >= 0.0

    def test_causeless_retry_flagged(self):
        bad = SteppedResult(
            vertex=0, level=0, estimate=1.0, from_descriptor=False,
            retries=2, retry_causes=["batch"],
        )
        with pytest.raises(ReproError, match="recorded causes"):
            analyze_stepped([bad])

    def test_invalid_cause_flagged(self):
        bad = SteppedResult(
            vertex=0, level=0, estimate=1.0, from_descriptor=False,
            retries=1, retry_causes=["cosmic-ray"],
        )
        with pytest.raises(ReproError, match="invalid retry cause"):
            analyze_stepped([bad])

    def test_empty_population(self):
        report = analyze_stepped([])
        assert report.reads == 0
        assert report.retry_rate == 0.0


class TestSessionLiveness:
    def test_real_session_passes(self):
        n = 60
        edges = gen.erdos_renyi(n, 240, seed=4)
        stream = BatchStream.insert_then_delete("live", n, edges, 60)
        session = run_concurrent_session(CPLDS(n), stream, num_readers=2)
        report = check_session_liveness(session)
        assert report.reads == len(session.reads)
