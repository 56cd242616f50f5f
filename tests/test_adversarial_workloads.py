"""The adversarial workloads, driven through the full correctness stack."""

import pytest

from repro import engines
from repro.core import CPLDS
from repro.lds import LDSParams
from repro.runtime.inject import InjectionProbe, attach_probe
from repro.runtime.stepping import InterleavedScheduler
from repro.verify import LinearizabilityChecker, RecordedKCore
from repro.workloads import adversarial as adv


class TestConstructions:
    def test_flash_crowd_shape(self):
        n, stream = adv.flash_crowd(20, background=50)
        assert n == 70
        assert len(stream) == 2
        assert len(stream.batches[1]) == 20 * 19 // 2

    def test_cascade_chain_shape(self):
        n, stream = adv.cascade_chain(6)
        assert n == 6
        assert all(len(b) == 1 for b in stream)
        assert len(stream) == 15

    def test_teardown_wave_conserves_edges(self):
        n, stream = adv.teardown_wave(8, waves=4)
        inserted = sum(len(b) for b in stream if b.kind == "insert")
        deleted = sum(len(b) for b in stream if b.kind == "delete")
        assert inserted == deleted == 28

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            adv.flash_crowd(1)
        with pytest.raises(ValueError):
            adv.cascade_chain(2)
        with pytest.raises(ValueError):
            adv.teardown_wave(2)
        with pytest.raises(ValueError):
            adv.teardown_wave(5, waves=0)
        with pytest.raises(ValueError):
            adv.sandwich_adversary(3)


def run_with_injection(n, stream, levels_per_group=8):
    impl = CPLDS(n, params=LDSParams(n, levels_per_group=levels_per_group))
    rec = RecordedKCore(impl)

    def on_point(_tag):
        for v in range(0, n, max(1, n // 12)):
            rec.read(v)

    attach_probe(impl, InjectionProbe(on_point))
    for batch in stream:
        if batch.kind == "insert":
            rec.insert_batch(batch.edges)
        else:
            rec.delete_batch(batch.edges)
    impl.check_invariants()
    return rec.history


class TestCPLDSSurvivesAdversaries:
    def test_flash_crowd_linearizable(self):
        n, stream = adv.flash_crowd(24, background=60)
        history = run_with_injection(n, stream)
        assert LinearizabilityChecker(history).violations() == []

    def test_cascade_chain_linearizable(self):
        n, stream = adv.cascade_chain(8)
        history = run_with_injection(n, stream, levels_per_group=4)
        assert LinearizabilityChecker(history).violations() == []

    def test_teardown_wave_linearizable(self):
        n, stream = adv.teardown_wave(10, waves=3)
        history = run_with_injection(n, stream, levels_per_group=4)
        assert LinearizabilityChecker(history).violations() == []

    def test_sandwich_adversary_linearizable(self):
        n, stream = adv.sandwich_adversary(12)
        history = run_with_injection(n, stream, levels_per_group=4)
        assert LinearizabilityChecker(history).violations() == []

    @pytest.mark.parametrize("seed", range(3))
    def test_sandwich_adversary_under_stepped_reads(self, seed):
        for backend in engines.backends():
            n, stream = adv.sandwich_adversary(12)
            impl = engines.create(
                "cplds", n, backend=backend,
                params=LDSParams(n, levels_per_group=4),
            )
            sched = InterleavedScheduler(impl, num_readers=6, seed=seed)
            results = sched.run(stream)
            assert results  # validation happens inside the scheduler
            impl.check_invariants()
