"""Determinism self-test of the service benchmark.

Every run of one seed must do identical work — only wall-clock time may
vary — and another seed must keep the same batch and checkpoint counts.
Slow (six benchmark runs, a few minutes); run from the root of a checkout:

    python3 -m pytest svcbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The declared run length: at least one in-run checkpoint on both workloads.
SECONDS = 20

#: Per-layer metrics of a traced run that are exact work counts.
WORK_COUNTS = (
    "coordinator.batch_size",
    "persist.checkpoints",
    "persist.replay_batches",
    "store.csr_rebuilds",
    "engine.moves",
    "engine.rounds",
    "engine.marked",
    "engine.dags",
)


def _run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    counts_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0
    return json.loads(counts_line)["counts"], result["metrics"]


@pytest.mark.parametrize("workload", ["road-trickle", "social-batch"])
def test_work_repeats_exactly(workload: str) -> None:
    counts_a, layers_a = _run(workload, 5, trace=1)
    counts_b, layers_b = _run(workload, 5, trace=1)
    assert counts_a == counts_b
    assert counts_a["checkpoints"] >= 1
    for name in WORK_COUNTS:
        assert layers_a[name]["value"] == layers_b[name]["value"], name
    assert layers_a["engine.moves"]["value"] > 0

    counts_c, _ = _run(workload, 6, trace=0)
    for key in ("batches", "checkpoints", "replayed_batches"):
        assert counts_c[key] == counts_a[key], key
