# Convenience targets for the reproduction. See docs/reproduce.md.

PYTHON ?= python

# Canonical checked-in benchmark artifact (must match
# repro.harness.bench_json.BENCH_ARTIFACT, the CLI default).
BENCH_ARTIFACT ?= BENCH_pr16.json

# Every target runs against the in-tree sources, no install required.
export PYTHONPATH = src

.PHONY: install test lint chaos svcbench-determinism svcbench-pairs batch-rss scenarios scenarios-smoke bench bench-full bench-json bench-baseline bench-gate reproduce reproduce-full examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

# Mirrors the CI lint job; ruff/mypy are skipped with a notice when absent.
lint:
	$(PYTHON) -m compileall -q src
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests benchmarks examples; \
	else echo "ruff not installed; skipped (CI runs it)"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy src/repro/obs src/repro/engines src/repro/reads src/repro/workloads/scenarios; \
	else echo "mypy not installed; skipped (CI runs it)"; fi

chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -m chaos -q

# The service benchmark's determinism self-test: same seed, same exact work
# counts (six benchmark runs, a few minutes; what nightly CI runs).
svcbench-determinism:
	$(PYTHON) -m pytest svcbench -q

# Alternating parent/change svcbench pairs with per-seed figures, medians,
# IQRs and wins (exit 1 on an incorrect run).  PARENT is a checkout of the
# parent commit, e.g. made with `git archive`.
WORKLOAD ?= road-trickle
SEEDS ?= 11-20
svcbench-pairs:
	$(PYTHON) benchmarks/svcbench_pairs.py --parent $(PARENT) --change . \
		--workload $(WORKLOAD) --seeds $(SEEDS)

# Peak RSS of one 64,000-edge insert batch in a fresh process; fails at
# 1 GB or more (what CI runs on every push).
batch-rss:
	$(PYTHON) benchmarks/batch_rss.py

# Full scenario catalog on both store backends (what nightly CI runs).
scenarios:
	$(PYTHON) -m repro.workloads.scenarios --catalog --backend all --strict --table -

# The fast CI subset: 3 specs, truncated, both backends, strict gating.
scenarios-smoke:
	$(PYTHON) -m repro.workloads.scenarios --catalog \
		--only fig5-batch-updates,staleness-slo,bipartite-churn \
		--backend all --smoke --strict --table -

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s
	$(PYTHON) -m repro.harness.bench_json -o $(BENCH_ARTIFACT)

bench-full:
	REPRO_BENCH_CONFIG=full $(PYTHON) -m pytest benchmarks/ --benchmark-only -s
	$(PYTHON) -m repro.harness.bench_json --full -o $(BENCH_ARTIFACT)

bench-json:
	$(PYTHON) -m repro.harness.bench_json -o $(BENCH_ARTIFACT)

# Refresh the checked-in bench-gate baseline (commit the result).
bench-baseline:
	$(PYTHON) -m repro.harness.bench_json -o $(BENCH_ARTIFACT)

# What CI's bench-gate job runs: fresh candidate vs checked-in baseline.
bench-gate:
	$(PYTHON) -m repro.harness.bench_json -o /tmp/bench_candidate.json
	$(PYTHON) -m repro.harness.bench_gate --baseline $(BENCH_ARTIFACT) --candidate /tmp/bench_candidate.json

reproduce:
	$(PYTHON) -m repro.harness.run_all

reproduce-full:
	$(PYTHON) -m repro.harness.run_all --full

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/linearizability_demo.py
	$(PYTHON) examples/road_network_closures.py
	$(PYTHON) examples/churn_pipeline.py
	$(PYTHON) examples/social_network_monitor.py
	$(PYTHON) examples/streaming_service.py

clean:
	rm -rf .pytest_cache build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
