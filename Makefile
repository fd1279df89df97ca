# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so `make check` locally predicts the gate.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check check-full check-paper lint lint-cold lint-json lint-sarif lint-changed test smoke smoke-multicall smoke-cache bench bench-trace bench-cache perfbench perfbench-profile

check: lint test smoke

# Everything `check` runs, but with the lint result cache disabled — what a
# cold CI runner sees. Use before tagging a release or after editing rules.
check-full: lint-cold test smoke

# The paper-shape checks (every figure's mechanism and shape, benchmarks/):
# slower than tier-1, so a separate target and CI job.
check-paper:
	$(PYTHON) -m pytest benchmarks -q

lint:
	$(PYTHON) -m repro.analysis --cache --jobs 0

lint-cold:
	$(PYTHON) -m repro.analysis --no-cache

# Sub-second pre-commit pass: only files dirty vs git are reported.
lint-changed:
	$(PYTHON) -m repro.analysis --cache --changed-only

lint-json:
	$(PYTHON) -m repro.analysis --format json --output lint-report.json

lint-sarif:
	$(PYTHON) -m repro.analysis --format sarif --output lint-report.sarif

test:
	$(PYTHON) -m pytest -x -q

smoke:
	$(PYTHON) -m repro sweep --smoke

# Two calls sharing one cell, through the batch executor (per-call QoE rows).
smoke-multicall:
	$(PYTHON) -m repro sweep --smoke --calls 2

# The same smoke sweep twice through a fresh scenario result cache: the
# second pass must rehydrate every grid point (nonzero hit rate enforced).
smoke-cache:
	rm -rf /tmp/athena-smoke-cache
	$(PYTHON) -m repro sweep --smoke --cache-dir /tmp/athena-smoke-cache
	$(PYTHON) -m repro sweep --smoke --cache-dir /tmp/athena-smoke-cache \
		| tee /tmp/athena-smoke-cache.log
	grep -E "cache: hits=[1-9]" /tmp/athena-smoke-cache.log

bench:
	$(PYTHON) -m repro bench

# Just the trace save/ship path, gated against its committed floors
# (trace_emit >= 2.0x emit+save, sweep_transport >= 1.5x sweep wall-clock).
bench-trace:
	$(PYTHON) -m repro bench --only trace_emit,sweep_transport --check --out /tmp/BENCH_trace.json

# Just the scenario result cache, gated against its committed floor
# (warm sweep >= 5x cold, cache-hit JSONL byte-identical to fresh runs).
bench-cache:
	$(PYTHON) -m repro bench --only scenario_cache --check --out /tmp/BENCH_cache.json

# The end-to-end benchmark (perfbench/README.md): each workload for 30 s
# with seed 1; perfbench-profile adds the per-layer cProfile table.  Not
# run in CI: 30-s runs on shared runners are too noisy to gate on.
PERFBENCH_WORKLOADS := overload_cell conference_live reproduce_all

perfbench:
	for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

perfbench-profile:
	for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace 1 || exit 1; \
	done
