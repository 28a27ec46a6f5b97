PYTHON ?= python
export PYTHONPATH := src

.PHONY: test stress chaos bench bench-planner bench-wallclock bench-multiway bench-sketch bench-serving bench-ingest bench-scatter bench-all lint lint-changed docs-check examples reach all

## tier-1: the full suite (unit + algorithms + integration + benchmarks)
test:
	$(PYTHON) -m pytest -x -q

## heavy concurrency smoke tests (@pytest.mark.stress, excluded from
## tier-1): the serving-layer and store write/flush/scan stress suite
stress:
	$(PYTHON) -m pytest -m stress -q tests

## crash/fault-injection sweeps for async maintenance (@pytest.mark.chaos,
## excluded from tier-1): crash the worker at every drain point and prove
## recovery converges to the never-crashed state
chaos:
	$(PYTHON) -m pytest -m chaos -q tests/maintenance/test_chaos.py

## figure regenerations + planner-quality grid only
bench:
	$(PYTHON) -m pytest benchmarks/ -q

## planner-accuracy grid (fig7+fig8 hit rate + per-cell regret); the suite
## fails on any difference from the committed BENCH_planner.json
## (simulated-only, so deterministic) and the diff shows what moved
bench-planner:
	BENCH_PLANNER_OUT=BENCH_planner.candidate.json $(PYTHON) -m pytest benchmarks/test_planner_accuracy.py -q
	$(PYTHON) tools/bench_diff.py BENCH_planner.json BENCH_planner.candidate.json

## wall-clock read-path micro-benchmarks, diffed against the committed
## BENCH_read_path.json baseline (warns, never fails, on regression)
bench-wallclock:
	BENCH_OUT=BENCH_read_path.candidate.json $(PYTHON) -m pytest benchmarks/test_wallclock.py -q
	$(PYTHON) tools/bench_diff.py BENCH_read_path.json BENCH_read_path.candidate.json

## n-way (3/4-way) grid: simulated per-cell costs of the three multi-way
## strategies; the suite fails on any difference from the committed
## BENCH_multiway.json (simulated-only, so deterministic) and the diff
## shows what moved
bench-multiway:
	BENCH_MULTIWAY_OUT=BENCH_multiway.candidate.json $(PYTHON) -m pytest benchmarks/test_multiway.py -q
	$(PYTHON) tools/bench_diff.py BENCH_multiway.json BENCH_multiway.candidate.json

## sketch (Golomb blob) encode/decode/membership micro-benchmarks, diffed
## against the committed BENCH_sketch.json baseline (warn-only)
bench-sketch:
	BENCH_SKETCH_OUT=BENCH_sketch.candidate.json $(PYTHON) -m pytest benchmarks/test_sketch.py -q
	$(PYTHON) tools/bench_diff.py BENCH_sketch.json BENCH_sketch.candidate.json

## concurrent query serving: QPS, latency percentiles, plan-cache hit rate,
## speedup over uncached per-query execution; diffed against the committed
## BENCH_serving.json baseline (warn-only)
bench-serving:
	BENCH_SERVING_OUT=BENCH_serving.candidate.json $(PYTHON) -m pytest benchmarks/test_serving.py -q
	$(PYTHON) tools/bench_diff.py BENCH_serving.json BENCH_serving.candidate.json

## sustained-ingest benchmark for the async maintenance pipeline: submit /
## drain / inline-apply timings with query results pinned at every drain
## point; diffed against the committed BENCH_ingest.json (warn-only)
bench-ingest:
	BENCH_INGEST_OUT=BENCH_ingest.candidate.json $(PYTHON) -m pytest benchmarks/test_ingest.py -q
	$(PYTHON) tools/bench_diff.py BENCH_ingest.json BENCH_ingest.candidate.json

## multi-server scatter/gather fan-out: simulated-clock speedup of 4
## region servers over 1 on scan / multi-get / ISL / BFHM workloads; the
## suite fails on any difference from the committed BENCH_scatter.json
## (simulated-only, so deterministic) and the diff shows what moved
bench-scatter:
	BENCH_SCATTER_OUT=BENCH_scatter.candidate.json $(PYTHON) -m pytest benchmarks/test_scatter.py -q
	$(PYTHON) tools/bench_diff.py BENCH_scatter.json BENCH_scatter.candidate.json

## one greppable trajectory table over every committed BENCH_*.json
bench-all:
	$(PYTHON) tools/bench_summary.py

## repro-lint (lock discipline / determinism / metering / exception
## safety), the gated typed-core mypy check, and the docs checks
lint:
	$(PYTHON) -m tools.analyze src/repro
	$(PYTHON) -m tools.run_mypy
	$(PYTHON) tools/docs_check.py

## fast local loop: lint only files changed vs HEAD
lint-changed:
	$(PYTHON) -m tools.analyze --changed src/repro

## docstring coverage + README code blocks actually run
docs-check:
	$(PYTHON) tools/docs_check.py

## run every example script end to end (docs-check fails when an
## examples/*.py is missing here)
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/explain_plan.py
	$(PYTHON) examples/multiway_explain.py
	$(PYTHON) examples/search_engine_logs.py
	$(PYTHON) examples/online_updates.py
	$(PYTHON) examples/multiway_trends.py
	$(PYTHON) examples/full_text_search.py

## reach probe: run every perf workload for a few ops and every example
## under a stdlib profile hook, then print the src/repro functions that
## never ran, per module (prints only; gates nothing)
reach:
	$(PYTHON) -m tools.reach

all: test lint
