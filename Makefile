PYTHON ?= python
export PYTHONPATH := src

.PHONY: test stress chaos bench regen lint lint-changed docs-check examples reach all

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

## every committed simulated artefact (golden_*.json, BENCH_*.json)
## rewritten from this checkout by the suites that gate it exactly;
## `git diff` then shows what moved (CI fails on any diff).  Wall-clock
## speed is measured by perf/ (`python3 perf/run.py`), not here.
COMMITTED_SUITES := \
	benchmarks/test_planner_accuracy.py \
	benchmarks/test_multiway.py \
	benchmarks/test_scatter.py \
	tests/integration/test_single_server_identity.py \
	tests/integration/test_golden_plans.py \
	tests/integration/test_multiway_four_server.py \
	tests/integration/test_result_rows.py \
	tests/unit/test_mapreduce.py

regen:
	$(PYTHON) -m pytest -q --regenerate $(COMMITTED_SUITES)

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
