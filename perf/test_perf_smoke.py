"""Smoke test of the benchmark itself (collected by tier-1).

Every workload (``serve_open`` included) runs in-process at
``micro_scale=0.05`` for six measured ops: untraced, traced, and untraced under another seed.  The numbers mean
nothing at this size; what is pinned is the contract — every metric named
in ``BENCHMARK.json`` is emitted with its unit, nothing fails, the
simulated metrics are a function of the seed alone, and the tracer leaves
the program as it found it.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from perf import run
from perf.suite import SIMULATED
from perf.workloads import WORKLOADS
from repro.query import engine as engine_module
from repro.store.client import HTable

CONTRACT = run.benchmark_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SCALE = 0.05
OPS = 6


def test_contract_workloads_exist():
    assert {workload["name"] for workload in CONTRACT["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request):
    """(untraced, traced, untraced under another seed) of one workload."""
    untouched = (HTable.get, HTable.scan, engine_module.parse_rank_join)
    results = tuple(
        run.run_workload(
            request.param, seed=seed, ops=OPS, scale=SCALE, setups=1, trace=trace
        )
        for seed, trace in ((1, False), (1, True), (2, False))
    )
    assert (HTable.get, HTable.scan, engine_module.parse_rank_join) == untouched
    return results


def _check_metrics(line: str, listed: "list[dict]") -> "dict[str, float]":
    payload = json.loads(line)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    metrics = payload["metrics"]
    assert list(metrics) == [metric["name"] for metric in listed]
    for metric in listed:
        emitted = metrics[metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    return {name: emitted["value"] for name, emitted in metrics.items()}


def test_end_to_end_metrics_are_emitted(runs):
    untraced, _, _ = runs
    values = _check_metrics(run.result_line(untraced), CONTRACT["end_to_end"])
    # the contract asks for end-to-end metrics that are never 0
    assert all(value > 0 for value in values.values()), values


def test_per_layer_metrics_are_emitted(runs):
    _, traced, _ = runs
    values = _check_metrics(run.result_line(traced), CONTRACT["per_layer"])
    assert values["trace.spans"] > 0
    assert values["tpch.load_s"] > 0


def test_no_operation_fails(runs):
    for result in runs:
        assert result["attempted"] == OPS
        assert result["failed"] == 0
        assert result["correct"]


def test_simulated_metrics_depend_on_the_seed_alone(runs):
    untraced, traced, other_seed = runs
    for name in SIMULATED:
        assert untraced["end_to_end"][name] == traced["end_to_end"][name]
    assert any(
        untraced["end_to_end"][name] != other_seed["end_to_end"][name]
        for name in SIMULATED
    )
