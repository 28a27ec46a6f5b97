"""Scatter/gather benchmark: multi-server fan-out speedup at 4 servers.

The same workloads run twice over identically-seeded platforms — a
single-server topology (every RPC round serial, the paper-faithful
fig7/8 configuration) and a 4-region-server topology (multi-region scans,
multi-gets, ISL batch rounds and BFHM fetches scatter per server; a round
costs the slowest server's queue plus dispatch overhead, per
``CostModel.scatter_round_time``).

Speedups are measured on the **simulated clock** — the very metric
Figs. 7/8 plot — because that is what the per-server queueing model
changes; byte and KV-read counters must stay *identical* across the two
topologies (fan-out hides latency, it never removes work).  Workloads:

* ``scan``      — full multi-region scans of lineitem/orders/part
* ``multi_get`` — strided point-get batches across lineitem regions
* ``isl``       — Q1 via ISL (paired batch rounds scatter)
* ``bfhm``      — Q1 via BFHM (bucket + reverse-map fetches scatter)

ISL/BFHM gains are bounded by co-location (both ISL cursors walk one
index table; BFHM bucket pairs share row keys) — the aggregate ≥2×
target is carried by the scan/multi-get fan-out, mirroring how real
HBase deployments see scatter wins mostly on multi-region reads.

The report is simulated-only, hence a pure function of seed and store
state: the suite fails on *any* difference from the committed
``BENCH_scatter.json``.  Run through ``make bench-scatter`` the report is
also written to a candidate JSON (via ``BENCH_SCATTER_OUT``) so
``tools/bench_diff.py`` can show what moved.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentSetup, build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.store.client import Get, Scan
from repro.tpch.loader import FAMILY, LINEITEM, ORDERS, PART
from repro.tpch.queries import q1

SCALE = 0.2
SEED = 42
SERVERS = 4
SCAN_TABLES = (LINEITEM, ORDERS, PART)
MULTI_GET_STRIDE = 2
QUERY_KS = (10, 50)

#: required aggregate simulated-time speedup across all workloads
MIN_AGGREGATE_SPEEDUP = 2.0

BASELINE_PATH = Path(__file__).parent.parent / "BENCH_scatter.json"


def _setup(num_servers: int) -> ExperimentSetup:
    return build_setup(
        EC2_PROFILE,
        micro_scale=SCALE,
        seed=SEED,
        num_servers=num_servers,
        prebuild=["isl", "bfhm"],
        prebuild_query=q1(1),
    )


def _store_delta(setup: ExperimentSetup, fn):
    """Run ``fn`` and return (sim-clock/counter deltas, fn's payload)."""
    metrics = setup.platform.metrics
    before = metrics.snapshot()
    payload = fn()
    after = metrics.snapshot()
    return (
        {
            "seconds": after.sim_time_s - before.sim_time_s,
            "network_bytes": after.network_bytes - before.network_bytes,
            "kv_reads": after.kv_reads - before.kv_reads,
        },
        payload,
    )


def _scan_workload(setup: ExperimentSetup):
    def run():
        keys = []
        for table_name in SCAN_TABLES:
            htable = setup.platform.store.table(table_name)
            scan = Scan(families={FAMILY}, caching=200, scatter=True)
            keys.append((table_name, tuple(row.row for row in htable.scan(scan))))
        return tuple(keys)

    return _store_delta(setup, run)


def _multi_get_workload(setup: ExperimentSetup):
    row_keys = sorted(
        record["rowkey"] for record in setup.data.lineitems
    )[::MULTI_GET_STRIDE]

    def run():
        htable = setup.platform.store.table(LINEITEM)
        gets = [Get(key, families={FAMILY}) for key in row_keys]
        return tuple(row.row for row in htable.multi_get(gets))

    return _store_delta(setup, run)


def _query_workload(setup: ExperimentSetup, algorithm: str):
    totals = {"seconds": 0.0, "network_bytes": 0, "kv_reads": 0}
    fingerprint = []
    for k in QUERY_KS:
        result = setup.engine.execute(q1(k), algorithm=algorithm)
        totals["seconds"] += result.metrics.sim_time_s
        totals["network_bytes"] += result.metrics.network_bytes
        totals["kv_reads"] += result.metrics.kv_reads
        # scores pin result quality without tripping on tie *order*,
        # which legitimately differs between alternating serial pulls
        # and paired scatter rounds
        fingerprint.append(
            tuple(sorted(round(t.score, 6) for t in result.tuples))
        )
    return totals, tuple(fingerprint)


@pytest.fixture(scope="module")
def results():
    serial_setup = _setup(1)
    scatter_setup = _setup(SERVERS)
    workloads = {}
    for name, fn in (
        ("scan", _scan_workload),
        ("multi_get", _multi_get_workload),
        ("isl", lambda s: _query_workload(s, "isl")),
        ("bfhm", lambda s: _query_workload(s, "bfhm")),
    ):
        serial, serial_payload = fn(serial_setup)
        scatter, scatter_payload = fn(scatter_setup)
        workloads[name] = {
            "serial": serial,
            "scatter": scatter,
            "serial_payload": serial_payload,
            "scatter_payload": scatter_payload,
            "speedup": serial["seconds"] / scatter["seconds"],
        }
    total_serial = sum(cell["serial"]["seconds"] for cell in workloads.values())
    total_scatter = sum(cell["scatter"]["seconds"] for cell in workloads.values())
    return {
        "workloads": workloads,
        "aggregate_speedup": total_serial / total_scatter,
        "explain": scatter_setup.engine.plan(q1(10)).render(),
    }


def _report(results) -> dict:
    """The ``BENCH_scatter.json`` document for one run of the suite."""
    return {
        "meta": {
            "scale": SCALE,
            "seed": SEED,
            "servers": SERVERS,
            "unit": "simulated seconds (the fig7/8 clock)",
            "speedup": round(results["aggregate_speedup"], 3),
        },
        "workloads": {
            name: {
                "seconds": round(cell["scatter"]["seconds"], 6),
                "serial_seconds": round(cell["serial"]["seconds"], 6),
                "speedup": round(cell["speedup"], 3),
                "kv_reads": int(cell["scatter"]["kv_reads"]),
                "network_bytes": int(cell["scatter"]["network_bytes"]),
            }
            for name, cell in results["workloads"].items()
        },
    }


class TestScatterBench:
    def test_results_identical_across_topologies(self, results):
        """Fan-out must not change what any workload returns."""
        for name, cell in results["workloads"].items():
            assert cell["serial_payload"] == cell["scatter_payload"], name

    def test_work_counters_identical(self, results):
        """Bytes moved and KV reads are topology-invariant — the queue
        model only re-times the same work."""
        for name, cell in results["workloads"].items():
            assert cell["serial"]["network_bytes"] == cell["scatter"]["network_bytes"], name
            assert cell["serial"]["kv_reads"] == cell["scatter"]["kv_reads"], name

    def test_every_workload_speeds_up(self, results):
        for name, cell in results["workloads"].items():
            assert cell["speedup"] > 1.0, (name, cell["speedup"])

    def test_aggregate_speedup(self, results):
        """≥2× simulated-time speedup at 4 servers across the combined
        scan + multi-get + ISL-batch + BFHM-fetch workload."""
        assert results["aggregate_speedup"] >= MIN_AGGREGATE_SPEEDUP, {
            name: round(cell["speedup"], 3)
            for name, cell in results["workloads"].items()
        }

    def test_explain_shows_fanout_components(self, results):
        """EXPLAIN on the multi-server topology surfaces the per-server
        fan-out cost components."""
        rendered = results["explain"]
        assert f"topology: {SERVERS} region servers" in rendered
        assert "fanout" in rendered

    def test_report_matches_committed_baseline(self, results):
        """Simulated numbers are deterministic, so any drift from the
        committed baseline is a bug (or an intentional metering change
        that must re-commit ``BENCH_scatter.json``)."""
        with open(BASELINE_PATH) as fh:
            assert _report(results) == json.load(fh)

    def test_report_written(self, results):
        """Write the JSON report when BENCH_SCATTER_OUT names a path."""
        out_path = os.environ.get("BENCH_SCATTER_OUT")
        if not out_path:
            pytest.skip("BENCH_SCATTER_OUT not set; not writing a report")
        with open(out_path, "w") as fh:
            json.dump(_report(results), fh, indent=1, sort_keys=True)
            fh.write("\n")
