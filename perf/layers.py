"""Per-layer metrics: from a traced run's spans and counters to the
numbers named in ``BENCHMARK.json``'s ``per_layer`` list.

Each metric is named after the module it measures
(``<package>.<module>.<what>``) and is emitted on every workload — as 0
where the workload bypasses the layer, which is itself a prediction the
README states (e.g. ``query.planner.plans`` is 0 on ``q_indexed``).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from perf.tracer import SPAN_COLUMNS

#: metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "tpch.generate_s": "s",
    "tpch.load_s": "s",
    "core.isl.build_s": "s",
    "core.bfhm.build_s": "s",
    "core.ijlmr.build_s": "s",
    "baselines.drjn.build_s": "s",
    "core.build_sim_s": "sim_s",
    "core.index_bytes_per_base_byte": "ratio",
    "query.parser.calls": "count",
    "query.parser.self_ms_per_op": "ms",
    "query.statistics.gathers": "count",
    "query.statistics.self_ms_per_op": "ms",
    "query.planner.plans": "count",
    "query.planner.self_ms_per_op": "ms",
    "query.planner.nway_self_ms_per_plan": "ms",
    "core.isl.self_ms_per_query": "ms",
    "core.bfhm.self_ms_per_query": "ms",
    "core.kv_reads_per_result": "count",
    "core.bfhm.repair_rounds_per_query": "count",
    "core.bfhm.blob_cache_hit_ratio": "ratio",
    "sketches.decodes": "count",
    "sketches.self_ms_per_op": "ms",
    "store.get_calls": "count",
    "store.multi_get_calls": "count",
    "store.scan_calls": "count",
    "store.rows_read": "count",
    "store.read_self_ms_per_op": "ms",
    "store.put_cells": "count",
    "store.flushes": "count",
    "store.regions_added": "count",
    "store.write_self_ms_per_op": "ms",
    "cluster.executor.rounds": "count",
    "cluster.executor.tasks_per_round": "count",
    "cluster.executor.self_ms_per_op": "ms",
    "mapreduce.jobs": "count",
    "mapreduce.map_tasks": "count",
    "mapreduce.self_ms_per_op": "ms",
    "core.ijlmr.self_ms_per_query": "ms",
    "baselines.pig.self_ms_per_query": "ms",
    "baselines.hive.self_ms_per_query": "ms",
    "baselines.drjn.self_ms_per_query": "ms",
    "serving.capacity_qps": "1/s",
    "serving.submit_ms_p50": "ms",
    "serving.queue_wait_ms_p90": "ms",
    "serving.exec_ms_p50": "ms",
    "serving.plan_cache_hit_ratio": "ratio",
    "serving.statement_hit_ratio": "ratio",
    "serving.shed": "count",
    "serving.latency_ms_p99": "ms",
    "maintenance.submit_us_per_row": "us",
    "maintenance.drain_self_ms_per_op": "ms",
    "maintenance.query_ms_per_op": "ms",
    "maintenance.rows_applied": "count",
    "maintenance.retries": "count",
    "maintenance.dead_letters": "count",
    "loadgen.late_ms_p95": "ms",
    "bench.calib_drift_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

#: layers whose summed self time the README's "who carries the run" table
#: reports as a share of the measured wall
SHARE_LAYERS = (
    "query.parser", "query.statistics", "query.planner", "core", "baselines",
    "sketches", "store.read", "store.write", "cluster.executor", "mapreduce",
    "serving", "maintenance",
)

_ID, _NAME, _START, _END, _PARENT, _OP, _THREAD, _BUSY, _N = range(len(SPAN_COLUMNS))


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def _union_length(intervals) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanTable:
    """Self time, call counts and work counts per span name."""

    def __init__(self, spans) -> None:
        children = defaultdict(list)
        for span in spans:
            if span[_PARENT] is not None:
                children[span[_PARENT]].append(span)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.durations = defaultdict(list)
        for span in spans:
            busy = span[_BUSY]
            own = busy if busy is not None else span[_END] - span[_START]
            kids = children.get(span[_ID], ())
            covered = sum(kid[_BUSY] for kid in kids if kid[_BUSY] is not None)
            covered += _union_length(
                (max(kid[_START], span[_START]), min(kid[_END], span[_END]))
                for kid in kids
                if kid[_BUSY] is None
            )
            name = span[_NAME]
            self.self_s[name] += max(0.0, own - covered)
            self.total_s[name] += own
            self.calls[name] += 1
            self.work[name] += span[_N]
            self.durations[name].append(own)

    def layer_self_s(self, prefix: str) -> float:
        """Summed self time of every span under ``prefix``."""
        dotted = prefix + "."
        return sum(
            seconds
            for name, seconds in self.self_s.items()
            if name == prefix or name.startswith(dotted)
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(run) -> "dict[str, float]":
    """Every ``per_layer`` metric of one traced run.

    ``run`` is the runner's record of the run: ``records`` (one per
    measured op), ``wall_s`` (op time of a closed loop, elapsed time of an
    open one), ``spans``, ``phases`` (set-up phase ->
    seconds), ``builds``, ``base_bytes``, ``delta`` (program counters over
    the measured phase), ``open_loop``, ``capacity_qps``,
    ``calib_drift_frac`` and ``span_cost_s``.
    """
    table = SpanTable(run["spans"])
    records = run["records"]
    ops = max(1, len(records))
    phases = run["phases"]
    delta = run["delta"]

    def self_ms_per_op(prefix: str) -> float:
        return 1000.0 * table.layer_self_s(prefix) / ops

    def self_ms_per_query(prefix: str) -> float:
        return 1000.0 * _ratio(
            table.layer_self_s(prefix), table.calls[prefix + ".execute"]
        )

    values = {
        "tpch.generate_s": phases.get("tpch.generate_s", 0.0),
        "tpch.load_s": phases.get("tpch.load_s", 0.0),
        "core.isl.build_s": phases.get("core.isl.build_s", 0.0),
        "core.bfhm.build_s": phases.get("core.bfhm.build_s", 0.0),
        "core.ijlmr.build_s": phases.get("core.ijlmr.build_s", 0.0),
        "baselines.drjn.build_s": phases.get("baselines.drjn.build_s", 0.0),
        "core.build_sim_s": sum(report.build_time_s for report in run["builds"]),
        "core.index_bytes_per_base_byte": _ratio(
            sum(report.index_bytes for report in run["builds"]), run["base_bytes"]
        ),
        "query.parser.calls": table.calls["query.parser.parse_rank_join"],
        "query.parser.self_ms_per_op": self_ms_per_op("query.parser"),
        "query.statistics.gathers": table.calls["query.statistics.gather"],
        "query.statistics.self_ms_per_op": self_ms_per_op("query.statistics"),
        "query.planner.plans": (
            table.calls["query.planner.plan"] + table.calls["query.planner.plan_nway"]
        ),
        "query.planner.self_ms_per_op": self_ms_per_op("query.planner"),
        "query.planner.nway_self_ms_per_plan": 1000.0 * _ratio(
            table.self_s["query.planner.plan_nway"],
            table.calls["query.planner.plan_nway"],
        ),
        "core.isl.self_ms_per_query": self_ms_per_query("core.isl"),
        "core.bfhm.self_ms_per_query": self_ms_per_query("core.bfhm"),
        "core.kv_reads_per_result": _ratio(
            sum(record["kv_reads"] for record in records),
            sum(record["tuples"] for record in records),
        ),
        "core.bfhm.repair_rounds_per_query": _ratio(
            sum(record["repair_rounds"] for record in records),
            sum(record["bfhm_queries"] for record in records),
        ),
        "core.bfhm.blob_cache_hit_ratio": _ratio(
            delta.get("blob_hits", 0),
            delta.get("blob_hits", 0) + delta.get("blob_misses", 0),
        ),
        "sketches.decodes": table.calls["sketches.from_blob"],
        "sketches.self_ms_per_op": self_ms_per_op("sketches"),
        "store.get_calls": table.calls["store.read.get"],
        "store.multi_get_calls": table.calls["store.read.multi_get"],
        "store.scan_calls": table.calls["store.read.scan"],
        "store.rows_read": sum(
            table.work[name]
            for name in (
                "store.read.get", "store.read.multi_get",
                "store.read.scan", "store.read.scan+",
            )
        ),
        "store.read_self_ms_per_op": self_ms_per_op("store.read"),
        "store.put_cells": (
            table.work["store.write.put_batch"] + table.work["store.write.delete_batch"]
        ),
        "store.flushes": table.calls["store.write.region_flush"],
        "store.regions_added": delta.get("regions", 0),
        "store.write_self_ms_per_op": self_ms_per_op("store.write"),
        "cluster.executor.rounds": table.calls["cluster.executor.scatter_gather"],
        "cluster.executor.tasks_per_round": _ratio(
            table.work["cluster.executor.scatter_gather"],
            table.calls["cluster.executor.scatter_gather"],
        ),
        "cluster.executor.self_ms_per_op": self_ms_per_op("cluster.executor"),
        "mapreduce.jobs": table.calls["mapreduce.run"],
        "mapreduce.map_tasks": table.work["mapreduce.run"],
        "mapreduce.self_ms_per_op": self_ms_per_op("mapreduce"),
        "core.ijlmr.self_ms_per_query": self_ms_per_query("core.ijlmr"),
        "baselines.pig.self_ms_per_query": self_ms_per_query("baselines.pig"),
        "baselines.hive.self_ms_per_query": self_ms_per_query("baselines.hive"),
        "baselines.drjn.self_ms_per_query": self_ms_per_query("baselines.drjn"),
        "serving.capacity_qps": run["capacity_qps"],
        "serving.submit_ms_p50": 1000.0 * percentile(
            table.durations["serving.submit"], 0.5
        ),
        "serving.queue_wait_ms_p90": 1000.0 * percentile(
            [r["waited_s"] for r in records if r["waited_s"] is not None], 0.9
        ),
        "serving.exec_ms_p50": 1000.0 * percentile(
            [r["exec_s"] for r in records if r["exec_s"] is not None], 0.5
        ),
        "serving.plan_cache_hit_ratio": _ratio(
            delta.get("plan_hits", 0),
            delta.get("plan_hits", 0) + delta.get("plan_misses", 0),
        ),
        "serving.statement_hit_ratio": _ratio(
            delta.get("statement_hits", 0),
            delta.get("statement_hits", 0) + delta.get("statement_misses", 0),
        ),
        "serving.shed": delta.get("shed", 0),
        "serving.latency_ms_p99": (
            1000.0 * percentile([r["latency_s"] for r in records], 0.99)
            if run["open_loop"]
            else 0.0
        ),
        "maintenance.submit_us_per_row": 1e6 * _ratio(
            table.total_s["maintenance.submit"], table.work["maintenance.submit"]
        ),
        "maintenance.drain_self_ms_per_op": 1000.0 * (
            table.self_s["maintenance.drain_batch"]
            + table.layer_self_s("maintenance.relation")
        ) / ops,
        "maintenance.query_ms_per_op": 1000.0 * sum(
            record["query_s"] for record in records
        ) / ops,
        "maintenance.rows_applied": delta.get("rows_applied", 0),
        "maintenance.retries": delta.get("retries", 0),
        "maintenance.dead_letters": delta.get("dead_letters", 0),
        "loadgen.late_ms_p95": 1000.0 * percentile(
            [r["late_s"] for r in records if r["late_s"] is not None], 0.95
        ),
        "bench.calib_drift_frac": run["calib_drift_frac"],
        "trace.overhead_frac": _ratio(
            len(run["spans"]) * run["span_cost_s"], run["wall_s"]
        ),
        "trace.spans": len(run["spans"]),
    }
    if list(values) != list(PER_LAYER_UNITS):
        raise RuntimeError("per_layer_metrics is out of step with PER_LAYER_UNITS")
    return {name: float(value) for name, value in values.items()}


def layer_shares(run) -> "dict[str, float]":
    """Share of the measured wall each layer's self time accounts for
    (the evidence that a workload stresses what it claims to)."""
    table = SpanTable(run["spans"])
    wall = run["wall_s"]
    return {
        layer: _ratio(table.layer_self_s(layer), wall) for layer in SHARE_LAYERS
    }


def median_phases(setups: "list[dict[str, float]]") -> "dict[str, float]":
    """Per-phase median over a run's repeated set-ups."""
    names = {name for phases in setups for name in phases}
    return {
        name: statistics.median(phases.get(name, 0.0) for phases in setups)
        for name in names
    }
