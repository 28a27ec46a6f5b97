"""The MapReduce job runner: scheduling, shuffling, and cost accounting.

Execution follows Hadoop's phases:

1. **Startup** — a fixed per-job charge (dominates small jobs, which is why
   coordinator algorithms beat MapReduce ones on latency, §4.2).
2. **Map wave** — one task per input split, scheduled on the split's node
   (data locality).  Task time = local disk scan + per-record CPU; node
   time = its tasks serialized over its task slots; wave time = the slowest
   node.  Table splits charge KV read units per cell scanned.
3. **Combine** — per-task, reduces shuffle volume.
4. **Shuffle** — intermediate pairs are partitioned; bytes moving between
   different nodes are network traffic.
5. **Reduce** — grouped keys in sorted order; per-reducer memory footprint
   is tracked (peak grouped bytes), matching the paper's reducer-footprint
   report in §7.2.
6. **Output** — HDFS files charge replication traffic, table outputs charge
   the write path, collected outputs ship to the master.

Map and reduce tasks execute inline, one after another in split /
partition order, on the caller's thread; the waves are parallel on the
simulated clock only (:meth:`JobRunner._wave_time`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro.cluster.simulation import Node, SimContext
from repro.common.serialization import CONTAINER_HEADER_BYTES, sizeof
from repro.errors import JobConfigurationError
from repro.mapreduce.hdfs import SimHDFS
from repro.mapreduce.job import (
    CollectOutput,
    HDFSInput,
    HDFSOutput,
    Job,
    MapFn,
    ReduceFn,
    TableInput,
    TableOutput,
    TaskContext,
    UnionTableInput,
)
from repro.store.cell import Cell
from repro.store.client import Store
from repro.store.region import Region


@dataclass
class _Split:
    """One map task's input: records plus placement and size facts."""

    node: Node
    records: list[tuple[Any, Any]]
    input_bytes: int
    kv_cells: int  # store cells scanned (0 for HDFS splits)


def _region_split(
    region: Region, families: "frozenset[str] | None", tag: "str | None"
) -> _Split:
    rows = list(region.scan_rows(families=families))
    records: list[tuple[Any, Any]]
    if tag is None:
        records = [(row.row, row) for row in rows]
    else:
        records = [(row.row, (tag, row)) for row in rows]
    input_bytes = sum(row.serialized_size() for row in rows)
    kv_cells = sum(len(row) for row in rows)
    return _Split(region.node, records, input_bytes, kv_cells)


# -- task execution ----------------------------------------------------------


@dataclass
class _MapOutcome:
    """One map task's result.

    ``map_emitted`` counts the mapper's *pre-combine* output (it prices
    the task's CPU); ``pairs`` is the post-combine output that enters the
    shuffle.
    """

    counters: dict[str, float]
    map_emitted: int
    pairs: list[tuple[Any, Any]]


@dataclass
class _ReduceOutcome:
    """One reduce task's result."""

    counters: dict[str, float]
    emitted: list[tuple[Any, Any]]
    grouped_bytes: int


def _group_sorted(pairs: "list[tuple[Any, Any]]") -> "list[tuple[Any, list[Any]]]":
    groups: dict[Any, list[Any]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return sorted(groups.items(), key=lambda item: item[0])


def _execute_map_split(
    map_fn: MapFn,
    finish_fn: "Callable[[TaskContext], None] | None",
    combiner_fn: "ReduceFn | None",
    records: "list[tuple[Any, Any]]",
) -> _MapOutcome:
    """Run one split's map task (map + finish + per-task combine)."""
    task = TaskContext()
    for key, value in records:
        map_fn(key, value, task)
    if finish_fn is not None:
        finish_fn(task)
    emitted = task.emitted
    # combiner runs on the task's full output (per-task combine)
    if combiner_fn is not None and emitted:
        combine = TaskContext()
        for key, values in _group_sorted(emitted):
            combiner_fn(key, values, combine)
        for name, amount in combine.counters.items():
            task.counters[name] = task.counters.get(name, 0.0) + amount
        emitted = combine.emitted
    return _MapOutcome(task.counters, len(task.emitted), emitted)


def _pair_bytes(pair: "tuple[Any, Any]") -> int:
    """``sizeof(key) + sizeof(value)`` in one call: the pair tuple's size
    without the tuple's own framing."""
    return sizeof(pair) - CONTAINER_HEADER_BYTES


def _execute_reduce_partition(
    reduce_fn: ReduceFn, pairs: "list[tuple[Any, Any]]", pairs_bytes: int
) -> _ReduceOutcome:
    """Run one reducer's task over its partition of the shuffle.

    ``pairs_bytes`` is what the shuffle measured for ``pairs``; the
    grouped input holds each key once, so the repeats come back out
    (keys that compare equal are taken to size equal).
    """
    task = TaskContext()
    grouped = _group_sorted(pairs)
    grouped_bytes = pairs_bytes - sum(
        (len(values) - 1) * sizeof(key)
        for key, values in grouped
        if len(values) > 1
    )
    for key, values in grouped:
        reduce_fn(key, values, task)
    return _ReduceOutcome(task.counters, task.emitted, grouped_bytes)


@dataclass
class JobResult:
    """Outcome of a job run."""

    job_name: str
    collected: list[tuple[Any, Any]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    map_tasks: int = 0
    reduce_tasks: int = 0
    shuffle_bytes: int = 0
    sim_time_s: float = 0.0


class JobRunner:
    """Executes jobs against a store + HDFS pair, charging the context."""

    def __init__(self, ctx: "SimContext", store: "Store", hdfs: "SimHDFS") -> None:
        self.ctx = ctx
        self.store = store
        self.hdfs = hdfs

    # -- split computation ---------------------------------------------------

    def _table_splits(self, source: TableInput) -> list[_Split]:
        return self._splits_of_table(
            source.table_name, source.families, None, source.keep_splits
        )

    def _splits_of_table(
        self,
        table_name: str,
        families: "frozenset[str] | None",
        tag: "str | None",
        keep: bool,
    ) -> list[_Split]:
        """One split per region of ``table_name``; with ``keep``, each is
        the one the region kept since its last change, if any (see "Split
        planning" in docs/ARCHITECTURE.md)."""
        table = self.store.backing(table_name)
        regions = table.regions  # lint: disable=RL301 (split planning mirrors HBase's client-side region lookup; map tasks charge the actual scans)
        if not keep:
            return [_region_split(region, families, tag) for region in regions]
        return [
            region.derived(
                (families, tag), partial(_region_split, region, families, tag)
            )
            for region in regions
        ]

    def _union_splits(self, source: UnionTableInput) -> list[_Split]:
        splits: list[_Split] = []
        for table_name in source.table_names:
            splits.extend(
                self._splits_of_table(
                    table_name, source.families, table_name, source.keep_splits
                )
            )
        return splits

    def _hdfs_splits(self, source: HDFSInput) -> list[_Split]:
        splits: list[_Split] = []
        index = 0
        for block in self.hdfs.blocks(source.path):
            records: list[tuple[Any, Any]] = []
            for record in block.records:
                records.append((index, record))
                index += 1
            splits.append(_Split(block.node, records, block.byte_size, 0))
        return splits

    # -- phase helpers -----------------------------------------------------------

    def _wave_time(self, task_times: "dict[int, list[float]]") -> float:
        """Makespan of locality-pinned tasks over per-node slots."""
        model = self.ctx.cost_model
        worst = 0.0
        for times in task_times.values():
            node_busy = sum(times) / model.task_slots_per_node + (
                model.mr_task_startup_s
            )
            worst = max(worst, node_busy)
        return worst

    # -- execution -------------------------------------------------------------------

    def run(self, job: Job) -> JobResult:
        """Run ``job`` to completion, advancing the simulated clock."""
        model = self.ctx.cost_model
        metrics = self.ctx.metrics
        result = JobResult(job.name)

        metrics.advance_time(model.mr_job_startup_s)

        if isinstance(job.input_source, TableInput):
            splits = self._table_splits(job.input_source)
        elif isinstance(job.input_source, HDFSInput):
            splits = self._hdfs_splits(job.input_source)
        elif isinstance(job.input_source, UnionTableInput):
            splits = self._union_splits(job.input_source)
        else:  # pragma: no cover - exhaustive over input types
            raise JobConfigurationError(
                f"unknown input source: {job.input_source!r}"
            )

        # ---- map phase ----
        live_splits = [split for split in splits if split.records]
        outcomes = [
            _execute_map_split(
                job.map_fn, job.map_finish_fn, job.combiner_fn, split.records
            )
            for split in live_splits
        ]

        map_outputs: list[tuple["Node", list[tuple[Any, Any]]]] = []
        task_times: dict[int, list[float]] = {}
        for split, outcome in zip(live_splits, outcomes):
            metrics.add_kv_reads(split.kv_cells)
            metrics.add_disk_read(split.input_bytes)
            task_time = (
                model.disk_seq_time(split.input_bytes)
                + model.cpu_time(len(split.records))
                + model.cpu_time(outcome.map_emitted)
            )
            task_times.setdefault(split.node.node_id, []).append(task_time)
            map_outputs.append((split.node, outcome.pairs))
            for name, amount in outcome.counters.items():
                result.counters[name] = result.counters.get(name, 0.0) + amount
            result.map_tasks += 1

        metrics.advance_time(self._wave_time(task_times))

        # ---- map-only jobs write directly from mappers ----
        reduce_fn = job.reduce_fn
        if reduce_fn is None:
            self._write_output(
                job, [pair for _, pairs in map_outputs for pair in pairs], result
            )
            result.sim_time_s = metrics.sim_time_s
            return result

        # ---- shuffle ----
        workers = self.ctx.cluster.workers
        reducer_nodes = [workers[r % len(workers)] for r in range(job.num_reducers)]
        partitions: list[list[tuple[Any, Any]]] = [
            [] for _ in range(job.num_reducers)
        ]
        # the one place a shuffled pair is sized: network traffic and the
        # reducers' footprints are both sums of this number
        partition_bytes = [0] * job.num_reducers
        shuffle_remote_bytes = 0
        for node, pairs in map_outputs:
            for pair in pairs:
                reducer = job.partition_fn(pair[0], job.num_reducers)
                partitions[reducer].append(pair)
                nbytes = _pair_bytes(pair)
                partition_bytes[reducer] += nbytes
                if reducer_nodes[reducer].node_id != node.node_id:
                    shuffle_remote_bytes += nbytes
        metrics.add_network(shuffle_remote_bytes)
        metrics.advance_time(model.network_time(shuffle_remote_bytes))
        result.shuffle_bytes = shuffle_remote_bytes

        # ---- reduce phase ----
        reduce_jobs = [
            (reducer_index, reducer_nodes[reducer_index], pairs)
            for reducer_index, pairs in enumerate(partitions)
            if pairs
        ]
        reduce_outcomes = [
            _execute_reduce_partition(
                reduce_fn, pairs, partition_bytes[reducer_index]
            )
            for reducer_index, _, pairs in reduce_jobs
        ]

        all_pairs: list[tuple[Any, Any]] = []
        reduce_times: dict[int, list[float]] = {}
        for (_, node, pairs), outcome in zip(reduce_jobs, reduce_outcomes):
            metrics.record_peak("reducer_peak_bytes", outcome.grouped_bytes)
            reduce_times.setdefault(node.node_id, []).append(
                model.cpu_time(len(pairs)) + model.cpu_time(len(outcome.emitted))
            )
            all_pairs.extend(outcome.emitted)
            for name, amount in outcome.counters.items():
                result.counters[name] = result.counters.get(name, 0.0) + amount
            result.reduce_tasks += 1

        metrics.advance_time(self._wave_time(reduce_times))

        self._write_output(job, all_pairs, result)
        result.sim_time_s = metrics.sim_time_s
        return result

    # -- outputs ------------------------------------------------------------------

    def _write_output(
        self,
        job: Job,
        all_pairs: "list[tuple[Any, Any]]",
        result: JobResult,
    ) -> None:
        model = self.ctx.cost_model
        metrics = self.ctx.metrics
        output = job.output

        if isinstance(output, CollectOutput):
            # ship to the driver on the master node
            remote = sum(map(_pair_bytes, all_pairs))
            metrics.add_network(remote)
            metrics.advance_time(model.network_time(remote))
            result.collected = all_pairs
            return

        if isinstance(output, HDFSOutput):
            self.hdfs.delete_if_exists(output.path)
            self.hdfs.write_file(output.path, [list(pair) for pair in all_pairs])
            return

        if isinstance(output, TableOutput):
            table = self.store.backing(output.table_name)
            # materialize every emitted Put into cells first, then hand the
            # whole batch to the table in one apply_batch call (one family
            # check per family, one bisect per cell; split timing and the
            # metered payload are identical to the old per-cell loop)
            cells: list[Cell] = []
            for _, put in all_pairs:
                timestamp = (
                    put.timestamp
                    if put.timestamp is not None
                    else self.ctx.next_timestamp()
                )
                for family, qualifier, value in put.cells:
                    cells.append(
                        Cell(put.row, family, qualifier, value, timestamp)
                    )
            payload = sum(cell.serialized_size() for cell in cells)
            table.apply_batch(cells)
            # task -> region server transfer (+ WAL replication copies,
            # unless the output skips the WAL like HBase temp tables)
            copies = 1 if output.skip_wal else model.hdfs_replication
            remote = payload * copies
            metrics.add_network(remote)
            metrics.advance_time(model.network_time(remote))
            table.flush_all()
            return

        raise JobConfigurationError(f"unknown output sink: {output!r}")
