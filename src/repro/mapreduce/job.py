"""Job specifications: inputs, outputs, and the task-facing contexts.

A :class:`Job` wires a map function (and optionally combiner and reducer)
to an input source and an output sink.  Map functions receive a
:class:`TaskContext` for emitting pairs and bumping counters, exactly like
Hadoop's ``Mapper.Context``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import JobConfigurationError
from repro.sketches.hashing import hash_to_range

MapFn = Callable[[Any, Any, "TaskContext"], None]
ReduceFn = Callable[[Any, list, "TaskContext"], None]
PartitionFn = Callable[[Any, int], int]


class TaskContext:
    """Emission buffer + counters handed to map/combine/reduce functions.

    ``state`` is task-local scratch space that survives across records of
    one split — how the IJLMR mappers keep their in-memory top-k list
    (§4.1.2: "mappers store in-memory only the top-k ranking result tuples,
    and emit their final top-k list when their input data is exhausted").
    """

    def __init__(self) -> None:
        self.emitted: list[tuple[Any, Any]] = []
        self.counters: dict[str, float] = {}
        self.state: dict[str, Any] = {}

    def emit(self, key: Any, value: Any) -> None:
        """Emit one intermediate or output pair."""
        self.emitted.append((key, value))

    def bump(self, counter: str, amount: float = 1.0) -> None:
        """Increment a job counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + amount


# -- input sources ------------------------------------------------------------


@dataclass(frozen=True)
class TableInput:
    """Scan a store table; one split per region, local to the region's node.

    Map functions receive ``(row_key, RowResult)`` pairs.  Reading charges
    one KV read unit per cell scanned (the dollar-cost driver for the
    full-scan approaches).
    """

    table_name: str
    families: "frozenset[str] | None" = None
    #: a job that reruns over unchanged data (a query, not a one-shot index
    #: build): each region keeps the split it reads until its next change,
    #: so the next such job skips the scan (see "Split planning" in
    #: docs/ARCHITECTURE.md); the bill is the same either way
    keep_splits: bool = False

    @staticmethod
    def of(
        table_name: str,
        families: "set[str] | None" = None,
        *,
        keep_splits: bool = False,
    ) -> "TableInput":
        return TableInput(
            table_name,
            None if families is None else frozenset(families),
            keep_splits,
        )


@dataclass(frozen=True)
class HDFSInput:
    """Read an HDFS file; one split per block, local to the block's node.

    Map functions receive ``(record_index, record)`` pairs.
    """

    path: str


@dataclass(frozen=True)
class UnionTableInput:
    """Scan several store tables in one job (Hadoop multi-input joins).

    Map functions receive ``(row_key, (table_name, RowResult))`` pairs so
    they can tag records by source relation.
    """

    table_names: tuple[str, ...]
    families: "frozenset[str] | None" = None
    #: as :attr:`TableInput.keep_splits`
    keep_splits: bool = False

    @staticmethod
    def of(
        *table_names: str,
        families: "set[str] | None" = None,
        keep_splits: bool = False,
    ) -> "UnionTableInput":
        return UnionTableInput(
            tuple(table_names),
            None if families is None else frozenset(families),
            keep_splits,
        )


# -- output sinks ----------------------------------------------------------------


@dataclass(frozen=True)
class HDFSOutput:
    """Write emitted pairs to an HDFS file as ``(key, value)`` records."""

    path: str


@dataclass(frozen=True)
class TableOutput:
    """Write emitted pairs to a store table.

    Emitted values must be :class:`repro.store.client.Put` objects (the key
    is ignored); this is how map-only index-build jobs write "directly into
    the NoSQL store" (§4.1.1).

    ``skip_wal`` models HBase's ``Durability.SKIP_WAL``: temporary tables
    (like DRJN's pull output) avoid the write-ahead-log replication
    traffic at the price of durability.
    """

    table_name: str
    skip_wal: bool = False


@dataclass(frozen=True)
class CollectOutput:
    """Ship emitted pairs back to the job driver on the master node
    (used for final top-k lists)."""


# -- the job ---------------------------------------------------------------------


def default_partition(key: Any, num_reducers: int) -> int:
    """Hash partitioning on the key's string form (deterministic)."""
    return hash_to_range(str(key), num_reducers)


@dataclass
class Job:
    """A complete MapReduce job description."""

    name: str
    input_source: "TableInput | HDFSInput | UnionTableInput"
    map_fn: MapFn
    #: ``None`` makes a map-only job: the mappers' pairs go to the output
    reduce_fn: "ReduceFn | None" = None
    combiner_fn: "ReduceFn | None" = None
    num_reducers: int = 1
    partition_fn: PartitionFn = default_partition
    output: "HDFSOutput | TableOutput | CollectOutput" = field(
        default_factory=CollectOutput
    )
    #: called once per map task after its records are exhausted
    map_finish_fn: "Callable[[TaskContext], None] | None" = None

    def __post_init__(self) -> None:
        if self.num_reducers <= 0:
            raise JobConfigurationError(
                f"num_reducers must be positive: {self.num_reducers}"
            )
        if self.reduce_fn is None and self.combiner_fn is not None:
            raise JobConfigurationError(
                "a combiner without a reducer is not meaningful"
            )
