"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate finer-grained conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class StoreError(ReproError):
    """Base class for NoSQL store errors."""


class TableNotFoundError(StoreError):
    """A table was requested that does not exist in the store."""

    def __init__(self, table_name: str) -> None:
        super().__init__(f"table not found: {table_name!r}")
        self.table_name = table_name


class TableExistsError(StoreError):
    """A table was created that already exists."""

    def __init__(self, table_name: str) -> None:
        super().__init__(f"table already exists: {table_name!r}")
        self.table_name = table_name


class ColumnFamilyNotFoundError(StoreError):
    """A column family was referenced that is not part of the table schema."""

    def __init__(self, table_name: str, family: str) -> None:
        super().__init__(
            f"column family {family!r} not found in table {table_name!r}"
        )
        self.table_name = table_name
        self.family = family


class RegionError(StoreError):
    """A row key fell outside every region, or region metadata is corrupt."""


class WALError(StoreError):
    """A write-ahead-log invariant was violated (e.g. a checkpoint moving
    backwards or past the end of the log)."""


class InvalidMutationError(StoreError):
    """A Put/Delete was malformed (empty row key, no cells, bad timestamp)."""


class MapReduceError(ReproError):
    """Base class for MapReduce framework errors."""


class JobConfigurationError(MapReduceError):
    """A job was submitted with an invalid or incomplete configuration."""


class HDFSError(MapReduceError):
    """Simulated HDFS failure (missing file, duplicate create, bad path)."""


class QueryError(ReproError):
    """Base class for query-layer errors."""


class ParseError(QueryError):
    """The SQL-like query text could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        suffix = f" (at position {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class PlanningError(QueryError):
    """The planner could not produce an execution plan for the query."""


class IndexError_(ReproError):
    """Base class for index build/consistency errors (trailing underscore
    avoids shadowing the builtin)."""


class IndexNotBuiltError(IndexError_):
    """Query processing was attempted against an index that was never built."""

    def __init__(self, index_name: str) -> None:
        super().__init__(f"index not built: {index_name!r}")
        self.index_name = index_name


class ServingError(ReproError):
    """Base class for query-serving (admission / scheduling) errors."""


class ServerOverloadedError(ServingError):
    """Admission control shed the query: the bounded queue was full."""

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"server overloaded: {pending} queries in flight or queued "
            f"(limit {limit}); query shed"
        )
        self.pending = pending
        self.limit = limit


class DeadlineExceededError(ServingError):
    """The query's wall-clock deadline expired before execution started."""

    def __init__(self, waited_s: float, deadline_s: float) -> None:
        super().__init__(
            f"deadline exceeded: waited {waited_s:.3f}s past a "
            f"{deadline_s:.3f}s deadline"
        )
        self.waited_s = waited_s
        self.deadline_s = deadline_s


class BudgetExceededError(ServingError):
    """The planner priced the query above its admission budget."""

    def __init__(self, estimated: float, budget: float, objective: str) -> None:
        super().__init__(
            f"budget exceeded: plan estimates {estimated:.6g} {objective} "
            f"against a budget of {budget:.6g}; query rejected"
        )
        self.estimated = estimated
        self.budget = budget
        self.objective = objective


class ServerClosedError(ServingError):
    """A query was submitted to a server that has been shut down."""


class StalenessBoundExceededError(ServingError):
    """An input table's index lag exceeded the server's staleness bound
    under the ``shed`` policy, so the query was rejected."""

    def __init__(self, table: str, lag: int, bound: int) -> None:
        super().__init__(
            f"staleness bound exceeded: table {table!r} has {lag} unapplied "
            f"mutations against a bound of {bound}; query shed"
        )
        self.table = table
        self.lag = lag
        self.bound = bound


class MaintenanceError(ReproError):
    """Base class for asynchronous index-maintenance errors."""


class WorkerCrashError(MaintenanceError):
    """A maintenance worker crashed (normally injected by the fault-
    injection framework at a chosen drain point)."""

    def __init__(self, point: str, occurrence: int) -> None:
        super().__init__(
            f"injected worker crash at drain point {point!r} "
            f"(occurrence {occurrence})"
        )
        self.point = point
        self.occurrence = occurrence


class SketchError(ReproError):
    """Base class for probabilistic-sketch errors (Bloom filters, Golomb)."""


class BitstreamError(SketchError):
    """A bit stream was read past its end or written inconsistently."""


class CounterUnderflowError(SketchError):
    """A counting Bloom filter was asked to remove an item it never saw."""
