"""Asynchronous, crash-recoverable index maintenance (§6).

The synchronous write path (:class:`~repro.maintenance.interceptor.
MaintainedRelation`) applies base + IJLMR + ISL + BFHM mutations inline,
so a heavy write stream stalls queries.  This module decouples them:

* **enqueue** — writers call :meth:`MaintenancePipeline.submit_insert`,
  ``submit_insert_batch`` or ``submit_delete_batch``.  Each submission is
  stamped with its §6 *original* mutation timestamp and appended to a
  sequence-numbered :class:`~repro.store.wal.SequencedLog`; the writer
  returns immediately.
* **drain** — a maintenance worker applies logged records in batches
  through the PR-5 ``insert_batch`` / resolved-delete path, retrying
  transient store failures with exponential backoff
  (:data:`ASYNC_RETRY_POLICY`), dead-lettering poisoned entries, and
  advancing the log's durable checkpoint marker after every batch.
* **recover** — after a worker crash (see
  :mod:`repro.maintenance.faults`) every in-memory watermark is rebuilt
  from durable state alone (the log, its checkpoint, and the dead-letter
  queue) and the entries after the checkpoint are replayed.  Replays are
  idempotent because every record re-applies with its original timestamp:
  duplicate cells resolve to the same visible versions, so a crashed-and-
  recovered run converges to the never-crashed run's table state.

Delete records carry a durable **resolution**: the first drain resolves
row keys into ``(row key, join value, score)`` triples and writes them
into the WAL record, so a crash between the base tombstone and the index
tombstones cannot strand index entries (re-resolving after the base
delete would find nothing).

Staleness is a first-class contract: :meth:`MaintenancePipeline.staleness`
reports each table's applied-sequence watermark and pending count, the
:class:`~repro.query.statistics.StatisticsCatalog` forwards it to the
planner (EXPLAIN prints it), and :class:`~repro.serving.server.QueryServer`
enforces wait/bounded/shed policies against it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import MaintenanceError, WALError
from repro.maintenance.consistency import MutationFailedError, RetryPolicy
from repro.maintenance.faults import DrainPoint, FaultPlan
from repro.maintenance.interceptor import MaintainedRelation
from repro.platform import Platform
from repro.store.wal import SequencedLog

#: retry posture of the async worker: patient exponential backoff with
#: deterministic jitter, charged to the simulated clock (a flaky store
#: makes maintenance measurably slower, not silently free)
ASYNC_RETRY_POLICY = RetryPolicy(
    max_attempts=6,
    initial_backoff_s=0.05,
    backoff_multiplier=2.0,
    max_backoff_s=5.0,
    jitter_fraction=0.25,
)

#: records applied (and covered by one checkpoint) per drain batch
DEFAULT_BATCH_SIZE = 32

_OP_INSERT = "insert"
_OP_DELETE = "delete"
#: fixed per-record log overhead (sequence + framing), bytes
_RECORD_OVERHEAD = 16


@dataclass
class MutationRecord:
    """One logged logical mutation (an insert or delete batch).

    ``rows`` is ``((row key, record dict), ...)`` for inserts and
    ``(row key, ...)`` for deletes.  ``timestamp`` is the §6 original
    mutation timestamp, assigned at enqueue time and reused verbatim by
    every (re)application.  ``resolved`` is the delete resolution the
    first drain persisted into this record (``None`` until then, and
    always ``None`` for inserts).
    """

    op: str
    table: str
    rows: tuple
    timestamp: int
    resolved: "tuple | None" = None

    @property
    def row_count(self) -> int:
        """Rows this record mutates."""
        return len(self.rows)

    def estimated_size(self) -> int:
        """Approximate serialized footprint, for log byte accounting."""
        size = _RECORD_OVERHEAD
        if self.op == _OP_INSERT:
            for row_key, record in self.rows:
                size += len(row_key)
                for name, value in record.items():
                    size += len(str(name)) + len(str(value))
        else:
            size += sum(len(row_key) for row_key in self.rows)
        return size


@dataclass(frozen=True)
class DeadLetter:
    """A poisoned record, durably moved aside after exhausting retries."""

    sequence: int
    record: MutationRecord
    reason: str


@dataclass(frozen=True)
class TableStaleness:
    """The bounded-staleness contract of one table's indexes.

    ``applied_sequence`` is the watermark: every logged mutation of this
    table at or below it is reflected in base + indexes.  ``pending`` is
    the number of logged-but-unapplied mutation records (the index lag a
    planner or admission policy reasons about).
    """

    table: str
    pending: int
    applied_sequence: int
    last_sequence: int


class MaintenancePipeline:
    """WAL-backed asynchronous maintenance over a set of relations.

    Usage::

        pipeline = MaintenancePipeline(platform, [orders_rel, lineitem_rel])
        pipeline.submit_insert("orders", "O1", {...})   # returns at once
        pipeline.drain_all()                            # worker catches up

    The pipeline takes over each relation's retry policy (and, when a
    :class:`~repro.maintenance.faults.FaultPlan` is injected, its failure
    injector): the drain path retries with exponential backoff and charges
    the waits to the simulated clock.  All public methods are thread-safe.
    """

    def __init__(
        self,
        platform: Platform,
        relations: Iterable[MaintainedRelation],
        batch_size: int = DEFAULT_BATCH_SIZE,
        retry_policy: RetryPolicy = ASYNC_RETRY_POLICY,
        faults: "FaultPlan | None" = None,
        halt_on_dead_letter: bool = False,
    ) -> None:
        self.platform = platform
        self.batch_size = max(1, int(batch_size))
        self.retry_policy = retry_policy
        self.faults = faults
        #: refuse further drains once a record dead-letters (operators who
        #: prefer a stuck-but-consistent pipeline over partial progress)
        self.halt_on_dead_letter = halt_on_dead_letter

        self._relations: "dict[str, MaintainedRelation]" = {}
        for relation in relations:
            relation.retry_policy = retry_policy
            if faults is not None:
                relation.failure_injector = faults.store_failure
            self._relations[relation.binding.table] = relation

        self.log = SequencedLog()
        self._lock = threading.RLock()
        self._crashed = False  # guarded-by: _lock
        self._halted = False  # guarded-by: _lock
        self._batch_index = 0  # guarded-by: _lock

        # per-table watermarks (rebuilt from durable state by recover())
        self._pending: "dict[str, int]" = {}  # guarded-by: _lock
        self._applied_sequence: "dict[str, int]" = {}  # guarded-by: _lock
        self._last_sequence: "dict[str, int]" = {}  # guarded-by: _lock

        # the DLQ models a durable side queue: a dead-lettered record is
        # out of the replay path even across crashes
        self.dead_letters: "list[DeadLetter]" = []  # guarded-by: _lock
        self._dead_sequences: "set[int]" = set()  # guarded-by: _lock

        # counters (reset nowhere: they describe the pipeline's lifetime)
        self.records_submitted = 0  # guarded-by: _lock
        self.records_applied = 0  # guarded-by: _lock
        self.rows_applied = 0  # guarded-by: _lock
        self.mutation_failures = 0  # guarded-by: _lock
        self.batches_drained = 0  # guarded-by: _lock
        self.recoveries = 0  # guarded-by: _lock

    # -- enqueue -------------------------------------------------------------

    @property
    def tables(self) -> "list[str]":
        """Tables this pipeline maintains."""
        return sorted(self._relations)

    def _relation(self, table: str) -> MaintainedRelation:
        relation = self._relations.get(table)
        if relation is None:
            raise MaintenanceError(
                f"no maintained relation registered for table {table!r}"
            )
        return relation

    def _submit(self, record: MutationRecord) -> int:
        with self._lock:
            entry = self.log.append_payload(record, record.estimated_size())
            self._pending[record.table] = self._pending.get(record.table, 0) + 1
            self._last_sequence[record.table] = entry.sequence
            self.records_submitted += 1
            return entry.sequence

    def submit_insert(self, table: str, row_key: str, record: "dict[str, Any]") -> int:
        """Log one insert; returns its WAL sequence number."""
        return self.submit_insert_batch(table, [(row_key, record)])

    def submit_insert_batch(
        self, table: str, rows: "list[tuple[str, dict[str, Any]]]"
    ) -> int:
        """Log an insert batch sharing one original timestamp; returns its
        sequence (0 when ``rows`` is empty)."""
        self._relation(table)
        if not rows:
            return 0
        frozen = tuple((row_key, dict(record)) for row_key, record in rows)
        timestamp = self.platform.ctx.next_timestamp()
        return self._submit(MutationRecord(_OP_INSERT, table, frozen, timestamp))

    def submit_delete_batch(self, table: str, row_keys: "list[str]") -> int:
        """Log a delete batch sharing one original timestamp; returns its
        sequence (0 when ``row_keys`` is empty)."""
        self._relation(table)
        if not row_keys:
            return 0
        timestamp = self.platform.ctx.next_timestamp()
        return self._submit(
            MutationRecord(_OP_DELETE, table, tuple(row_keys), timestamp)
        )

    # -- staleness contract --------------------------------------------------

    def staleness(self, table: str) -> TableStaleness:
        """The table's current watermark / lag snapshot."""
        with self._lock:
            return TableStaleness(
                table=table,
                pending=self._pending.get(table, 0),
                applied_sequence=self._applied_sequence.get(table, 0),
                last_sequence=self._last_sequence.get(table, 0),
            )

    def lag(self, table: "str | None" = None) -> int:
        """Unapplied mutation records (of ``table``, or in total)."""
        with self._lock:
            if table is not None:
                return self._pending.get(table, 0)
            return sum(self._pending.values())

    def backlog_bytes(self) -> int:
        """Bytes of logged-but-untruncated mutation payloads."""
        with self._lock:
            return self.log.byte_size

    @property
    def applied_sequence(self) -> int:
        """The global durable watermark (the log's checkpoint)."""
        return self.log.checkpoint_sequence

    @property
    def crashed(self) -> bool:
        """True after an (injected) worker crash until :meth:`recover`."""
        with self._lock:
            return self._crashed

    # -- draining ------------------------------------------------------------

    def _reach(self, point: str) -> None:  # lint: holds-lock(_lock)
        """Announce a drain point; injected crashes surface here.

        Only called from :meth:`drain_batch`, which already holds ``_lock``.
        """
        if self.faults is not None:
            try:
                self.faults.on_drain_point(point, self._batch_index)
            except BaseException:
                # the worker process dies here: in-memory watermarks are
                # no longer trustworthy until recover() rebuilds them
                self._crashed = True
                raise

    def _apply_record(self, sequence: int, record: MutationRecord) -> None:  # lint: holds-lock(_lock)
        """Apply one record (resolving deletes first) with §6 semantics.

        Only called from :meth:`drain_batch`, which already holds ``_lock``.
        """
        relation = self._relation(record.table)
        if record.op == _OP_DELETE:
            if record.resolved is None:
                # persist the resolution into the WAL record *before* any
                # tombstone lands: this is the durable write that makes
                # delete replay idempotent
                record.resolved = tuple(relation.resolve_deletes(list(record.rows)))
            self._reach(DrainPoint.AFTER_RESOLVE)
            applied = relation.apply_resolved_deletes(
                list(record.resolved), timestamp=record.timestamp
            )
            self.rows_applied += applied
        else:
            relation.insert_batch(list(record.rows), timestamp=record.timestamp)
            self.rows_applied += record.row_count
        self._reach(DrainPoint.AFTER_APPLY)
        self.records_applied += 1
        self._pending[record.table] = max(0, self._pending.get(record.table, 0) - 1)
        self._applied_sequence[record.table] = max(
            self._applied_sequence.get(record.table, 0), sequence
        )

    def drain_batch(self) -> int:
        """Apply (up to) one batch of pending records; returns how many
        records made progress (applied or dead-lettered).

        One durable checkpoint covers the whole batch; a crash anywhere
        before it replays the entire batch idempotently.
        """
        with self._lock:
            if self._crashed:
                raise MaintenanceError(
                    "maintenance worker crashed; call recover() before draining"
                )
            if self._halted:
                raise MaintenanceError(
                    "maintenance pipeline halted on a dead-lettered record"
                )
            allowance = self.batch_size
            if self.faults is not None:
                allowance = self.faults.drain_allowance(allowance)
            pending = [
                entry
                for entry in self.log.entries_after(self.log.checkpoint_sequence)
                if entry.sequence not in self._dead_sequences
            ][:allowance]
            if not pending:
                return 0
            self._batch_index += 1
            self._reach(DrainPoint.BATCH_START)
            progressed = 0
            for entry in pending:
                try:
                    self._apply_record(entry.sequence, entry.payload)
                except MutationFailedError as error:
                    self.mutation_failures += 1
                    self.dead_letters.append(
                        DeadLetter(entry.sequence, entry.payload, repr(error))
                    )
                    self._dead_sequences.add(entry.sequence)
                    self._pending[entry.payload.table] = max(
                        0, self._pending.get(entry.payload.table, 0) - 1
                    )
                    if self.halt_on_dead_letter:
                        self._halted = True
                        raise
                progressed += 1
            self.log.checkpoint(pending[-1].sequence)
            self._reach(DrainPoint.AFTER_CHECKPOINT)
            self.log.truncate_to()
            self.batches_drained += 1
            return progressed

    def drain_all(self, max_batches: "int | None" = None) -> int:
        """Drain until the backlog is empty (or ``max_batches`` ran);
        returns total records progressed."""
        total = 0
        batches = 0
        while True:
            progressed = self.drain_batch()
            if progressed == 0:
                return total
            total += progressed
            batches += 1
            if max_batches is not None and batches >= max_batches:
                return total

    def drain_until(self, sequence: int) -> None:
        """Drain until the durable watermark covers ``sequence`` (the
        read-your-writes wait used by the serving layer)."""
        while self.log.checkpoint_sequence < sequence:
            if self.drain_batch() == 0 and self.log.checkpoint_sequence < sequence:
                raise WALError(
                    f"cannot drain to sequence {sequence}: backlog empty at "
                    f"checkpoint {self.log.checkpoint_sequence}"
                )

    # -- crash recovery ------------------------------------------------------

    def recover(self) -> int:  # lint: disable=RL501 (crash recovery path)
        """Rebuild worker state from durable state only, then return the
        number of records awaiting replay.

        Models a fresh worker process attaching to the log after a crash:
        every in-memory watermark is discarded and recomputed from the
        retained records, the checkpoint marker, and the durable DLQ.
        Entries after the checkpoint (minus dead letters) will be replayed
        by the next drains — idempotently, thanks to original-timestamp
        reapplication and persisted delete resolutions.
        """
        with self._lock:
            checkpoint = self.log.checkpoint_sequence
            self._pending = {}
            self._applied_sequence = {table: checkpoint for table in self._relations}
            replayable = 0
            for entry in self.log.entries_after(checkpoint):
                if entry.sequence in self._dead_sequences:
                    continue
                table = entry.payload.table
                self._pending[table] = self._pending.get(table, 0) + 1
                self._last_sequence[table] = max(
                    self._last_sequence.get(table, 0), entry.sequence
                )
                replayable += 1
            if self.faults is not None:
                self.faults.reset()
            self._crashed = False
            self._halted = False
            self.recoveries += 1
            return replayable

    def retry_dead_letters(self) -> int:  # lint: disable=RL501 (fault recovery path)
        """Re-apply dead-lettered records (oldest first) now that the
        store presumably recovered; returns how many succeeded.

        Original timestamps make re-application idempotent even when the
        poisoned record had partially applied before dead-lettering.
        """
        with self._lock:
            retained: "list[DeadLetter]" = []
            succeeded = 0
            for letter in self.dead_letters:
                try:
                    self._pending[letter.record.table] = (
                        self._pending.get(letter.record.table, 0) + 1
                    )
                    self._apply_record(letter.sequence, letter.record)
                    self._dead_sequences.discard(letter.sequence)
                    succeeded += 1
                except MutationFailedError:
                    self.mutation_failures += 1
                    self._pending[letter.record.table] = max(
                        0, self._pending.get(letter.record.table, 0) - 1
                    )
                    retained.append(letter)
            self.dead_letters = retained
            return succeeded

    # -- introspection -------------------------------------------------------

    def stats(self) -> "dict[str, object]":
        """Counters + per-table staleness (what ``QueryServer.stats()``
        surfaces so operators see stuck maintenance, not silent lag)."""
        with self._lock:
            return {
                "records_submitted": self.records_submitted,
                "records_applied": self.records_applied,
                "rows_applied": self.rows_applied,
                "batches_drained": self.batches_drained,
                "mutation_failures": self.mutation_failures,
                "dead_letters": len(self.dead_letters),
                "recoveries": self.recoveries,
                "backlog": sum(self._pending.values()),
                "backlog_bytes": self.log.byte_size,
                "applied_sequence": self.log.checkpoint_sequence,
                "last_sequence": self.log.last_sequence,
                "crashed": self._crashed,
                "staleness": {
                    table: self._pending.get(table, 0) for table in self.tables
                },
            }
