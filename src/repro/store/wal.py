"""Write-ahead logging: sequence-numbered, checkpointable mutation logs.

Durability in HBase comes from appending every mutation to an HDFS-backed
WAL before acknowledging it (§1: "fault tolerant through replication,
write-ahead logging, and data repair mechanisms").  Two log shapes share
one substrate here:

* :class:`WriteAheadLog` — the per-region cell log.  A region replays it
  over its durable segments after a crash, and truncates the flushed
  prefix on log rolling.
* :class:`SequencedLog` — the generic base: an append-only list of
  :class:`WALRecord` entries, each carrying a monotonically increasing
  **sequence number**, plus a durable **checkpoint marker**.  The async
  maintenance pipeline (:mod:`repro.maintenance.worker`) logs logical
  mutations here; everything after the checkpoint is exactly the replay
  set after a worker crash.

Byte accounting is incremental: every record caches its serialized size at
append time, so truncation and family drops adjust ``byte_size`` in
O(affected entries) instead of rescanning the whole log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import WALError
from repro.store.cell import Cell


@dataclass(frozen=True)
class WALRecord:
    """One logged entry: payload plus its sequence number and cached size."""

    sequence: int
    payload: Any
    size: int
    #: column family of a cell payload (``None`` for logical records);
    #: cached so :meth:`WriteAheadLog.drop_family` never re-inspects payloads
    family: "str | None" = None


class SequencedLog:
    """Append-only log with per-entry sequence numbers and a checkpoint.

    Sequences start at 1 and never repeat, even across truncations.  The
    **checkpoint marker** records the highest sequence whose effects are
    durable downstream (flushed to segments, or applied by the maintenance
    worker): :meth:`entries_after` the checkpoint is precisely what a
    crash-recovery replay must reprocess, and :meth:`truncate_to` reclaims
    everything at or below it.
    """

    def __init__(self) -> None:
        self._records: list[WALRecord] = []
        self.byte_size = 0
        self._next_sequence = 1
        self._checkpoint_sequence = 0

    def __len__(self) -> int:
        return len(self._records)

    # -- appending -----------------------------------------------------------

    def append_payload(
        self, payload: Any, size: int, family: "str | None" = None
    ) -> WALRecord:
        """Log one entry; returns the :class:`WALRecord` with its sequence."""
        record = WALRecord(self._next_sequence, payload, size, family)
        self._next_sequence += 1
        self._records.append(record)
        self.byte_size += size
        return record

    # -- sequence bookkeeping -------------------------------------------------

    @property
    def last_sequence(self) -> int:
        """Sequence of the most recently appended entry (0 when none yet)."""
        return self._next_sequence - 1

    @property
    def checkpoint_sequence(self) -> int:
        """Highest sequence known durable downstream (0 = nothing yet)."""
        return self._checkpoint_sequence

    def checkpoint(self, sequence: "int | None" = None) -> int:
        """Durably mark everything up to ``sequence`` (default: the whole
        log) as applied; returns the new checkpoint.  Checkpoints only move
        forward — recovery depends on the marker being monotonic."""
        if sequence is None:
            sequence = self.last_sequence
        if sequence > self.last_sequence:
            raise WALError(
                f"checkpoint {sequence} beyond last sequence {self.last_sequence}"
            )
        if sequence < self._checkpoint_sequence:
            raise WALError(
                f"checkpoint {sequence} would move backwards past "
                f"{self._checkpoint_sequence}"
            )
        self._checkpoint_sequence = sequence
        return sequence

    def entries_after(self, sequence: int) -> list[WALRecord]:
        """Retained records with a sequence strictly greater than
        ``sequence`` — the crash-replay set when called with the
        checkpoint."""
        return [record for record in self._records if record.sequence > sequence]

    def records(self) -> list[WALRecord]:
        """All retained records, oldest first."""
        return list(self._records)

    # -- truncation -----------------------------------------------------------

    def truncate_to(self, sequence: "int | None" = None) -> int:
        """Drop records at or below ``sequence`` (default: the checkpoint);
        returns bytes reclaimed.  Accounting is incremental — only the
        dropped entries' cached sizes are summed."""
        if sequence is None:
            sequence = self._checkpoint_sequence
        keep_from = 0
        reclaimed = 0
        for record in self._records:
            if record.sequence > sequence:
                break
            keep_from += 1
            reclaimed += record.size
        if keep_from:
            self._records = self._records[keep_from:]
            self.byte_size -= reclaimed
        return reclaimed


class WriteAheadLog(SequencedLog):
    """Append-only cell-mutation log of one region, with byte accounting.

    Extends :class:`SequencedLog` with the region-server lifecycle: a
    flush marks the logged prefix durable (``mark_flushed``), log rolling
    reclaims it (``truncate_flushed``), and an administrative family drop
    discards matching entries so a crash replay cannot resurrect dropped
    data.  Every entry carries a sequence number, so crash-recovery tests
    and the maintenance pipeline can reason about exact replay positions.
    """

    def __init__(self) -> None:
        super().__init__()
        self._sync_marker = 0

    def extend(self, cells: "Iterable[Cell]") -> None:
        """Log mutations in order, one record each (a region's write batch)."""
        for cell in cells:
            self.append_payload(cell, cell.serialized_size(), cell.family)

    def mark_flushed(self) -> None:
        """Record that everything logged so far is durable in segments, so
        the log prefix can be truncated (HBase log rolling).  Also advances
        the checkpoint marker to the flushed sequence."""
        self._sync_marker = len(self._records)
        if self._records:
            self._checkpoint_sequence = max(
                self._checkpoint_sequence, self._records[-1].sequence
            )
        else:
            self._checkpoint_sequence = max(
                self._checkpoint_sequence, self.last_sequence
            )

    def truncate_flushed(self) -> int:
        """Drop entries already persisted; returns bytes reclaimed.

        O(affected entries): the reclaimed total is the sum of the dropped
        records' cached sizes — the retained suffix is never rescanned.
        """
        dropped = self._records[: self._sync_marker]
        self._records = self._records[self._sync_marker :]
        self._sync_marker = 0
        reclaimed = sum(record.size for record in dropped)
        self.byte_size -= reclaimed
        return reclaimed

    def replay(self) -> list[Cell]:
        """Cells that would be recovered after a crash (oldest first)."""
        return [record.payload for record in self._records]

    def drop_family(self, family: str) -> None:
        """Discard unflushed entries of ``family`` (administrative schema
        drop) so a crash replay cannot resurrect dropped data.

        Accounting is incremental: ``byte_size`` drops by exactly the
        removed entries' cached sizes (O(affected); survivors are not
        re-serialized).
        """
        kept: list[WALRecord] = []
        kept_before_marker = 0
        removed_bytes = 0
        for index, record in enumerate(self._records):
            if record.family == family:
                removed_bytes += record.size
                continue
            if index < self._sync_marker:
                kept_before_marker += 1
            kept.append(record)
        self._records = kept
        self._sync_marker = kept_before_marker
        self.byte_size -= removed_bytes
