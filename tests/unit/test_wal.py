"""Sequence-numbered WAL substrate: sequences, checkpoints, accounting.

:class:`~repro.store.wal.SequencedLog` is the durability substrate for
both the per-region cell log and the async-maintenance mutation log, so
its sequence/checkpoint invariants are load-bearing for crash recovery:
``entries_after(checkpoint)`` must be exactly the replay set, checkpoints
must be monotonic, and ``byte_size`` must stay exact under any
interleaving of appends, flushes, truncations, and family drops.
"""

from __future__ import annotations

import pytest

from repro.errors import WALError
from repro.store.cell import Cell
from repro.store.wal import SequencedLog, WriteAheadLog


def _cell(row, ts, family="d", value=b"v", delete=False):
    return Cell(row, family, "q", value, ts, delete)


class TestSequencedLog:
    def test_sequences_start_at_one_and_increase(self):
        log = SequencedLog()
        assert log.last_sequence == 0
        records = [log.append_payload(f"p{i}", 10) for i in range(5)]
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5]
        assert log.last_sequence == 5
        assert log.byte_size == 50

    def test_sequences_survive_truncation(self):
        """Sequence numbers never repeat, even after the prefix is gone."""
        log = SequencedLog()
        for i in range(3):
            log.append_payload(i, 1)
        log.checkpoint(3)
        log.truncate_to()
        record = log.append_payload("next", 1)
        assert record.sequence == 4

    def test_checkpoint_defaults_to_whole_log(self):
        log = SequencedLog()
        for i in range(4):
            log.append_payload(i, 1)
        assert log.checkpoint() == 4
        assert log.checkpoint_sequence == 4

    def test_checkpoint_is_monotonic(self):
        log = SequencedLog()
        for i in range(4):
            log.append_payload(i, 1)
        log.checkpoint(3)
        with pytest.raises(WALError):
            log.checkpoint(2)
        assert log.checkpoint_sequence == 3

    def test_checkpoint_cannot_outrun_the_log(self):
        log = SequencedLog()
        log.append_payload("only", 1)
        with pytest.raises(WALError):
            log.checkpoint(2)

    def test_entries_after_is_the_replay_set(self):
        log = SequencedLog()
        for i in range(6):
            log.append_payload(f"p{i}", 1)
        log.checkpoint(4)
        replay = log.entries_after(log.checkpoint_sequence)
        assert [r.sequence for r in replay] == [5, 6]
        assert [r.payload for r in replay] == ["p4", "p5"]

    def test_truncate_to_reclaims_exactly_the_dropped_bytes(self):
        log = SequencedLog()
        sizes = [7, 11, 13, 17]
        for i, size in enumerate(sizes):
            log.append_payload(i, size)
        log.checkpoint(2)
        assert log.truncate_to() == 7 + 11
        assert log.byte_size == 13 + 17
        assert [r.sequence for r in log.records()] == [3, 4]

    def test_truncate_beyond_retained_is_safe(self):
        log = SequencedLog()
        log.append_payload("a", 5)
        log.checkpoint()
        log.truncate_to()
        assert log.truncate_to(99) == 0
        assert log.byte_size == 0


class TestWriteAheadLogAccounting:
    """Satellite: ``byte_size`` stays exact across interleaved
    append / flush / drop_family without ever rescanning the log."""

    def _exact_size(self, wal: WriteAheadLog) -> int:
        return sum(cell.serialized_size() for cell in wal.replay())

    def test_byte_size_exact_across_interleavings(self):
        wal = WriteAheadLog()
        script = [
            ("append", _cell("r1", 1, "d")),
            ("append", _cell("r2", 2, "x", b"longer-value")),
            ("flush", None),
            ("append", _cell("r3", 3, "d", b"abc")),
            ("drop", "x"),
            ("append", _cell("r4", 4, "x")),
            ("truncate", None),
            ("append", _cell("r5", 5, "d", b"zz", True)),
            ("drop", "d"),
            ("flush", None),
            ("truncate", None),
            ("append", _cell("r6", 6, "y")),
        ]
        for op, arg in script:
            if op == "append":
                wal.extend([arg])
            elif op == "flush":
                wal.mark_flushed()
            elif op == "truncate":
                wal.truncate_flushed()
            else:
                wal.drop_family(arg)
            assert wal.byte_size == self._exact_size(wal), (op, arg)

    def test_drop_family_removes_only_that_family(self):
        wal = WriteAheadLog()
        wal.extend([_cell("r1", 1, "d")])
        wal.extend([_cell("r2", 2, "x")])
        wal.extend([_cell("r3", 3, "d")])
        wal.drop_family("x")
        assert [c.row for c in wal.replay()] == ["r1", "r3"]
        assert wal.byte_size == self._exact_size(wal)

    def test_drop_family_preserves_flush_marker_semantics(self):
        """Dropping a family must not let truncate_flushed discard cells
        that were logged after the last flush."""
        wal = WriteAheadLog()
        wal.extend([_cell("r1", 1, "d")])
        wal.extend([_cell("r2", 2, "x")])
        wal.mark_flushed()
        wal.extend([_cell("r3", 3, "d")])
        wal.drop_family("x")
        wal.truncate_flushed()
        assert [c.row for c in wal.replay()] == ["r3"]
        assert wal.byte_size == self._exact_size(wal)

    def test_mark_flushed_advances_checkpoint(self):
        wal = WriteAheadLog()
        wal.extend([_cell("r1", 1)])
        wal.extend([_cell("r2", 2)])
        wal.mark_flushed()
        assert wal.checkpoint_sequence == 2
        wal.truncate_flushed()
        wal.extend([_cell("r3", 3)])
        assert wal.last_sequence == 3
        assert [r.sequence for r in wal.entries_after(wal.checkpoint_sequence)] == [3]
