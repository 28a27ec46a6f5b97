"""Property-style WAL recovery: crash after *any* interleaving.

Satellite invariant for the crash-recoverable write path: however appends,
flushes (``mark_flushed`` + ``truncate_flushed``), and ``drop_family``
calls interleave, a region rebuilt from its durable segments plus
``wal.replay()`` must expose the exact visible table state of the
pre-crash region.  Hypothesis drives the interleavings; every failing
schedule shrinks to a minimal op list.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.simulation import SimCluster
from repro.store.cell import Cell
from repro.store.region import Region

_ROWS = ("r0", "r1", "r2", "r3")
_FAMILIES = ("d", "x")

#: one schedule step: a put, a delete, a flush, or a family drop
_op = st.one_of(
    st.tuples(
        st.just("put"),
        st.sampled_from(_ROWS),
        st.sampled_from(_FAMILIES),
        st.binary(min_size=1, max_size=4),
    ),
    st.tuples(
        st.just("delete"), st.sampled_from(_ROWS), st.sampled_from(_FAMILIES)
    ),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drop"), st.sampled_from(_FAMILIES)),
)


def _fresh_region() -> Region:
    cluster = SimCluster(EC2_PROFILE)
    # huge threshold: flushes happen only when the schedule says so
    return Region(None, None, cluster.workers[0], flush_threshold=10**9)


def _run_schedule(region: Region, ops) -> None:
    timestamp = 0
    for op in ops:
        if op[0] == "put":
            timestamp += 1
            region.apply_batch([Cell(op[1], op[2], "q", op[3], timestamp)])
        elif op[0] == "delete":
            timestamp += 1
            region.apply_batch([Cell(op[1], op[2], "q", b"", timestamp, is_delete=True)])
        elif op[0] == "flush":
            region.flush()
        else:
            region.drop_family(op[1])


def _crash_recover(region: Region) -> Region:
    """A region-server restart: durable segments + WAL replay only."""
    recovered = _fresh_region()
    recovered.sstables = list(region.sstables)
    for cell in region.wal.replay():
        recovered.memtable.extend([cell])
    return recovered


def _visible_state(region: Region):
    return {
        (row.row, cell.family, cell.qualifier, cell.value, cell.timestamp)
        for row in region.scan_rows()
        for cell in row
    }


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_op, max_size=24))
def test_recovery_matches_precrash_state(ops):
    region = _fresh_region()
    _run_schedule(region, ops)
    recovered = _crash_recover(region)
    assert _visible_state(recovered) == _visible_state(region)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=24))
def test_double_replay_is_idempotent(ops):
    """A retried recovery (the WAL replayed twice) must not change
    visibility — §6 original timestamps dedupe duplicate versions."""
    region = _fresh_region()
    _run_schedule(region, ops)
    recovered = _crash_recover(region)
    for cell in region.wal.replay():
        recovered.memtable.extend([cell])
    assert _visible_state(recovered) == _visible_state(region)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=24))
def test_byte_size_stays_exact(ops):
    """The incremental WAL byte accounting never drifts from the ground
    truth, whatever the schedule."""
    region = _fresh_region()
    _run_schedule(region, ops)
    assert region.wal.byte_size == sum(
        cell.serialized_size() for cell in region.wal.replay()
    )
