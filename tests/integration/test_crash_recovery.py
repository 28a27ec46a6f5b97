"""Write-ahead-log recovery and durability semantics.

§1 lists WAL-based fault tolerance among the NoSQL properties the paper's
store relies on; these tests exercise the recovery path of our substrate:
a region's unflushed mutations are fully reconstructible from its WAL, and
flushed data no longer depends on it.
"""

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.simulation import SimCluster
from repro.store.cell import Cell
from repro.store.region import Region


def _cell(row, ts, value=b"v", delete=False):
    return Cell(row, "d", "q", value, ts, delete)


def _recover(region: Region) -> Region:
    """Rebuild a region from its durable segments + WAL replay, as a
    region server restart would."""
    recovered = Region(region.start_key, region.stop_key, region.node)
    recovered.sstables = list(region.sstables)
    for cell in region.wal.replay():
        recovered.memtable.extend([cell])
    return recovered


class TestRecovery:
    def _region(self):
        cluster = SimCluster(EC2_PROFILE)
        return Region(None, None, cluster.workers[0],
                      flush_threshold=10**9)

    def test_unflushed_writes_survive_crash(self):
        region = self._region()
        region.apply_batch([_cell("r1", 1, b"hello")])
        region.apply_batch([_cell("r2", 2, b"world")])
        recovered = _recover(region)
        assert recovered.read_row("r1").value("d", "q") == b"hello"
        assert recovered.read_row("r2").value("d", "q") == b"world"

    def test_unflushed_deletes_survive_crash(self):
        region = self._region()
        region.apply_batch([_cell("r1", 1)])
        region.flush()
        region.apply_batch([_cell("r1", 2, delete=True)])
        recovered = _recover(region)
        assert recovered.read_row("r1").empty

    def test_flushed_data_independent_of_wal(self):
        region = self._region()
        region.apply_batch([_cell("r1", 1, b"durable")])
        region.flush()  # truncates the replayed prefix
        assert len(region.wal) == 0
        recovered = _recover(region)
        assert recovered.read_row("r1").value("d", "q") == b"durable"

    def test_mixed_flushed_and_unflushed(self):
        region = self._region()
        region.apply_batch([_cell("r1", 1, b"old")])
        region.flush()
        region.apply_batch([_cell("r1", 2, b"new")])
        region.apply_batch([_cell("r2", 3, b"fresh")])
        recovered = _recover(region)
        assert recovered.read_row("r1").value("d", "q") == b"new"
        assert recovered.read_row("r2").value("d", "q") == b"fresh"

    def test_recovery_is_idempotent(self):
        """Replaying the same WAL twice (a retried recovery) must not
        change visibility — timestamps dedupe versions."""
        region = self._region()
        region.apply_batch([_cell("r1", 1, b"value")])
        recovered = _recover(region)
        for cell in region.wal.replay():  # second (duplicate) replay
            recovered.memtable.extend([cell])
        assert recovered.read_row("r1").value("d", "q") == b"value"
