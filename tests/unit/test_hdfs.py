"""Simulated HDFS."""

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.simulation import SimContext
from repro.errors import HDFSError
from repro.mapreduce.hdfs import SimHDFS


@pytest.fixture()
def hdfs():
    return SimHDFS(SimContext.with_profile(EC2_PROFILE), block_bytes=256)


class TestFiles:
    def test_write_read_roundtrip(self, hdfs):
        records = [["key", i] for i in range(20)]
        hdfs.write_file("f", records)
        assert list(hdfs.read_file("f")) == records

    def test_exists_delete(self, hdfs):
        hdfs.write_file("f", [[1]])
        hdfs.delete("f")
        with pytest.raises(HDFSError):
            list(hdfs.read_file("f"))
        with pytest.raises(HDFSError):
            hdfs.delete("f")

    def test_delete_if_exists_is_idempotent(self, hdfs):
        hdfs.delete_if_exists("never-created")

    def test_duplicate_create_rejected(self, hdfs):
        hdfs.write_file("f", [[1]])
        with pytest.raises(HDFSError):
            hdfs.write_file("f", [[2]])

    def test_missing_file_read_rejected(self, hdfs):
        with pytest.raises(HDFSError):
            list(hdfs.read_file("ghost"))


class TestBlocks:
    def test_large_files_split_into_blocks(self, hdfs):
        records = [["x" * 50] for _ in range(40)]
        hdfs.write_file("big", records)
        blocks = hdfs.blocks("big")
        assert len(blocks) > 1
        assert sum(len(b.records) for b in blocks) == 40

    def test_blocks_spread_across_workers(self, hdfs):
        records = [["x" * 50] for _ in range(40)]
        hdfs.write_file("big", records)
        nodes = {b.node.node_id for b in hdfs.blocks("big")}
        assert len(nodes) > 1

    def test_file_size(self, hdfs):
        written = hdfs.write_file("f", [["abcd"], ["efgh"]])
        assert written > 0
        assert written == sum(b.byte_size for b in hdfs.blocks("f"))


class TestReplicationCosts:
    def test_write_charges_replication_traffic(self, hdfs):
        before = hdfs.ctx.metrics.snapshot()
        written = hdfs.write_file("f", [["payload" * 10] for _ in range(10)])
        delta = hdfs.ctx.metrics.snapshot() - before
        # at least (replication - 1) copies of every byte cross the network
        assert delta.network_bytes >= written * (
            hdfs.ctx.cost_model.hdfs_replication - 1
        )
        assert delta.sim_time_s > 0

    def test_local_writer_saves_primary_copy(self, hdfs):
        records = [["data"]]
        hdfs.write_file("remote", records)  # writer unknown => primary ships
        remote_cost = hdfs.ctx.metrics.network_bytes
        hdfs.ctx.metrics.reset()
        # writing from the block's own node skips the primary transfer
        node = hdfs.ctx.cluster.workers[1]  # next round-robin target
        hdfs.write_file("local", records, writer_node=node)
        local_cost = hdfs.ctx.metrics.network_bytes
        assert local_cost <= remote_cost
