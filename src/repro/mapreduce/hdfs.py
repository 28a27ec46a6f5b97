"""Simulated HDFS: replicated, block-structured files of Python records.

Intermediate results of the Hive/Pig pipelines live here (the join result
file of the first MR job, the sampled quantiles, the sorted output).  Files
are split into blocks placed round-robin on worker nodes; writes charge the
replication pipeline's network traffic, reads are local to the block's node
when the reader is a map task scheduled there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.common.serialization import sizeof
from repro.errors import HDFSError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulation import Node, SimContext

#: default block size; small so mini datasets still split across nodes
DEFAULT_BLOCK_BYTES = 2 * 1024 * 1024


@dataclass
class HDFSBlock:
    """One block of a file: records plus the primary replica's node."""

    node: "Node"
    records: list[Any] = field(default_factory=list)
    byte_size: int = 0


class SimHDFS:
    """The namespace of simulated files."""

    def __init__(self, ctx: "SimContext", block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        self.ctx = ctx
        self.block_bytes = block_bytes
        self._files: dict[str, list[HDFSBlock]] = {}

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise HDFSError(f"no such file: {path!r}")
        del self._files[path]

    def delete_if_exists(self, path: str) -> None:
        self._files.pop(path, None)

    def write_file(self, path: str, records: "list[Any]", writer_node: "Node | None" = None) -> int:
        """Create ``path`` from ``records``; returns total bytes written.

        Charges the HDFS write pipeline: each block is written locally (or
        shipped to its primary node) and then replicated ``replication - 1``
        more times across the network.
        """
        if path in self._files:
            raise HDFSError(f"file exists: {path!r}")
        blocks: list[HDFSBlock] = []
        current = HDFSBlock(self.ctx.cluster.next_worker())
        for record in records:
            size = sizeof(record)
            if current.byte_size + size > self.block_bytes and current.records:
                blocks.append(current)
                current = HDFSBlock(self.ctx.cluster.next_worker())
            current.records.append(record)
            current.byte_size += size
        blocks.append(current)
        self._files[path] = blocks

        total = sum(block.byte_size for block in blocks)
        model = self.ctx.cost_model
        remote = 0
        for block in blocks:
            copies = model.hdfs_replication - 1
            if writer_node is None or writer_node.node_id != block.node.node_id:
                copies += 1  # primary copy also crosses the network
            remote += block.byte_size * copies
        self.ctx.metrics.add_network(remote)
        self.ctx.metrics.advance_time(model.network_time(remote))
        return total

    def blocks(self, path: str) -> list[HDFSBlock]:
        """Block list of a file (for split computation)."""
        try:
            return self._files[path]
        except KeyError:
            raise HDFSError(f"no such file: {path!r}") from None

    def read_file(self, path: str) -> Iterator[Any]:
        """All records of a file, unmetered (callers charge their own I/O)."""
        for block in self.blocks(path):
            yield from block.records
