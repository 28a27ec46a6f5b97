"""Multi-server topology: worker nodes grouped into region servers.

The seed store models one region server per table — every multi-region
RPC executes (and is charged) serially.  Real HBase deployments spread a
table's regions over N region-server processes, and a client multi-get or
parallel scan fans out to all of them at once, paying the *slowest
server's* queue rather than the sum of every region's work (§7's clusters
run 2–8 region servers).

:class:`ClusterTopology` supplies that mapping.  Worker :class:`~repro.
cluster.simulation.Node` objects are partitioned into ``num_servers``
region servers by a :class:`RegionBalancer`; a region is served by
whichever server owns its node.  Placement (``SimCluster.next_worker``)
already round-robins regions over workers, and the default balancer
round-robins workers over servers, so a table with R >= N regions spans
all N servers — the property the scatter benchmarks rely on.

The default topology is a single server (``num_servers=1``), for which
:attr:`ClusterTopology.parallel` is False and every scatter/gather entry
point falls back to the seed serial code path, byte-for-byte — the fig7/8
bit-identity guarantee.

Topology state is immutable after construction (the node->server map is
computed eagerly for every node the cluster can ever hand out), so lookups
are lock-free and thread-safe by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulation imports us)
    from repro.cluster.simulation import Node, SimCluster
    from repro.store.region import Region


class RegionBalancer:
    """Strategy mapping a worker node to the region server that hosts it.

    The base class implements the default round-robin assignment: worker
    ``i`` (0-based position in the cluster's worker list) lands on server
    ``i % num_servers``.  With round-robin *region* placement this
    stripes consecutive key ranges across servers — the balanced layout
    HBase's balancer converges to, and the best case for scatter/gather.
    """

    def server_for_worker(self, worker_index: int, num_servers: int) -> int:
        """Server id (``0..num_servers-1``) for the worker at position
        ``worker_index`` of the cluster's worker list."""
        return worker_index % num_servers

    def assign(self, num_workers: int, num_servers: int) -> "list[int]":
        """Server id per worker position, for the whole cluster at once
        (strategies that need the total worker count override this)."""
        return [
            self.server_for_worker(index, num_servers)
            for index in range(num_workers)
        ]


class LocalityBalancer(RegionBalancer):  # lint: disable=RL501 (the alternative layout golden_four_server.json pins)
    """Contiguous-block assignment: adjacent workers share a server.

    Region placement round-robins over the worker list, so a small batch
    of *consecutive* regions (a BFHM bucket's blob + reverse-mapping
    fetches, a scan's next few regions) lands on consecutive workers.
    Under the default striping balancer those consecutive workers all sit
    on *different* servers — maximal fan-out, but every round pays the
    per-extra-server dispatch overhead.  Assigning workers in contiguous
    blocks co-locates adjacent regions instead, so narrow fetch rounds
    touch fewer servers and skip dispatch overhead they don't need, at
    the price of less overlap for genuinely wide rounds.  Round-robin
    stays the default; this strategy is opt-in per platform.
    """

    def assign(self, num_workers: int, num_servers: int) -> "list[int]":
        return [
            index * num_servers // max(num_workers, 1)
            for index in range(num_workers)
        ]


class RegionServer:
    """One region-server process: a server id plus the workers it owns."""

    __slots__ = ("server_id", "name", "node_ids")

    def __init__(self, server_id: int, node_ids: tuple[int, ...]) -> None:
        self.server_id = server_id
        self.name = f"rs-{server_id}"
        self.node_ids = node_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegionServer({self.name}, nodes={list(self.node_ids)})"


class ClusterTopology:
    """Immutable assignment of a cluster's worker nodes to region servers."""

    def __init__(
        self,
        cluster: "SimCluster",
        num_servers: int = 1,
        balancer: "RegionBalancer | None" = None,
    ) -> None:
        if num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {num_servers}")
        workers = cluster.workers
        # more servers than workers would leave empty server processes;
        # clamp so every server owns at least one node
        self.num_servers = min(num_servers, len(workers)) if workers else 1
        self.balancer = balancer if balancer is not None else RegionBalancer()
        server_nodes: dict[int, list[int]] = {
            server_id: [] for server_id in range(self.num_servers)
        }
        self._server_of_node: dict[int, int] = {}
        assigned = self.balancer.assign(len(workers), self.num_servers)
        for index, worker in enumerate(workers):
            server_id = assigned[index]
            if not 0 <= server_id < self.num_servers:
                raise ValueError(
                    f"balancer assigned worker {worker.node_id} to "
                    f"server {server_id} (have {self.num_servers})"
                )
            server_nodes[server_id].append(worker.node_id)
            self._server_of_node[worker.node_id] = server_id
        # the master never hosts regions, but routing it somewhere keeps
        # server_for total over every node the simulation can mention
        self._server_of_node[cluster.master.node_id] = 0
        self.servers = tuple(
            RegionServer(server_id, tuple(nodes))
            for server_id, nodes in server_nodes.items()
        )

    @property
    def parallel(self) -> bool:
        """True when scatter/gather fan-out is worth engaging at all."""
        return self.num_servers > 1

    def server_for(self, region: "Region") -> int:
        """Region-server id serving ``region`` (via its hosting node)."""
        return self._server_of_node[region.node.node_id]

    def assignments(self, regions: "list[Region]") -> "dict[int, list[Region]]":
        """Group ``regions`` by server id, preserving the input (key) order
        within each group and first-touch order across groups."""
        groups: dict[int, list[Region]] = {}
        for region in regions:
            groups.setdefault(self.server_for(region), []).append(region)
        return groups

    def spread(self, regions: "list[Region]") -> int:
        """How many distinct servers ``regions`` land on."""
        return len({self.server_for(region) for region in regions})
