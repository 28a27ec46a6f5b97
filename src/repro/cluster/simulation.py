"""Cluster topology and the shared simulation context.

A :class:`SimCluster` is a set of worker :class:`Node` objects plus one
coordinator/master node.  Regions and HDFS blocks are placed on workers;
the MapReduce runtime asks the cluster where data lives to schedule local
tasks (the locality property §4.1.2 relies on: "the Hadoop framework
ensures that each mapper is executed on the NoSQL store node storing its
input region data").

:class:`SimContext` bundles everything a component needs to run and be
metered: the cluster, the cost model, the metrics collector, and a
monotonic timestamp oracle for store mutations.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from repro.cluster.costmodel import CostModel, EC2_PROFILE
from repro.cluster.metrics import MetricsCollector
from repro.cluster.topology import ClusterTopology, RegionBalancer


@dataclass(frozen=True, slots=True)
class Node:
    """One machine of the simulated cluster."""

    node_id: int
    hostname: str
    is_master: bool = False


class SimCluster:
    """Nodes plus round-robin placement state."""

    def __init__(self, cost_model: CostModel) -> None:
        self.cost_model = cost_model
        self.master = Node(0, "master", is_master=True)
        self.workers = [
            Node(i + 1, f"worker-{i + 1}") for i in range(cost_model.worker_nodes)
        ]
        self._placement_cycle = itertools.cycle(range(len(self.workers)))

    @property
    def nodes(self) -> list[Node]:
        return [self.master, *self.workers]

    def next_worker(self) -> Node:
        """Round-robin worker selection for region/block placement."""
        return self.workers[next(self._placement_cycle)]


@dataclass
class SimContext:
    """Shared state threaded through the store, MapReduce, and algorithms."""

    cost_model: CostModel = EC2_PROFILE
    cluster: SimCluster = None  # type: ignore[assignment]
    metrics: MetricsCollector = field(default_factory=MetricsCollector)
    #: region servers the workers are grouped into; 1 (the default) keeps
    #: every fan-out entry point on the seed serial path bit-for-bit
    num_servers: int = 1
    #: worker->server assignment strategy (default: round-robin striping)
    balancer: "RegionBalancer | None" = None
    _timestamp: int = 0

    def __post_init__(self) -> None:
        if self.cluster is None:
            self.cluster = SimCluster(self.cost_model)
        self.topology = ClusterTopology(
            self.cluster, num_servers=self.num_servers, balancer=self.balancer
        )
        # mutation timestamps must stay strictly monotonic even when many
        # serving threads write through one context
        self._timestamp_lock = threading.Lock()

    @classmethod
    def with_profile(
        cls,
        cost_model: CostModel,
        num_servers: int = 1,
        balancer: "RegionBalancer | None" = None,
    ) -> "SimContext":
        return cls(
            cost_model=cost_model,
            num_servers=num_servers,
            balancer=balancer,
        )

    def next_timestamp(self) -> int:
        """Monotonic mutation timestamp (HBase-style version ordering)."""
        with self._timestamp_lock:
            self._timestamp += 1
            return self._timestamp

    # -- convenience charging helpers -------------------------------------

    def charge_rpc(self, request_bytes: int, response_bytes: int) -> None:
        """Charge one coordinator<->server round trip: latency + transfer."""
        model = self.cost_model
        total = request_bytes + response_bytes
        self.metrics.add_network(total)
        self.metrics.advance_time(model.rpc_latency_s + model.network_time(total))

    def charge_server_read(self, num_bytes: int, num_cells: int, sequential: bool = True) -> None:
        """Charge a server-side read of ``num_cells`` cells totalling
        ``num_bytes`` bytes, plus dollar-cost read units."""
        model = self.cost_model
        self.metrics.add_kv_reads(num_cells)
        self.metrics.add_disk_read(num_bytes)
        seek = 0.0 if sequential else model.disk_random_read_s
        self.metrics.advance_time(
            seek + model.disk_seq_time(num_bytes) + model.cpu_time(num_cells)
        )
