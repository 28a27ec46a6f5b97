"""The Platform: one simulated deployment bundling store, HDFS and MapReduce.

Everything the paper's stack needs — an HBase-like store over a cluster, a
simulated HDFS, and a MapReduce runner — wired to a single cost model and
metrics collector.  Algorithms and benchmarks receive a Platform and charge
all their work to it.
"""

from __future__ import annotations

from repro.cluster.costmodel import CostModel, EC2_PROFILE
from repro.cluster.simulation import SimContext
from repro.cluster.topology import RegionBalancer
from repro.mapreduce.hdfs import SimHDFS
from repro.mapreduce.runtime import JobRunner
from repro.store.client import Store


class Platform:
    """A complete simulated deployment.

    ``num_servers`` groups the cluster's workers into that many region
    servers (see :mod:`repro.cluster.topology`); above 1 the store's
    batched reads, scans, and the hot algorithm paths scatter per server
    and pay max-over-server-queues simulated time instead of the serial
    sum.  The default single server preserves the seed cost model
    bit-for-bit.  ``balancer`` overrides the worker->region-server
    assignment strategy.  Fan-out exists on the simulated clock only:
    scatter rounds and MapReduce waves execute inline on the caller's
    thread (:mod:`repro.cluster.executor`).
    """

    def __init__(
        self,
        cost_model: CostModel = EC2_PROFILE,
        num_servers: int = 1,
        balancer: "RegionBalancer | None" = None,
    ) -> None:
        self.ctx = SimContext.with_profile(
            cost_model,
            num_servers=num_servers,
            balancer=balancer,
        )
        self.store = Store(self.ctx)
        self.hdfs = SimHDFS(self.ctx)
        self.runner = JobRunner(self.ctx, self.store, self.hdfs)

    @property
    def metrics(self):
        return self.ctx.metrics

    @property
    def cost_model(self) -> CostModel:
        return self.ctx.cost_model

    def reset_metrics(self) -> None:
        """Zero the meters (data and indices stay loaded)."""
        self.ctx.metrics.reset()
