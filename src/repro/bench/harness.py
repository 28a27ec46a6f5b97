"""Shared machinery for the figure-regeneration benchmarks.

One :class:`ExperimentSetup` corresponds to one evaluation environment of
§7.1 (an EC2-like or LC-like platform with TPC-H data loaded and all
indices built); :func:`run_series` then sweeps k for a set of algorithms,
yielding the three per-query metrics of every Fig. 7/8 panel plus recall
against the naive ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.costmodel import CostModel
from repro.common.types import JoinTuple
from repro.platform import Platform
from repro.query.engine import RankJoinEngine
from repro.query.spec import RankJoinQuery
from repro.relational.binding import load_relation
from repro.relational.naive import naive_rank_join
from repro.tpch.generator import TPCHData, generate
from repro.tpch.loader import load_tpch


@dataclass
class ExperimentSetup:
    """A loaded platform + engine + the data that went in."""

    platform: Platform
    engine: RankJoinEngine
    data: TPCHData

    def ground_truth(self, query: RankJoinQuery, k: int) -> list[JoinTuple]:
        relations = [
            load_relation(self.platform.store, binding) for binding in query.inputs
        ]
        return naive_rank_join(relations, query.function, k)


@dataclass
class SeriesPoint:
    """One (algorithm, k) measurement — a point of a Fig. 7/8 series."""

    algorithm: str
    k: int
    time_s: float
    network_bytes: int
    kv_reads: int
    dollars: float
    recall: float
    details: dict[str, float] = field(default_factory=dict)


def build_setup(
    cost_model: CostModel,
    micro_scale: float,
    seed: int = 1,
    prebuild: "list[str] | None" = None,
    prebuild_query: "RankJoinQuery | None" = None,
    num_servers: int = 1,
    balancer=None,
    **algorithm_kwargs,
) -> ExperimentSetup:
    """Create a platform, load TPC-H data, optionally pre-build indices.

    ``num_servers`` > 1 stands the platform up on a multi-region-server
    topology (scatter/gather fan-out; see :mod:`repro.cluster.topology`);
    ``balancer`` passes straight through to
    :class:`~repro.platform.Platform`.
    """
    platform = Platform(
        cost_model,
        num_servers=num_servers,
        balancer=balancer,
    )
    data = generate(micro_scale=micro_scale, seed=seed)
    load_tpch(platform.store, data)
    engine = RankJoinEngine(platform, **algorithm_kwargs)
    if prebuild and prebuild_query is not None:
        for name in prebuild:
            engine.algorithm(name).prepare(prebuild_query)
    return ExperimentSetup(platform, engine, data)


def run_point(
    setup: ExperimentSetup,
    query: RankJoinQuery,
    algorithm: str,
    truth: "list[JoinTuple] | None" = None,
) -> SeriesPoint:
    """Execute one query with one algorithm and package its metrics."""
    if truth is None:
        truth = setup.ground_truth(query, query.k)
    result = setup.engine.execute(query, algorithm=algorithm)
    return SeriesPoint(
        algorithm=result.algorithm,
        k=query.k,
        time_s=result.metrics.sim_time_s,
        network_bytes=result.metrics.network_bytes,
        kv_reads=result.metrics.kv_reads,
        dollars=result.metrics.dollars,
        recall=result.recall_against(truth),
        details=result.details,
    )


def run_series(
    setup: ExperimentSetup,
    query_factory,
    ks: "list[int]",
    algorithms: "list[str]",
) -> dict[str, list[SeriesPoint]]:
    """Sweep k per algorithm — the data behind one Fig. 7/8 panel."""
    series: dict[str, list[SeriesPoint]] = {name: [] for name in algorithms}
    for k in ks:
        query = query_factory(k)
        truth = setup.ground_truth(query, k)
        for name in algorithms:
            series[name].append(run_point(setup, query, name, truth))
    return series
