"""repro — a reproduction of "Rank Join Queries in NoSQL Databases"
(Ntarmos, Patlakas, Triantafillou; PVLDB 7(7), 2014).

The package provides the paper's three rank-join algorithms (IJLMR, ISL,
BFHM), the baselines it compares against (Hive-style, Pig-style, DRJN),
and every substrate they need: an HBase-like NoSQL store, a simulated
HDFS + MapReduce engine, a cluster cost model producing the paper's three
metrics (time, bandwidth, dollar cost), a TPC-H-like workload generator,
and online index maintenance.

Quickstart::

    from repro import Platform, RankJoinEngine, EC2_PROFILE
    from repro.tpch import generate, load_tpch, q1

    platform = Platform(EC2_PROFILE)
    load_tpch(platform.store, generate(micro_scale=0.5))
    engine = RankJoinEngine(platform)
    result = engine.execute(q1(k=10), algorithm="bfhm")
    for t in result.tuples:
        print(t.join_value, t.score)
    print(result.metrics.sim_time_s, result.metrics.network_bytes)
"""

from repro.baselines import DRJNRankJoin, HiveRankJoin, PigRankJoin
from repro.cluster import EC2_PROFILE, LC_PROFILE, CostModel
from repro.common.functions import (
    AggregateFunction,
    MaxFunction,
    MinFunction,
    ProductFunction,
    SumFunction,
    WeightedSumFunction,
)
from repro.common.types import JoinTuple, ScoredRow
from repro.core import BFHMRankJoin, HRJNOperator, IJLMRRankJoin, ISLRankJoin
from repro.core.bfhm import TerminationPolicy, WriteBackPolicy
from repro.core.bfhm.multi import BFHMCascadeRankJoin
from repro.core.hrjn import MultiWayHRJNRankJoin
from repro.core.isl import MultiWayISLRankJoin
from repro.platform import Platform
from repro.query.engine import RankJoinEngine
from repro.query.parser import parse_rank_join
from repro.query.planner import CostEstimate, QueryPlan, QueryPlanner
from repro.query.results import RankJoinResult
from repro.query.spec import RankJoinQuery
from repro.query.statistics import StatisticsCatalog, TableStatistics
from repro.relational.binding import RelationBinding

__version__ = "1.0.0"

__all__ = [
    "DRJNRankJoin",
    "HiveRankJoin",
    "PigRankJoin",
    "EC2_PROFILE",
    "LC_PROFILE",
    "CostModel",
    "AggregateFunction",
    "MaxFunction",
    "MinFunction",
    "ProductFunction",
    "SumFunction",
    "WeightedSumFunction",
    "JoinTuple",
    "ScoredRow",
    "BFHMRankJoin",
    "BFHMCascadeRankJoin",
    "HRJNOperator",
    "MultiWayHRJNRankJoin",
    "MultiWayISLRankJoin",
    "IJLMRRankJoin",
    "ISLRankJoin",
    "TerminationPolicy",
    "WriteBackPolicy",
    "Platform",
    "RankJoinEngine",
    "parse_rank_join",
    "CostEstimate",
    "QueryPlan",
    "QueryPlanner",
    "RankJoinResult",
    "RankJoinQuery",
    "StatisticsCatalog",
    "TableStatistics",
    "RelationBinding",
    "__version__",
]
