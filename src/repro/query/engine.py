"""The engine facade: one object, every algorithm, SQL in, results out.

Downstream users get a single entry point::

    platform = Platform(EC2_PROFILE)
    load_tpch(platform.store, generate(micro_scale=1.0))
    engine = RankJoinEngine(platform)
    result = engine.sql("SELECT * FROM part P, lineitem L "
                        "WHERE P.partkey = L.partkey "
                        "ORDER BY P.retailprice * L.extendedprice "
                        "STOP AFTER 10")

With no explicit ``algorithm=`` the engine runs in ``"auto"`` mode: the
cost-based planner (:mod:`repro.query.planner`) prices every registered
algorithm against cached table statistics and executes the cheapest one.
``engine.explain(sql)`` renders that decision — per-algorithm cost
breakdowns included — without executing anything.
"""

from __future__ import annotations

from repro.baselines.drjn import DRJNRankJoin
from repro.baselines.hive import HiveRankJoin
from repro.baselines.pig import PigRankJoin
from repro.core.base import RankJoinAlgorithm
from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.bfhm.multi import BFHMCascadeRankJoin
from repro.core.hrjn import MultiWayHRJNRankJoin
from repro.core.ijlmr import IJLMRRankJoin
from repro.core.isl import ISLRankJoin, MultiWayISLRankJoin
from repro.errors import PlanningError
from repro.platform import Platform
from repro.query.parser import parse_rank_join
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.results import RankJoinResult
from repro.query.spec import RankJoinQuery
from repro.query.statistics import StatisticsCatalog

#: algorithm name -> factory for two-way queries; lowercase keys
ALGORITHM_FACTORIES = {
    "hive": HiveRankJoin,
    "pig": PigRankJoin,
    "ijlmr": IJLMRRankJoin,
    "isl": ISLRankJoin,
    "bfhm": BFHMRankJoin,
    "drjn": DRJNRankJoin,
}

#: algorithm name -> factory for arity >= 3 queries; the names overlap the
#: two-way registry on purpose — ``algorithm="isl"`` or ``"bfhm"`` picks
#: the right variant for the query's arity, and ``"hrjn"`` is the
#: index-free n-way pipeline
MULTIWAY_FACTORIES = {
    "isl": MultiWayISLRankJoin,
    "hrjn": MultiWayHRJNRankJoin,
    "bfhm": BFHMCascadeRankJoin,
}

#: display names (algorithm.name / planner estimate labels) -> registry key
MULTIWAY_ALIASES = {cls.name.lower(): key for key, cls in MULTIWAY_FACTORIES.items()}

#: the planner-backed pseudo-algorithm name (and the engine-wide default)
AUTO = "auto"


class RankJoinEngine:
    """Holds one instance of every algorithm over a shared platform."""

    def __init__(
        self,
        platform: Platform,
        statistics_catalog: "StatisticsCatalog | None" = None,
        plan_cache=None,
        **algorithm_kwargs,
    ) -> None:
        self.platform = platform
        self._algorithms: dict[str, RankJoinAlgorithm] = {}
        self._multiway: dict[str, RankJoinAlgorithm] = {}
        self._algorithm_kwargs = algorithm_kwargs
        # the serving layer passes a shared catalog + plan cache so its
        # per-worker engines price queries against one set of statistics
        self.statistics = statistics_catalog or StatisticsCatalog(platform)
        self.planner = QueryPlanner(self, self.statistics, plan_cache=plan_cache)
        #: the QueryPlan behind the most recent ``algorithm="auto"`` run
        self.last_plan: "QueryPlan | None" = None

    def algorithm(self, name: str) -> RankJoinAlgorithm:
        """The (cached) two-way algorithm instance for ``name``."""
        key = name.lower()
        if key in self._algorithms:  # explicitly registered instances win
            return self._algorithms[key]
        if key not in ALGORITHM_FACTORIES:
            raise PlanningError(
                f"unknown algorithm {name!r}; choose from "
                f"{sorted(ALGORITHM_FACTORIES)} (or {AUTO!r})"
            )
        kwargs = self._algorithm_kwargs.get(key, {})
        self._algorithms[key] = ALGORITHM_FACTORIES[key](self.platform, **kwargs)
        return self._algorithms[key]

    def multiway_algorithm(self, name: str):
        """The (cached) arity >= 3 strategy instance for ``name``."""
        key = name.lower()
        key = MULTIWAY_ALIASES.get(key, key)
        if key in self._multiway:
            return self._multiway[key]
        if key not in MULTIWAY_FACTORIES:
            raise PlanningError(
                f"unknown multi-way algorithm {name!r}; choose from "
                f"{sorted(MULTIWAY_FACTORIES)} (or {AUTO!r})"
            )
        factory = MULTIWAY_FACTORIES[key]
        kwargs = dict(self._algorithm_kwargs.get(key, {}))
        if key == "bfhm":
            # the cascade shares the binary BFHM's tuning knobs but not its
            # write-back threshold (intermediates are rebuilt, not updated)
            kwargs.pop("writeback_threshold", None)
        self._multiway[key] = factory(self.platform, **kwargs)
        return self._multiway[key]

    def register(self, name: str, algorithm: RankJoinAlgorithm) -> None:
        """Plug in a custom or specially configured *two-way* algorithm
        instance."""
        self._algorithms[name.lower()] = algorithm

    #: algorithm auto mode falls back to when planning is impossible
    #: (e.g. an empty relation has no statistics to price from) — matches
    #: the engine's pre-planner default, so such queries behave as before
    FALLBACK_ALGORITHM = "bfhm"
    #: the arity >= 3 fallback is the index-free HRJN pipeline: it needs no
    #: statistics and works over any inputs
    MULTIWAY_FALLBACK_ALGORITHM = "hrjn"

    def execute(
        self, query: RankJoinQuery, algorithm: str = AUTO
    ) -> RankJoinResult:
        """Run a bound query; ``algorithm="auto"`` lets the planner pick.

        Two-way queries run the classic algorithm registry; arity >= 3
        queries dispatch to the n-way strategies.  Either way the result is
        a :class:`RankJoinResult`.
        """
        multiway = query.arity > 2
        name = algorithm.lower()
        if name == AUTO:
            try:
                self.last_plan = self.planner.plan(query)
                name = self.last_plan.chosen
            except PlanningError:
                self.last_plan = None
                name = (
                    self.MULTIWAY_FALLBACK_ALGORITHM
                    if multiway
                    else self.FALLBACK_ALGORITHM
                )
        instance = (
            self.multiway_algorithm(name) if multiway else self.algorithm(name)
        )
        # first-use execution may build indices as a side effect; note
        # which bindings lack one so the statistics cache can be refreshed
        unbuilt = [
            binding
            for binding in query.inputs
            if instance.build_report(binding) is None
        ]
        result = instance.execute(query)
        for binding in unbuilt:
            if instance.build_report(binding) is not None:
                self.statistics.invalidate(binding.table)
        return result

    def sql(
        self, text: str, algorithm: str = AUTO, family: str = "d"
    ) -> RankJoinResult:
        """Parse and run a SQL-dialect query (§1.1 syntax, any arity)."""
        return self.execute(parse_rank_join(text, family=family), algorithm)

    # -- planning ------------------------------------------------------------

    def plan(
        self,
        query: RankJoinQuery,
        objective: str = "time",
        algorithms: "list[str] | None" = None,
    ) -> QueryPlan:
        """Price the candidate algorithms for ``query`` without executing."""
        return self.planner.plan(query, objective=objective, algorithms=algorithms)

    def explain(
        self,
        text_or_query: "str | RankJoinQuery",
        objective: str = "time",
        family: str = "d",
        algorithms: "list[str] | None" = None,
    ) -> QueryPlan:
        """EXPLAIN: plan a query (SQL text or bound spec) without running it.

        The returned :class:`QueryPlan` renders as a cost-breakdown table
        via ``str(plan)`` / ``plan.render()``.
        """
        if isinstance(text_or_query, str):
            query = parse_rank_join(text_or_query, family=family)
        else:
            query = text_or_query
        return self.plan(query, objective=objective, algorithms=algorithms)

    def invalidate_statistics(self, table: str) -> int:
        """Drop cached planner statistics over ``table`` (returns entries
        dropped).  Wired into online maintenance via
        :class:`repro.maintenance.interceptor.MaintainedRelation`."""
        return self.statistics.invalidate(table)

    # -- index lifecycle ----------------------------------------------------

    def prepare(self, query: RankJoinQuery, algorithms: "list[str] | None" = None):
        """Pre-build indices for a query across algorithms; returns the
        build reports (the Fig. 9 measurement)."""
        if query.arity > 2:
            names = algorithms or ["isl", "bfhm"]
            instances = [self.multiway_algorithm(name) for name in names]
        else:
            names = algorithms or ["ijlmr", "isl", "bfhm", "drjn"]
            instances = [self.algorithm(name) for name in names]
        reports = []
        for instance in instances:
            reports.extend(instance.prepare(query))
        if reports:
            # index builds change footprints the planner prices from
            for binding in query.inputs:
                self.statistics.invalidate(binding.table)
        return reports
