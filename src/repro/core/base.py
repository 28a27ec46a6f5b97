"""Common machinery of all rank-join algorithms.

Every algorithm — the paper's three contributions and the baselines —
implements the same contract: optionally build per-relation indices
(metered separately, as in Fig. 9), then execute queries whose costs are
reported as metric deltas (Figs. 7–8).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.cluster.metrics import MetricsSnapshot
from repro.common.types import JoinTuple, top_k
from repro.platform import Platform
from repro.query.results import RankJoinResult
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding


@dataclass
class IndexBuildReport:
    """Cost and footprint of building one relation's index."""

    index_name: str
    signature: str
    metrics: MetricsSnapshot
    index_bytes: int
    #: peak reducer memory observed during the build (0 for map-only jobs)
    reducer_peak_bytes: int = 0

    @property
    def build_time_s(self) -> float:
        return self.metrics.sim_time_s


@dataclass
class _ExecutionDetails:
    """Mutable scratch the concrete algorithms fill during a run."""

    values: dict[str, float] = field(default_factory=dict)

    def set(self, name: str, value: float) -> None:
        self.values[name] = value

    def bump(self, name: str, amount: float = 1.0) -> None:
        self.values[name] = self.values.get(name, 0.0) + amount


class RankJoinAlgorithm(ABC):
    """Base class: metering plus the prepare/execute lifecycle."""

    #: short name used in reports and figures
    name: str = "abstract"
    #: the largest arity the algorithm joins; ``None`` means any
    max_arity: "int | None" = 2

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._build_reports: dict[str, IndexBuildReport] = {}
        #: signatures whose index this instance *adopted* from the store
        #: (built earlier by another instance — e.g. another serving
        #: worker's engine) rather than building itself
        self._external_indexes: set[str] = set()

    # -- index lifecycle ----------------------------------------------------

    def prepare(self, query: RankJoinQuery) -> list[IndexBuildReport]:
        """Build whatever this algorithm needs for ``query`` (idempotent).

        An index already present in the store — built by a different
        instance over the same platform — is adopted instead of rebuilt,
        so per-worker engines in the serving layer never duplicate build
        work (or its metered cost).  Returns build reports for indices
        actually built by this call.
        """
        reports = []
        for binding in query.inputs:
            if binding.signature in self._build_reports:
                continue
            if binding.signature in self._external_indexes:
                continue
            if self._index_exists(binding):
                self._adopt_index(binding)
                self._external_indexes.add(binding.signature)
                continue
            report = self._build_index(binding)
            if report is not None:
                self._build_reports[binding.signature] = report
                reports.append(report)
        return reports

    def _build_index(self, binding: RelationBinding) -> "IndexBuildReport | None":
        """Build one relation's index; ``None`` for index-free algorithms."""
        return None

    def _index_exists(self, binding: RelationBinding) -> bool:
        """True iff the store already holds this algorithm's index for
        ``binding`` (unmetered probe; index-free algorithms say False)."""
        return False

    def _adopt_index(self, binding: RelationBinding) -> None:
        """Rehydrate any in-memory state a store-present index implies
        (e.g. ISL batch sizing, BFHM meta registration) without touching
        the meter."""

    def build_report(self, binding: RelationBinding) -> "IndexBuildReport | None":
        return self._build_reports.get(binding.signature)

    # -- execution -----------------------------------------------------------

    def execute(self, query: RankJoinQuery) -> RankJoinResult:
        """Run the query, reporting only this execution's costs."""
        if self.max_arity is not None and query.arity > self.max_arity:
            from repro.errors import QueryError

            raise QueryError(
                f"{self.name} joins at most {self.max_arity} relations; route "
                f"arity-{query.arity} queries through the engine's multi-way "
                "dispatch (RankJoinEngine.execute) instead"
            )
        self.prepare(query)
        before = self.platform.metrics.snapshot()
        details = _ExecutionDetails()
        tuples = self._run(query, details)
        after = self.platform.metrics.snapshot()
        return RankJoinResult(
            algorithm=self.name,
            k=query.k,
            tuples=top_k(tuples, query.k),
            metrics=after - before,
            details=dict(details.values),
        )

    @abstractmethod
    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        """Produce (at least) the top-k join tuples."""

    # -- metered build helper ---------------------------------------------------

    def _metered_build(self, index_name: str, signature: str, build) -> IndexBuildReport:
        """Run ``build()`` (returning index bytes) under the meter."""
        metrics = self.platform.metrics
        peak_before = metrics.counters.get("reducer_peak_bytes", 0.0)
        metrics.set_counter("reducer_peak_bytes", 0.0)
        before = metrics.snapshot()
        index_bytes = build()
        after = metrics.snapshot()
        peak_during = metrics.counters.get("reducer_peak_bytes", 0.0)
        metrics.set_counter("reducer_peak_bytes", max(peak_before, peak_during))
        return IndexBuildReport(
            index_name=index_name,
            signature=signature,
            metrics=after - before,
            index_bytes=index_bytes,
            reducer_peak_bytes=int(peak_during),
        )
