"""The complete BFHM rank-join driver (§5.2, §5.3).

Phase 1 (estimation) is delegated to
:class:`~repro.core.bfhm.estimation.BFHMEstimator`.  Phase 2 purges
estimated results that cannot reach the k-th estimated score, fetches the
reverse-mapping rows of the surviving bucket pairs' common bit positions,
joins the actual tuples (equality on the true join values — this is where
Bloom false positives die), and assembles the exact result set.

The §5.3 recall-repair loop then guarantees 100% recall:

* if ``k`` or more actual results exist but some unfetched bucket could
  still beat the k-th actual score, those buckets are fetched and phase 2
  repeats;
* if only ``k' < k`` results were produced, estimation resumes looking for
  the top-``k + (k - k')`` and phase 2 repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import JoinTuple, ScoredRow
from repro.core.base import IndexBuildReport, RankJoinAlgorithm, _ExecutionDetails
from repro.core.bfhm.bucket import decode_reverse_value, reverse_row_key
from repro.core.bfhm.estimation import (
    SCORE_EPSILON,
    BFHMEstimator,
    EstimatedResult,
    TerminationPolicy,
)
from repro.core.bfhm.index import (
    DEFAULT_FP_RATE,
    DEFAULT_NUM_BUCKETS,
    BFHMIndexBuilder,
)
from repro.core.bfhm.updates import BFHMUpdateManager, WriteBackPolicy
from repro.core.indexes import BFHM_TABLE
from repro.platform import Platform
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.store.client import Get


class _ReverseMappingCache:
    """Coordinator-side cache of fetched reverse-mapping rows.

    Fetches are batched through multi-gets and never repeated across
    recall-repair iterations.
    """

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._cache: dict[tuple[str, int, int], list[ScoredRow]] = {}
        self.rows_fetched = 0

    def fetch(
        self, signature: str, wanted: "list[tuple[int, int]]"
    ) -> dict[tuple[int, int], list[ScoredRow]]:
        """Tuples recorded under each ``(bucket, bit position)``."""
        missing = [
            (bucket, position)
            for bucket, position in wanted
            if (signature, bucket, position) not in self._cache
        ]
        if missing:
            htable = self.platform.store.table(BFHM_TABLE)
            gets = [
                Get(reverse_row_key(bucket, position), families={signature})
                for bucket, position in missing
            ]
            rows = htable.multi_get(gets)
            # count real traffic only: a missing reverse row (pruned by
            # updates, or a bit position the other relation set) comes back
            # as an empty RowResult and carries no tuples
            self.rows_fetched += sum(1 for row in rows if not row.empty)
            for (bucket, position), row in zip(missing, rows):
                tuples = [
                    decode_reverse_value(cell.qualifier, cell.value)
                    for cell in row.family_cells(signature)
                ]
                self._cache[(signature, bucket, position)] = tuples
        return {
            (bucket, position): self._cache[(signature, bucket, position)]
            for bucket, position in wanted
        }


@dataclass
class RepairRoundRecord:
    """Introspection record of one repair-cascade round.

    Round 0 is the initial phase 1 + phase 2 pass; every further record is
    one iteration of the §5.3 recall-repair loop.  The planner's symbolic
    replay (:func:`repro.query.planner._simulate_bfhm`) produces the same
    shape, so estimated and executed cascades are directly comparable.
    """

    round: int
    #: blob rows fetched during this round (phase-1 + forced fetches)
    buckets_fetched: int
    #: new (non-empty) reverse-mapping rows fetched during this round
    reverse_rows: int
    #: exact results materialized at the end of the round
    actual_results: int
    #: estimated pairs re-admitted past the purge bound during this round
    readmitted_pairs: int
    #: the §5.2 purge bound phase 2 started from (None = nothing purged)
    purge_bound: "float | None" = None


@dataclass
class _Phase2Outcome:
    """What one full phase-2 pass (purge + re-admission loop) did."""

    actual: list[JoinTuple] = field(default_factory=list)
    purge_bound: "float | None" = None
    readmitted_pairs: int = 0


class BFHMRankJoin(RankJoinAlgorithm):
    """BFHM index + two-phase statistical rank join with 100% recall."""

    name = "BFHM"

    def __init__(
        self,
        platform: Platform,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        fp_rate: float = DEFAULT_FP_RATE,
        policy: TerminationPolicy = TerminationPolicy.CONSERVATIVE,
        write_back: WriteBackPolicy = WriteBackPolicy.EAGER,
        writeback_threshold: int = 1,
    ) -> None:
        super().__init__(platform)
        self.builder = BFHMIndexBuilder(platform, num_buckets, fp_rate)
        self.policy = policy
        self.update_manager = BFHMUpdateManager(
            platform, write_back, writeback_threshold
        )
        #: per-round introspection of the most recent run (see
        #: :class:`RepairRoundRecord`); round 0 is the initial pass
        self.last_repair_trace: list[RepairRoundRecord] = []

    # -- index lifecycle --------------------------------------------------------

    def prepare(self, query: RankJoinQuery) -> list[IndexBuildReport]:
        """Fix the common filter size over both relations before building
        either index (bucket joins AND the two filters bit-for-bit).

        If the store already holds a BFHM for either input (built by
        another instance), its meta fixes the filter size — the size the
        stored filters were actually built with wins over a recomputation
        from possibly-updated base data.
        """
        if self.builder.m_bits is None:
            for binding in query.inputs:
                meta = self.builder.read_meta_unmetered(binding.signature)
                if meta is not None:
                    self.builder.m_bits = meta.m_bits
                    break
        self.builder.plan_for((query.left, query.right))
        return super().prepare(query)

    def _build_index(self, binding: RelationBinding) -> IndexBuildReport:
        signature = binding.signature

        def build() -> int:
            index_bytes = self.builder.build(binding)
            meta = self.builder.read_meta(self.platform, signature)
            self.update_manager.register_meta(signature, meta)
            return index_bytes

        return self._metered_build(self.name, signature, build)

    def _index_exists(self, binding: RelationBinding) -> bool:
        """A store-present BFHM under *this* builder's bucket configuration
        (the family name encodes ``num_buckets``, so differently configured
        instances never adopt each other's indexes)."""
        return (
            self.builder.read_meta_unmetered(binding.signature) is not None
        )

    def _adopt_index(self, binding: RelationBinding) -> None:
        """Rehydrate meta registration (and the shared filter size) from
        the store so queries run exactly as if this instance had built."""
        signature = binding.signature
        meta = self.builder.read_meta_unmetered(signature)
        if meta is None:  # pragma: no cover - raced drop between probes
            return
        if self.builder.m_bits is None:
            self.builder.m_bits = meta.m_bits
        self.update_manager.register_meta(signature, meta)

    def forget(self, signature_prefix: str) -> None:
        """Drop all index state registered under signatures starting with
        ``signature_prefix`` (build reports, metas, pending write-backs).

        Used by the cascade to evict its per-query temporary relations;
        keeping the eviction here, next to the registries it clears, means
        a registry restructuring cannot silently orphan it."""
        for key in [
            k for k in self._build_reports if k.startswith(signature_prefix)
        ]:
            del self._build_reports[key]
        for key in [
            k for k in self._external_indexes if k.startswith(signature_prefix)
        ]:
            self._external_indexes.discard(key)
        self.update_manager.forget(signature_prefix)

    # -- query processing -----------------------------------------------------------

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        metas = tuple(
            self.update_manager.meta(signature)
            for signature in (query.left.signature, query.right.signature)
        )
        families = (metas[0].family, metas[1].family)
        estimator = BFHMEstimator(
            self.platform,
            families,
            metas,  # type: ignore[arg-type]
            query.function,
            policy=self.policy,
            update_manager=self.update_manager,
        )
        cache = _ReverseMappingCache(self.platform)
        k = query.k
        trace: list[RepairRoundRecord] = []
        recorded = {"buckets": 0, "rows": 0}

        def record_round(number: int, outcome: _Phase2Outcome) -> None:
            # per-round deltas; cumulative counters live in estimator/cache
            trace.append(
                RepairRoundRecord(
                    round=number,
                    buckets_fetched=estimator.buckets_fetched - recorded["buckets"],
                    reverse_rows=cache.rows_fetched - recorded["rows"],
                    actual_results=len(outcome.actual),
                    readmitted_pairs=outcome.readmitted_pairs,
                    purge_bound=outcome.purge_bound,
                )
            )
            recorded["buckets"] = estimator.buckets_fetched
            recorded["rows"] = cache.rows_fetched

        # ---- phase 1: estimation ----
        # (on multi-server topologies phase-1 and repair bucket fetches
        # pull both sides per round instead of alternating)
        estimator.run_until(k)

        # ---- phase 2 + §5.3 recall repair ----
        outcome = self._phase2(estimator, cache, query)
        record_round(0, outcome)
        actual = outcome.actual
        repair_rounds = 0
        while True:
            if len(actual) >= k:
                kth_score = actual[k - 1].score
                violating = [
                    side
                    for side in (0, 1)
                    if (best := estimator.unexamined_best(side)) is not None
                    and best > kth_score + SCORE_EPSILON
                ]
                if not violating or not estimator.fetch(violating):
                    break
            else:
                if estimator.side_exhausted(0) and estimator.side_exhausted(1):
                    break
                fetched_before = estimator.buckets_fetched
                estimator.run_until(k + (k - len(actual)))
                if estimator.buckets_fetched == fetched_before:
                    # estimation thinks it is done; force progress anyway —
                    # on BOTH sides (stopping at the first side that
                    # progresses would starve side 1 while side 0 still has
                    # buckets, burning extra repair rounds on one-sided
                    # exhaustion)
                    if not estimator.fetch([0, 1]):
                        break
            repair_rounds += 1
            outcome = self._phase2(estimator, cache, query)
            record_round(repair_rounds, outcome)
            actual = outcome.actual

        if self.update_manager.policy is WriteBackPolicy.LAZY:
            # lazy write-back happens after the result set is final
            self.update_manager.flush_pending()

        self.last_repair_trace = trace
        details.set("buckets_fetched", estimator.buckets_fetched)
        details.set("estimated_results", len(estimator.results))
        details.set("reverse_rows_fetched", cache.rows_fetched)
        details.set("repair_rounds", repair_rounds)
        details.set(
            "readmitted_pairs", sum(entry.readmitted_pairs for entry in trace)
        )
        if trace[0].purge_bound is not None:
            details.set("purge_bound", trace[0].purge_bound)
        return actual[:k]

    # -- phase 2 -----------------------------------------------------------------------

    def _phase2(
        self,
        estimator: BFHMEstimator,
        cache: _ReverseMappingCache,
        query: RankJoinQuery,
    ) -> _Phase2Outcome:
        """Purge, reverse-map, and compute the exact candidate results.

        The initial purge follows §5.2 ("purges all estimated results whose
        maximum score is below that of the (estimated) k'th tuple", taken at
        its lowest possible value per §5.3).  Because cardinality estimates
        can overcount, the purge bound may overshoot the true k-th score, so
        excluded pairs are re-admitted — and their reverse mappings fetched
        — whenever their maximum score could still beat the k-th *actual*
        result.  The loop is monotone over a finite pair set, so it
        converges; on convergence no excluded pair can contribute.
        """
        k = query.k
        bound = estimator.kth_bound(k, TerminationPolicy.CONSERVATIVE)
        if bound is None:
            included = set(range(len(estimator.results)))
        else:
            included = {
                index
                for index, result in enumerate(estimator.results)
                if result.max_score >= bound - SCORE_EPSILON
            }
        outcome = _Phase2Outcome(purge_bound=bound)

        actual = self._materialize(estimator, cache, query, included)
        while True:
            excluded = set(range(len(estimator.results))) - included
            if not excluded:
                break
            if len(actual) >= k:
                kth_score = actual[k - 1].score
                extra = {
                    index
                    for index in excluded
                    if estimator.results[index].max_score >= kth_score - SCORE_EPSILON
                }
            else:
                extra = excluded  # not enough results: nothing may be purged
            if not extra:
                break
            included |= extra
            outcome.readmitted_pairs += len(extra)
            actual = self._materialize(estimator, cache, query, included)
        outcome.actual = actual
        return outcome

    def _materialize(
        self,
        estimator: BFHMEstimator,
        cache: _ReverseMappingCache,
        query: RankJoinQuery,
        included: "set[int]",
    ) -> list[JoinTuple]:
        """Fetch reverse mappings for the included pairs and join exactly."""
        kept = [estimator.results[index] for index in sorted(included)]
        left_wanted: list[tuple[int, int]] = []
        right_wanted: list[tuple[int, int]] = []
        for result in kept:
            for position in result.common_positions:
                left_wanted.append((result.left_bucket, position))
                right_wanted.append((result.right_bucket, position))
        left_rows = cache.fetch(estimator.signatures[0], _dedupe(left_wanted))
        right_rows = cache.fetch(estimator.signatures[1], _dedupe(right_wanted))

        tuples: dict[tuple[str, str], JoinTuple] = {}
        for result in kept:
            self._join_pair(result, left_rows, right_rows, query, tuples)
        return sorted(tuples.values(), key=JoinTuple.sort_key)

    def _join_pair(
        self,
        result: EstimatedResult,
        left_rows: dict[tuple[int, int], list[ScoredRow]],
        right_rows: dict[tuple[int, int], list[ScoredRow]],
        query: RankJoinQuery,
        out: dict[tuple[str, str], JoinTuple],
    ) -> None:
        for position in result.common_positions:
            lefts = left_rows.get((result.left_bucket, position), ())
            rights = right_rows.get((result.right_bucket, position), ())
            for left in lefts:
                for right in rights:
                    if left.join_value != right.join_value:
                        continue  # Bloom false positive eliminated here
                    key = (left.row_key, right.row_key)
                    if key in out:
                        continue
                    out[key] = JoinTuple(
                        keys=key,
                        join_value=left.join_value,
                        score=query.function(left.score, right.score),
                        scores=(left.score, right.score),
                    )


def _dedupe(pairs: "list[tuple[int, int]]") -> list[tuple[int, int]]:
    return sorted(set(pairs))
