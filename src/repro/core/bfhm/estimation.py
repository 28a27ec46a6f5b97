"""BFHM query phase 1: result-set estimation (Algorithms 6 and 7).

The coordinator fetches BFHM bucket rows for the two relations alternately,
in decreasing score order.  Every newly fetched bucket is "joined" against
all previously fetched buckets of the other relation: bitwise-AND of the
filters, α-compensated cardinality from the counter products, and min/max
join scores from the buckets' actual min/max run through the aggregate
function.  Estimation stops when the termination test says no unexamined
bucket combination can beat the k-th estimated result.

Two termination policies are provided (the paper's running example mixes
bounds; see DESIGN.md):

* ``CONSERVATIVE`` (default) — the gate is the k-th tuple of the estimate
  expanded in descending *min-score* order; nothing reachable above that
  guaranteed floor remains, so phase 1 alone can never drop a result.
* ``AGGRESSIVE`` — the paper's narrative bound (descending *max-score*
  order); terminates earlier, relying on the §5.3 recall-repair loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial

from repro.cluster import executor
from repro.common.functions import AggregateFunction
from repro.common.serialization import decode_float, decode_str
from repro.core.bfhm.blobcache import decode_cached
from repro.core.bfhm.bucket import (
    Q_BLOB,
    Q_COUNT,
    Q_MAX,
    Q_MIN,
    BFHMBucketData,
    BFHMMeta,
    blob_row_key,
)
from repro.core.bfhm.updates import BFHMUpdateManager
from repro.core.indexes import BFHM_TABLE
from repro.errors import IndexError_
from repro.platform import Platform
from repro.store.client import Get

SCORE_EPSILON = 1e-12

class TerminationPolicy(enum.Enum):
    """Which bound of the k-th estimated result gates phase-1 termination."""

    CONSERVATIVE = "conservative"
    AGGRESSIVE = "aggressive"


@dataclass
class EstimatedResult:
    """One bucket-pair join estimate (a row of Fig. 6(c))."""

    left_bucket: int
    right_bucket: int
    common_positions: list[int]
    cardinality: float
    min_score: float
    max_score: float


@dataclass
class _FetchedBucket:
    data: BFHMBucketData

    @property
    def bucket(self) -> int:
        return self.data.bucket


class BFHMEstimator:
    """Resumable phase-1 state: fetched buckets + estimated results."""

    def __init__(
        self,
        platform: Platform,
        signatures: tuple[str, str],
        metas: tuple[BFHMMeta, BFHMMeta],
        function: AggregateFunction,
        policy: TerminationPolicy = TerminationPolicy.CONSERVATIVE,
        update_manager: "BFHMUpdateManager | None" = None,
    ) -> None:
        self.platform = platform
        self.signatures = signatures
        self.metas = metas
        self.function = function
        self.policy = policy
        self.update_manager = update_manager
        self.fetched: tuple[list[_FetchedBucket], list[_FetchedBucket]] = ([], [])
        self._next_index = [0, 0]
        self.results: list[EstimatedResult] = []
        self.total_cardinality = 0.0
        self.buckets_fetched = 0

    # -- bucket fetching ------------------------------------------------------

    def side_exhausted(self, side: int) -> bool:
        return self._next_index[side] >= len(self.metas[side].buckets)

    def next_bucket_number(self, side: int) -> "int | None":
        if self.side_exhausted(side):
            return None
        return self.metas[side].buckets[self._next_index[side]]

    def _get_blob_row(self, side: int, bucket_number: int):
        """The metered point get of one bucket's blob row (the part of a
        fetch that runs inside a scatter task on multi-server topologies)."""
        signature = self.signatures[side]
        htable = self.platform.store.table(BFHM_TABLE)
        return htable.get(Get(blob_row_key(bucket_number), families={signature}))

    def _ingest_bucket(
        self, side: int, bucket_number: int, row
    ) -> _FetchedBucket:
        """Decode a fetched blob row (charging coordinator CPU) and fold
        it into the estimator state — always on the coordinator thread."""
        signature = self.signatures[side]
        if self.update_manager is not None:
            data = self.update_manager.decode_with_replay(
                signature, bucket_number, row
            )
        else:
            data = decode_plain_bucket_row(signature, bucket_number, row)
        # Golomb-decoding the blob costs coordinator CPU proportional to
        # the bucket's population (§5.1's compression/processing trade-off)
        model = self.platform.ctx.cost_model
        self.platform.metrics.advance_time(
            model.cpu_time(max(0, data.count)) * model.blob_decode_cpu_factor
        )
        self.buckets_fetched += 1
        fetched = _FetchedBucket(data)
        self.fetched[side].append(fetched)
        return fetched

    # -- bucket joins (Algorithm 7) ---------------------------------------------

    def _bucket_join(
        self, left: BFHMBucketData, right: BFHMBucketData
    ) -> "EstimatedResult | None":
        common = left.filter.intersect_positions(right.filter)
        if not common:
            return None
        cardinality = left.filter.join_cardinality(right.filter)
        return EstimatedResult(
            left_bucket=left.bucket,
            right_bucket=right.bucket,
            common_positions=common,
            cardinality=cardinality,
            min_score=self.function(left.min_score, right.min_score),
            max_score=self.function(left.max_score, right.max_score),
        )

    def _join_new_bucket(self, side: int, fetched: _FetchedBucket) -> None:
        for other in self.fetched[1 - side]:
            if side == 0:
                estimate = self._bucket_join(fetched.data, other.data)
            else:
                estimate = self._bucket_join(other.data, fetched.data)
            if estimate is None:
                continue
            self.results.append(estimate)
            self.total_cardinality += max(1.0, estimate.cardinality)

    def advance_round(self, sides: "list[int]") -> bool:
        """Fetch the next bucket of every side in ``sides`` as one
        scatter/gather round, then join them in side order.

        Every bucket fetch is such a round.  A one-side round, or any round
        on a single-server topology, runs inline with its charges
        untouched.  Both sides' bucket rows share the row key
        ``blob_row_key(n)`` (one family per relation), so fetches at the
        same depth usually co-locate on one server and degrade gracefully
        to a serial round; the overlap shows up when the sides' bucket
        lists diverge.  Blob decoding (coordinator CPU) stays on the
        calling thread either way.  Returns False when no side had a
        bucket left.
        """
        ctx = self.platform.ctx
        topology = ctx.topology
        table = self.platform.store.backing(BFHM_TABLE)
        plan: "list[tuple[int, int]]" = []
        for side in sides:
            bucket_number = self.next_bucket_number(side)
            if bucket_number is None:
                continue
            self._next_index[side] += 1
            plan.append((side, bucket_number))
        if not plan:
            return False
        tasks = [
            executor.ScatterTask(
                topology.server_for(table.region_for(blob_row_key(bucket_number))),
                partial(self._get_blob_row, side, bucket_number),
            )
            for side, bucket_number in plan
        ]
        rows = executor.scatter_gather(ctx, tasks, label="bfhm_bucket")
        for (side, bucket_number), row in zip(plan, rows):
            fetched = self._ingest_bucket(side, bucket_number, row)
            self._join_new_bucket(side, fetched)
        return True

    # -- termination (Algorithm 6) -------------------------------------------------

    def kth_bound(self, k: int, policy: "TerminationPolicy | None" = None) -> "float | None":
        """The k-th estimated result's gating score, or None if fewer than
        ``k`` estimated tuples exist."""
        policy = policy or self.policy
        if policy is TerminationPolicy.CONSERVATIVE:
            ordered = sorted(self.results, key=lambda r: -r.min_score)
            attribute = "min_score"
        else:
            ordered = sorted(self.results, key=lambda r: -r.max_score)
            attribute = "max_score"
        accumulated = 0
        for result in ordered:
            accumulated += max(1, round(result.cardinality))
            if accumulated >= k:
                return getattr(result, attribute)
        return None

    def unexamined_best(self, side: int) -> "float | None":
        """Best join score any combination involving ``side``'s next
        unfetched bucket could reach (bucket *boundaries*, as in the
        paper's worked example), or None if the side is exhausted."""
        next_bucket = self.next_bucket_number(side)
        if next_bucket is None:
            return None
        other_meta = self.metas[1 - side]
        if not other_meta.buckets:
            return None
        my_upper = self.metas[side].upper_boundary(next_bucket)
        other_upper = other_meta.upper_boundary(other_meta.buckets[0])
        if side == 0:
            return self.function(my_upper, other_upper)
        return self.function(other_upper, my_upper)

    def should_terminate(self, k: int) -> bool:
        """The Alg. 6 BFHMTerminationTest."""
        if self.total_cardinality < k:
            return False
        bound = self.kth_bound(k)
        if bound is None:
            return False
        for side in (0, 1):
            best = self.unexamined_best(side)
            if best is not None and best > bound + SCORE_EPSILON:
                return False
        return True

    @property
    def _sides_per_step(self) -> int:
        """Sides fetched per round: both at once on a multi-server
        topology (the fan-out trade of bandwidth for latency), else one,
        strictly alternating."""
        return 2 if self.platform.ctx.topology.parallel else 1

    def run_until(self, k: int) -> None:
        """Fetch bucket rounds until the termination test fires or both
        relations are exhausted.  A round takes the next
        ``_sides_per_step`` non-exhausted sides in alternation, so a
        multi-server run may fetch up to one bucket more than serial
        alternation before the test fires."""
        per_step = self._sides_per_step
        side = 0
        while not self.should_terminate(k):
            sides = [
                s for s in (side, 1 - side) if not self.side_exhausted(s)
            ][:per_step]
            if not sides:
                break
            self.advance_round(sides)
            side = 1 - sides[-1]

    def fetch(self, sides: "list[int]") -> bool:
        """Recall-repair hook: unconditionally pull one more bucket from
        every side in ``sides``, ``_sides_per_step`` sides per round.
        False if no side had a bucket left."""
        per_step = self._sides_per_step
        progressed = False
        for start in range(0, len(sides), per_step):
            step = sides[start : start + per_step]
            progressed = self.advance_round(step) or progressed
        return progressed


def decode_plain_bucket_row(signature: str, bucket: int, row) -> BFHMBucketData:
    """Decode a blob row that carries no pending update records."""
    blob_raw = row.value(signature, Q_BLOB)
    min_raw = row.value(signature, Q_MIN)
    max_raw = row.value(signature, Q_MAX)
    count_raw = row.value(signature, Q_COUNT)
    if blob_raw is None or min_raw is None or max_raw is None:
        raise IndexError_(f"BFHM bucket row B{bucket:05d} missing for {signature}")
    return BFHMBucketData(
        bucket=bucket,
        min_score=decode_float(min_raw),
        max_score=decode_float(max_raw),
        count=int(decode_str(count_raw)) if count_raw is not None else 0,
        filter=decode_cached(blob_raw),
    )
