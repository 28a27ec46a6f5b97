"""The cost-based query planner.

The paper's bottom line (§7.3) is that *no single rank-join algorithm wins
everywhere*: BFHM dominates on network traffic and dollar cost, ISL-style
coordinator algorithms win at small budgets and low-latency clusters, and
the MapReduce approaches only pay off at bulk scale.  The planner makes
that trade-off explicit: given a parsed :class:`RankJoinQuery` it

1. pulls :class:`~repro.query.statistics.TableStatistics` for every
   input relation from the engine's :class:`StatisticsCatalog`,
2. prices every candidate algorithm with the platform's calibrated
   :class:`~repro.cluster.costmodel.CostModel` — RPC rounds and scan depth
   for coordinator algorithms (ISL), bucket and reverse-mapping probes for
   BFHM, job startup plus scan volume for the MapReduce family; arity >= 3
   queries price the three n-way strategies instead (n-way ISL, the
   index-free HRJN pipeline, and the left-deep BFHM cascade with per-stage
   components) — and
3. returns a :class:`QueryPlan` ranking the candidates by the requested
   objective (simulated time, network bytes, or KV read units).

Estimates mirror the exact charging rules of the simulated substrate
(:mod:`repro.store.client`, :mod:`repro.store.scanner`,
:mod:`repro.mapreduce.runtime`), so a plan's numbers are directly
comparable to the metrics a real execution reports.  Planning itself is
side-effect free: it reads cached statistics (gathered unmetered) and
never touches the metered data path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

from repro.cluster.costmodel import CostModel
from repro.common.functions import AggregateFunction
from repro.errors import PlanningError
from repro.query.spec import RankJoinQuery
from repro.query.statistics import (
    BFHMIndexStatistics,
    JoinProfile,
    StatisticsCatalog,
    TableStatistics,
    expected_bucket_join,
    partition_universe,
)
from repro.sketches.histogram import bucket_bounds, score_to_bucket

# request/response framing constants of the metered store client — imported
# so planner estimates can never drift from the substrate's actual charges
# (the store layer does not import the query layer, so no cycle)
from repro.store.client import REQUEST_OVERHEAD_BYTES
from repro.store.scanner import RESPONSE_OVERHEAD_BYTES

#: objectives a plan can rank by -> CostEstimate attribute
OBJECTIVES = {
    "time": "time_s",
    "network": "network_bytes",
    "dollars": "kv_reads",
    "kv_reads": "kv_reads",
}

#: the HRJN depth replay terminates on an *expected* result count, but the
#: execution terminates on the realized one, whose median sits ~1/3 below
#: the mean (Poisson median ≈ μ - 1/3) — without the correction the replay
#: systematically overshoots the k=1 cells by one alternation round
HRJN_MEDIAN_CORRECTION = 0.35

#: relative downward bias of the expected-results model itself: smearing
#: bucket-pair matches over score spans loses the within-bucket rank/score
#: coupling, measured at ~0.8% of k on the Fig. 7/8 grid (one alternation
#: round at k=50); folded into the termination target as a multiplier.
#: Calibration windows from the grid's μ trajectories (see ISSUE 4):
#: k=1 needs corr ≥ 0.348, k=10 needs corr < 0.439, k=50 needs
#: corr ≥ 0.727 — satisfied by 0.35 + 0.008·k
HRJN_RESULTS_BIAS = 0.008


def _remote_fraction(workers: int) -> float:
    """Fraction of shuffle records crossing node boundaries (uniform
    partitioning over W workers leaves 1/W local)."""
    return 1.0 - 1.0 / max(1, workers)


# ---------------------------------------------------------------------------
# cost accumulation
# ---------------------------------------------------------------------------


class CostLedger:
    """Accumulates priced operations the way the simulator meters them.

    Each charging method mirrors one primitive of the metered substrate, so
    estimator code reads like the execution path it models.
    """

    def __init__(self, model: CostModel) -> None:
        self.model = model
        self.time_s = 0.0
        self.network_bytes = 0.0
        self.kv_reads = 0.0
        self.breakdown: dict[str, float] = {}

    def add_time(self, component: str, seconds: float) -> None:
        self.time_s += seconds
        self.breakdown[component] = self.breakdown.get(component, 0.0) + seconds

    def rpc(self, component: str, request_bytes: float, response_bytes: float) -> None:
        """One coordinator<->server round trip (SimContext.charge_rpc)."""
        total = request_bytes + response_bytes
        self.network_bytes += total
        self.add_time(
            component, self.model.rpc_latency_s + self.model.network_time(int(total))
        )

    def server_read(
        self, component: str, num_bytes: float, cells: float, sequential: bool = True
    ) -> None:
        """Server-side read (SimContext.charge_server_read)."""
        self.kv_reads += cells
        seek = 0.0 if sequential else self.model.disk_random_read_s
        self.add_time(
            component,
            seek
            + self.model.disk_seq_time(int(num_bytes))
            + self.model.cpu_time(int(cells)),
        )

    def server_read_rows(
        self, component: str, rows: float, num_bytes: float, cells: float
    ) -> None:
        """``rows`` independent random point reads (one seek *each*)."""
        self.kv_reads += cells
        self.add_time(
            component,
            rows * self.model.disk_random_read_s
            + self.model.disk_seq_time(int(num_bytes))
            + self.model.cpu_time(int(cells)),
        )

    def network(self, component: str, num_bytes: float) -> None:
        self.network_bytes += num_bytes
        self.add_time(component, self.model.network_time(int(num_bytes)))

    def cpu(self, component: str, tuples: float, factor: float = 1.0) -> None:
        self.add_time(component, self.model.cpu_time(int(tuples)) * factor)

    def merge(
        self,
        other: "CostLedger",
        time_scale: float = 1.0,
        component: "str | None" = None,
    ) -> None:
        """Fold another ledger into this one.

        ``time_scale`` scales only the *time* — counters (bytes, KV reads)
        are always absorbed in full, matching the scatter/gather round
        model of :mod:`repro.cluster.executor` where fan-out hides latency
        behind the slowest server's queue but never removes work.
        ``component`` relabels the folded time under one component name
        (e.g. ``"fanout overlap"``) instead of keeping per-component lines.
        """
        self.network_bytes += other.network_bytes
        self.kv_reads += other.kv_reads
        for name, seconds in other.breakdown.items():
            self.add_time(component or name, seconds * time_scale)


@dataclass
class CostEstimate:
    """One candidate algorithm's predicted bill."""

    algorithm: str
    time_s: float
    network_bytes: int
    kv_reads: int
    dollars: float
    breakdown: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @classmethod
    def from_ledger(
        cls, algorithm: str, ledger: CostLedger, notes: "list[str] | None" = None
    ) -> "CostEstimate":
        return cls(
            algorithm=algorithm,
            time_s=ledger.time_s,
            network_bytes=int(ledger.network_bytes),
            kv_reads=int(ledger.kv_reads),
            dollars=ledger.model.dollars(int(ledger.kv_reads)),
            breakdown=dict(ledger.breakdown),
            notes=list(notes or []),
        )


@dataclass
class QueryPlan:
    """Ranked per-algorithm cost estimates for one query."""

    query: RankJoinQuery
    objective: str
    estimates: list[CostEstimate]
    statistics: "dict[str, TableStatistics]"
    #: per-input-table index lag at the time this plan was (re)surfaced:
    #: ``table -> pending mutation records`` (empty when every input is
    #: synchronously maintained or fully drained).  Refreshed on every
    #: ``QueryPlanner.plan`` call, including plan-cache hits, so EXPLAIN
    #: always reports the *current* staleness, not the staleness at
    #: pricing time.
    staleness: "dict[str, int]" = field(default_factory=dict)
    #: region servers the executor's scatter/gather layer can fan out
    #: across (1 = single-server topology, serial RPC rounds)
    servers: int = 1

    @property
    def chosen(self) -> str:
        """Lowercase name of the winning algorithm."""
        return self.estimates[0].algorithm.lower()

    @property
    def best(self) -> CostEstimate:
        return self.estimates[0]

    def estimate(self, algorithm: str) -> CostEstimate:
        for est in self.estimates:
            if est.algorithm.lower() == algorithm.lower():
                return est
        raise PlanningError(f"no estimate for algorithm {algorithm!r}")

    def render(self) -> str:
        """Human-readable EXPLAIN table (see repro.query.explain)."""
        from repro.query.explain import render_plan

        return render_plan(self)

    def __str__(self) -> str:  # pragma: no cover - delegates to render()
        return self.render()


# ---------------------------------------------------------------------------
# score-distribution profiles
# ---------------------------------------------------------------------------


@dataclass
class _SideProfile:
    """Per-relation score distribution in planner-friendly form.

    Buckets are listed in descending-score order (= ascending bucket
    number), keeping only non-empty buckets — the same shape a built BFHM
    index exposes through its meta row.
    """

    buckets: list[int]
    counts: list[float]
    mins: list[float]
    maxes: list[float]
    num_buckets: int
    total: float
    #: the base relation's 2-D join profile (``None`` for the estimated
    #: profile of a cascade intermediate, which has no statistics)
    join_profile: "JoinProfile | None" = None

    @cached_property
    def join_vectors(self) -> "list[dict[int, tuple[float, float]] | None] | None":
        """Per-bucket join-partition vectors on this profile's grid (see
        :func:`_project_join_vectors`) — projected on first use, then kept
        for as long as the profile is."""
        return _project_join_vectors(self, self.join_profile)

    @cached_property
    def join_distincts(self) -> "list[float | None] | None":
        """Distinct join values per bucket — what the bucket's BFHM filter
        actually hashes (duplicate values set the same bit)."""
        if self.join_vectors is None:
            return None
        return [
            None if vector is None
            else sum(distinct for _, distinct in vector.values())
            for vector in self.join_vectors
        ]

    @property
    def top_score(self) -> float:
        return self.maxes[0] if self.maxes else 0.0

    def score_at_depth(self, consumed: float) -> float:
        """Score at a scan depth of ``consumed`` tuples (interpolated
        linearly within the frontier bucket)."""
        remaining = consumed
        for index in range(len(self.counts)):
            count = self.counts[index]
            if remaining <= count:
                fraction = remaining / count if count else 1.0
                return self.maxes[index] - fraction * (
                    self.maxes[index] - self.mins[index]
                )
            remaining -= count
        return self.mins[-1]

    def seen_at_depth(self, consumed: float) -> "list[float]":
        """Per-bucket tuple counts consumed by a depth-``consumed`` scan
        (truncated after the frontier bucket)."""
        remaining = consumed
        seen = []
        for count in self.counts:
            take = min(count, remaining)
            seen.append(take)
            remaining -= take
            if remaining <= 0:
                break
        return seen

    def upper_boundary(self, index: int) -> float:
        """Theoretical upper boundary of the bucket (what BFHM termination
        reasons with — it cannot see actual per-bucket maxima upfront)."""
        return bucket_bounds(self.buckets[index], self.num_buckets)[1]


def _profile(stats: TableStatistics) -> _SideProfile:
    histogram = stats.histogram
    buckets, counts, mins, maxes = [], [], [], []
    for b in histogram.non_empty_buckets():
        info = histogram.bucket(b)
        buckets.append(b)
        counts.append(float(info.count))
        mins.append(info.min_score)
        maxes.append(info.max_score)
    return _SideProfile(
        buckets=buckets,
        counts=counts,
        mins=mins,
        maxes=maxes,
        num_buckets=histogram.num_buckets,
        total=float(sum(counts)),
        join_profile=stats.join_profile,
    )


def _bfhm_profile(
    stats: TableStatistics, num_buckets: int, histogram_profile: _SideProfile
) -> _SideProfile:
    """Per-bucket profile the BFHM cascade replay runs against.

    When the BFHM index is built, the profile is read straight off its
    blob rows (actual per-bucket counts and min/max scores, in the exact
    bucket order the coordinator fetches); otherwise ``histogram_profile``
    (the relation's :func:`_profile`) is re-projected onto the index's
    bucket grid so bucket numbers line up with stored blob rows.
    """
    index = stats.index("bfhm")
    if isinstance(index, BFHMIndexStatistics) and index.built:
        rows = index.bucket_profile()
        if rows:
            return _SideProfile(
                buckets=[bucket for bucket, _, _, _ in rows],
                counts=[float(count) for _, count, _, _ in rows],
                mins=[low for _, _, low, _ in rows],
                maxes=[high for _, _, _, high in rows],
                num_buckets=index.num_buckets,
                total=float(sum(count for _, count, _, _ in rows)),
                join_profile=stats.join_profile,
            )
    return _reproject_profile(histogram_profile, num_buckets)


def _join_selectivity(left: TableStatistics, right: TableStatistics) -> float:
    """P(two random tuples join) under the uniform join-key assumption.

    For foreign-key joins (the paper's Q1/Q2 shape) this reduces to
    ``1/|referenced keys|``, making the expected join size
    ``n_l * n_r / max(d_l, d_r)`` — exact under uniformity.
    """
    return 1.0 / max(left.distinct_join_values, right.distinct_join_values, 1)


def _project_join_vectors(
    profile: _SideProfile, join_profile: "JoinProfile | None"
) -> "list[dict[int, tuple[float, float]] | None] | None":
    """Per-sim-bucket join-partition vectors, re-gridded and re-scaled.

    The join profile lives on the statistics histogram grid; the cascade
    replay runs on the (possibly different) index bucket grid.  Each stats
    cell is assigned to the sim bucket its midpoint lands in, then every
    vector is scaled so its tuple count matches the sim profile's bucket
    count (actual blob-row counts beat histogram counts).
    """
    if join_profile is None:
        return None
    index_of = {bucket: i for i, bucket in enumerate(profile.buckets)}
    raw: "list[dict[int, list[float]] | None]" = [None] * len(profile.buckets)
    for stats_bucket, vector in join_profile.cells.items():
        position = (stats_bucket + 0.5) / join_profile.num_buckets
        target = min(profile.num_buckets - 1, int(position * profile.num_buckets))
        sim_index = index_of.get(target)
        if sim_index is None:
            continue
        accumulated = raw[sim_index]
        if accumulated is None:
            accumulated = raw[sim_index] = {}
        for partition, (count, distinct) in vector.items():
            cell = accumulated.setdefault(partition, [0.0, 0.0])
            cell[0] += count
            cell[1] += distinct
    out: "list[dict[int, tuple[float, float]] | None]" = []
    # the vectors outlive the plan that asked for them, and at about one
    # join value per partition a few (count, distinct) cells repeat
    # thousands of times: keep one tuple of each
    cells: "dict[tuple[float, float], tuple[float, float]]" = {}
    for i, accumulated in enumerate(raw):
        if accumulated is None:
            out.append(None)
            continue
        total = sum(count for count, _ in accumulated.values())
        factor = profile.counts[i] / total if total else 1.0
        out.append({
            partition: cells.setdefault(
                cell := (count * factor, distinct * factor), cell
            )
            for partition, (count, distinct) in accumulated.items()
        })
    return out


#: slot of a memo table nothing was computed for yet (``None`` is an answer)
_UNSET = object()


class _JoinMatcher:
    """Per-bucket-pair join expectations from two relations' 2-D profiles,
    on the bucket grid of the two side profiles it is built from.

    Callable ``(left sim bucket index, right sim bucket index) ->
    (expected tuple-pair matches, expected distinct shared join values)``,
    or ``None`` when no profile covers a bucket (caller falls back to the
    uniform-selectivity estimate).

    Every answer is a pure function of the two relations' statistics and
    the grid — never of ``k`` or the scoring function — while one replay
    asks for the same bucket pair once per simulated batch and the next
    plan asks for them all again.  So answers are computed on first
    request and kept in a flat table sized by the grid, one slot per
    bucket pair.  Beside it the matcher keeps what the replays derive from
    the grid and a scoring function — the HRJN depth replay's
    :class:`_HRJNTable` and the BFHM cascade replay's bucket-pair joins —
    one per :attr:`~repro.common.functions.AggregateFunction.value_key`,
    filled as replays ask.  The planner holds a matcher exactly as long as
    both side profiles (see :class:`_PreparedSide`), and the tables with it.
    """

    def __init__(self, profiles: "tuple[_SideProfile, _SideProfile]") -> None:
        self.profiles = profiles
        left, right = profiles
        self._width = len(right.counts)
        #: (replay, function key, ...) -> table of :meth:`hrjn_table` or
        #: :meth:`pair_table`
        self._tables: dict = {}
        #: per side and bucket, the :class:`_UnionChain` of
        #: :meth:`union_join` — allocated on first use, which the
        #: index-scan grid never makes
        self._unions: "tuple[list, list] | None" = None
        if left.join_profile is None or right.join_profile is None:
            self._vectors = None
            return
        self._vectors = (left.join_vectors, right.join_vectors)
        self._distincts = (left.join_distincts, right.join_distincts)
        self._universe = partition_universe(left.join_profile, right.join_profile)
        self._pairs: list = [_UNSET] * (len(left.counts) * self._width)

    def __call__(
        self, left_index: int, right_index: int
    ) -> "tuple[float, float] | None":
        if self._vectors is None:
            return None
        slot = left_index * self._width + right_index
        found = self._pairs[slot]
        if found is _UNSET:
            left_vector = self._vectors[0][left_index]
            right_vector = self._vectors[1][right_index]
            if left_vector is None or right_vector is None:
                found = None
            else:
                found = expected_bucket_join(
                    self._universe, left_vector, right_vector
                )
            self._pairs[slot] = found
        return found

    def hrjn_table(self, function: AggregateFunction) -> "_HRJNTable":
        """The HRJN depth replay's score table under ``function``."""
        key = ("hrjn", function.value_key)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _HRJNTable(self.profiles, function)
        return table

    def pair_table(
        self, function: AggregateFunction, m_bits: int, selectivity: float
    ) -> list:
        """Slots ``left * width + right`` of the BFHM cascade replay's
        bucket-pair joins (a :class:`_SimPair`, or ``None`` for a pair
        whose filters do not intersect) under ``function``, filters of
        ``m_bits`` bits and the uniform ``selectivity`` a pair falls back
        on where no join profile covers it."""
        key = ("bfhm", function.value_key, m_bits, selectivity)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = (
                [_UNSET] * (len(self.profiles[0].counts) * self._width)
            )
        return table

    def bucket_distinct(self, side: int, index: int) -> "float | None":
        """Distinct join values in one sim bucket — what its BFHM filter
        actually hashes (duplicate values set the same bit)."""
        if self._vectors is None:
            return None
        return self._distincts[side][index]

    def union_join(
        self, side: int, index: int, partners: "list[int]"
    ) -> "tuple[float, float] | None":
        """Expected ``(shared join values, partner-union distincts)`` of one
        bucket against the *union* of its partner buckets.

        A join value matching rows in several partner buckets intersects
        at one filter position, and its reverse row is fetched once — so
        reverse-row traffic must be counted against the union, not summed
        per pair.

        Both sides fetch buckets in order, so the partner lists asked of
        one bucket are mostly prefixes of one growing list: the matcher
        keeps that list per bucket (its :class:`_UnionChain`), answers a
        prefix from it and extends it when a list extends it.  Any other
        list starts a new chain.
        """
        if self._vectors is None:
            return None
        mine = self._vectors[side][index]
        if mine is None:
            return None
        if self._unions is None:
            self._unions = (
                [None] * len(self._vectors[0]), [None] * len(self._vectors[1])
            )
        chains = self._unions[side]
        chain = chains[index]
        count = len(partners)
        if chain is not None:
            known = len(chain.partners)
            if count <= known and partners == chain.partners[:count]:
                found = chain.answers[count]
                if found is _UNSET:
                    # a length the chain grew past in one step
                    found = chain.answers[count] = self._extend(
                        side, mine, _UnionChain(), partners
                    )
                return found
            if count > known and partners[:known] == chain.partners:
                return self._extend(side, mine, chain, partners)
        chain = chains[index] = _UnionChain()
        return self._extend(side, mine, chain, partners)

    def _extend(
        self,
        side: int,
        mine: "dict[int, tuple[float, float]]",
        chain: "_UnionChain",
        partners: "list[int]",
    ) -> "tuple[float, float] | None":
        """Grow ``chain`` to ``partners`` (which extend its list) and
        answer for them.

        Partner order is summation order: the union adds up exactly as
        the caller listed the partners, grown or not.  While each new
        partner brings only partitions the union lacks, the entries
        already summed keep their terms and order, so the sums carry on
        from the last answer, and every length passed on the way gets its
        answer too; after the first partner that adds to a partition
        already there, one pass over the whole union answers at the end.
        """
        answers = chain.answers
        answer = answers[-1]
        start = len(chain.partners)
        chain.partners = partners[:]
        answers.extend([_UNSET] * (len(partners) - start))
        if answer is None:
            # a partner without a vector is in every extension
            answers[-1] = None
            return None
        others = self._vectors[1 - side]
        union = dict(zip(chain.partitions, chain.distincts))
        carried = True
        for length in range(start + 1, len(partners) + 1):
            vector = others[partners[length - 1]]
            if vector is None:
                answers[-1] = None
                return None
            if carried and union.keys().isdisjoint(vector):
                # a new partition's sum would be 0.0 + distinct: the
                # same float, so the partner's own value goes in
                added = [
                    (partition, distinct)
                    for partition, (_, distinct) in vector.items()
                ]
                union.update(added)
                answer = answers[length] = self._union_total(
                    mine, added, *answer
                )
            else:
                carried = False
                get = union.get
                for partition, (_, distinct) in vector.items():
                    union[partition] = get(partition, 0.0) + distinct
        if not carried:
            answer = answers[-1] = self._union_total(mine, union.items())
        chain.keep(union)
        return answer

    def _union_total(
        self,
        mine: "dict[int, tuple[float, float]]",
        union: "Iterable[tuple[int, float]]",
        shared: float = 0.0,
        union_total: float = 0.0,
    ) -> "tuple[float, float]":
        """``(shared, union_total)`` summed on from the given values over
        the union's ``(partition, distinct)`` entries, in order."""
        size_of, cell_of = self._universe.get, mine.get
        for partition, distinct in union:
            size = size_of(partition, 1)
            if distinct > size:
                distinct = size
            union_total += distinct
            my_cell = cell_of(partition)
            if my_cell is not None:
                shared += my_cell[1] * distinct / size
        return shared, union_total


class _UnionChain:
    """The longest partner list one bucket was asked about, the union of
    those partners' distinct counts — as two lists in the order the
    partitions were first seen, smaller than the dict they rebuild — and
    the answer at every prefix length known (``answers[0]`` is the empty
    list's)."""

    __slots__ = ("partners", "partitions", "distincts", "answers")

    def __init__(self) -> None:
        self.partners: "list[int]" = []
        self.partitions: "list[int]" = []
        self.distincts: "list[float]" = []
        self.answers: list = [(0.0, 0.0)]

    def keep(self, union: "dict[int, float]") -> None:
        self.partitions = list(union)
        self.distincts = list(union.values())


class _HRJNTable:
    """What the HRJN depth replay computes from the grid and the scoring
    function alone, over one matcher's grid: per left bucket ``i`` the row
    gate ``f(max_i, top_r)``, the lower corner of the bucket fully seen,
    and per right bucket ``j`` the pair's ``f(max_i, max_j)``, the pair's
    fully-seen lower corner ``f(corner_i, corner_j)`` and the matcher's
    answer for the pair.  A row is made the first time the replay reaches
    its bucket and grows to the right as the scan does; only frontier
    buckets — partly seen — are priced afresh by the replay.
    """

    __slots__ = ("function", "profiles", "corners", "_rows")

    def __init__(
        self,
        profiles: "tuple[_SideProfile, _SideProfile]",
        function: AggregateFunction,
    ) -> None:
        self.function = function
        self.profiles = profiles
        right = profiles[1]
        #: lower corner of every right bucket fully seen
        self.corners = [
            _seen_floor(right.maxes[j], right.mins[j], 1.0)
            for j in range(len(right.counts))
        ]
        self._rows: "list[tuple | None]" = [None] * len(profiles[0].counts)

    def row(
        self, index: int, width: int, matcher: "_JoinMatcher | None"
    ) -> "tuple[float, float, list[float], list[float], list]":
        """``(gate, corner, highs, corner scores, matcher answers)`` of left
        bucket ``index``, the lists covering at least ``width`` buckets.
        (The matcher is passed in, not kept: it holds the table.)"""
        left, right = self.profiles
        row = self._rows[index]
        high = left.maxes[index]
        if row is None:
            row = self._rows[index] = (
                self.function(high, right.top_score),
                _seen_floor(high, left.mins[index], 1.0),
                [], [], [],
            )
        highs, lows, matched = row[2], row[3], row[4]
        if len(highs) < width:
            function, corner = self.function, row[1]
            for j in range(len(highs), width):
                highs.append(function(high, right.maxes[j]))
                lows.append(function(corner, self.corners[j]))
                matched.append(matcher(index, j) if matcher is not None else None)
        return row


def _seen_floor(high: float, low: float, fraction: float) -> float:
    """Lowest score of the seen part of a bucket scanned ``fraction``
    deep: it occupies the upper score range ``[high - fraction * width,
    high]``."""
    return high - fraction * (high - low)


def _relation_key(stats: TableStatistics) -> "tuple[str, str]":
    """What the statistics catalog files a relation's statistics under."""
    return (stats.binding.signature, stats.binding.family)


class _PreparedSide:
    """What the planner derives from one relation's statistics alone.

    Score profiles, and the join vectors and per-bucket distincts that
    hang off them, depend on the :class:`TableStatistics` record and a
    bucket grid — never on ``k`` or the scoring function — so they are
    built on first use and serve every later plan over the same record.
    ``TableStatistics`` is frozen and the catalog replaces it wholesale on
    invalidation, so *the same record* means the same object: the planner
    keeps one prepared side per relation and replaces it the first time
    the catalog hands it a different statistics object.
    """

    def __init__(self, stats: TableStatistics, table_version: int) -> None:
        self.stats = stats
        #: the catalog's version of the base table when this side was
        #: built; once it moves, the catalog hands out other statistics
        self.table_version = table_version
        self._profiles: "dict[int | None, _SideProfile]" = {}
        self._shapes: "dict[int, tuple[dict, tuple[float, float]]]" = {}

    def profile(self, num_buckets: "int | None" = None) -> _SideProfile:
        """The relation's score profile: on the statistics histogram's own
        grid by default (what the index-scan replays read), else what a
        BFHM index of ``num_buckets`` buckets exposes
        (:func:`_bfhm_profile`)."""
        found = self._profiles.get(num_buckets)
        if found is None:
            if num_buckets is None:
                found = _profile(self.stats)
            else:
                found = _bfhm_profile(self.stats, num_buckets, self.profile())
            self._profiles[num_buckets] = found
        return found

    def bfhm_shape(self, m_bits: int) -> "tuple[dict, tuple[float, float]]":
        """(blob facts, reverse-row shape) of the relation under a BFHM
        index of ``m_bits`` filter bits — the per-side pricing facts of
        :meth:`QueryPlanner._price_bfhm_rounds`."""
        found = self._shapes.get(m_bits)
        if found is not None:
            return found
        stats = self.stats
        index = stats.index("bfhm")
        blobs = (
            index.bucket_blobs
            if isinstance(index, BFHMIndexStatistics) and index.built
            else {}
        )
        if (
            isinstance(index, BFHMIndexStatistics)
            and index.built
            and index.reverse_rows
        ):
            shape = (index.avg_reverse_row_bytes, index.avg_reverse_row_cells)
        else:
            row_cells = max(1.0, stats.row_count / max(1, m_bits))
            shape = (
                row_cells * (
                    8.0 + 16.0 + len(stats.binding.signature)
                    + stats.avg_row_key_bytes
                    + stats.avg_join_value_bytes + 8.0
                ),
                row_cells,
            )
        found = self._shapes[m_bits] = (blobs, shape)
        return found


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------


class QueryPlanner:
    """Prices candidate algorithms for rank-join queries.

    The planner needs the engine only to read each algorithm's *tuning*
    (ISL batch sizing, BFHM bucket count, DRJN partitions), never to run
    anything.
    """

    #: bound on remembered plans (plans are cheap to rebuild; the cache
    #: only exists so repeated identical queries skip the simulations)
    PLAN_CACHE_LIMIT = 64

    def __init__(
        self,
        engine,
        catalog: "StatisticsCatalog | None" = None,
        plan_cache=None,
    ) -> None:
        self.engine = engine
        self.platform = engine.platform
        self.catalog = catalog or StatisticsCatalog(engine.platform)
        self._plan_cache: "dict[tuple, tuple[int, QueryPlan]]" = {}
        #: prepared inputs, per relation (catalog key) and per relation
        #: pair + BFHM grid — private to this planner, so unlocked: the
        #: serving layer gives every worker thread its own planner
        self._sides: "dict[tuple[str, str], _PreparedSide]" = {}
        self._matchers: "dict[tuple, _JoinMatcher]" = {}
        #: the catalog version :meth:`_release_replaced` last pruned at
        self._released_at = self.catalog.version
        #: optional shared cache (duck-typed; see
        #: :class:`repro.serving.plan_cache.PlanCache`).  When set it
        #: replaces the private dict above, so many planners — one per
        #: serving worker thread — share one LRU with per-table version
        #: validation and hit/miss accounting.
        self.plan_cache = plan_cache

    # -- public API ---------------------------------------------------------

    def plan(
        self,
        query: RankJoinQuery,
        objective: str = "time",
        algorithms: "list[str] | None" = None,
    ) -> QueryPlan:
        """Price ``algorithms`` (default: every registered factory of the
        query's arity) for ``query``, ranked by ``objective``."""
        if objective not in OBJECTIVES:
            raise PlanningError(
                f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
            )
        from repro.query.engine import (
            ALGORITHM_FACTORIES,
            MULTIWAY_ALIASES,
            MULTIWAY_FACTORIES,
        )

        multiway = query.arity > 2
        registry = MULTIWAY_FACTORIES if multiway else ALGORITHM_FACTORIES
        names = [name.lower() for name in (algorithms or sorted(registry))]
        if multiway:
            # accept the display names EXPLAIN itself emits (BFHM-cascade,
            # ISL-nway, ...) wherever the registry keys are accepted
            names = [MULTIWAY_ALIASES.get(name, name) for name in names]
        # a plan is a pure function of (query, statistics, objective);
        # cache it until the statistics catalog sees an invalidation
        key = (
            query.inputs, query.k, query.function.value_key,
            objective, tuple(names),
        )
        self._release_replaced()
        shared = self.plan_cache
        versions = None
        if shared is not None:
            hit = shared.lookup(key)
            if hit is not None:
                hit.staleness = self._staleness_for(query)
                return hit
            # snapshot the versions *before* gathering statistics: if
            # maintenance lands mid-planning, store() sees the mismatch
            # and refuses to cache the possibly-stale plan
            versions = shared.versions_for(
                tuple(binding.table for binding in query.inputs)
            )
        else:
            # popped either way: a hit goes back in as the newest entry,
            # a stale plan is replaced below
            cached = self._plan_cache.pop(key, None)
            if cached is not None and cached[0] == self.catalog.version:
                self._plan_cache[key] = cached
                cached[1].staleness = self._staleness_for(query)
                return cached[1]
        stats = self.catalog.stats_for_query(query)

        estimates = []
        prefix = "_estimate_multi_" if multiway else "_estimate_"
        for name in names:
            estimator = getattr(self, f"{prefix}{name}", None)
            if estimator is None:
                raise PlanningError(f"no cost model for algorithm {name!r}")
            if multiway:
                estimates.append(estimator(query, stats))
            else:
                estimates.append(estimator(query, stats[0], stats[1]))

        attribute = OBJECTIVES[objective]
        estimates.sort(key=lambda est: (getattr(est, attribute), est.algorithm))
        if multiway:
            labels = {
                f"input{i} ({binding.display_name})": side
                for i, (binding, side) in enumerate(zip(query.inputs, stats))
            }
        else:
            labels = {"left": stats[0], "right": stats[1]}
        plan = QueryPlan(
            query=query,
            objective=objective,
            estimates=estimates,
            statistics=labels,
            staleness=self._staleness_for(query),
            servers=self._fanout,
        )
        if shared is not None:
            shared.store(key, plan, versions)
        else:
            if len(self._plan_cache) >= self.PLAN_CACHE_LIMIT:
                # the first key is the one planned or hit longest ago
                del self._plan_cache[next(iter(self._plan_cache))]
            self._plan_cache[key] = (self.catalog.version, plan)
        return plan

    # -- shared helpers ---------------------------------------------------------

    def _staleness_for(self, query: RankJoinQuery) -> "dict[str, int]":
        """Per-input index lag from the catalog's async-maintenance hookup
        (empty when no pipeline is attached or everything is drained).
        The plan prices *applied* state; this annotates how far behind the
        mutation log that state is."""
        lagging: "dict[str, int]" = {}
        for binding in query.inputs:
            staleness = self.catalog.staleness_for(binding.table)
            if staleness is not None and staleness.pending > 0:
                lagging[binding.table] = staleness.pending
        return lagging

    def _release_replaced(self) -> None:
        """Drop what an invalidation has made useless before the next
        gather, rather than holding it beside the new statistics until a
        plan first reads those: the prepared sides of relations whose
        table version moved (with every matcher over them, function
        tables included), and the private cached plans of older catalog
        versions, which can never hit again."""
        catalog = self.catalog
        version = catalog.version
        if version == self._released_at:
            return
        self._released_at = version
        self._plan_cache = {
            key: entry
            for key, entry in self._plan_cache.items()
            if entry[0] == version
        }
        moved = {
            key
            for key, side in self._sides.items()
            if catalog.table_version(side.stats.binding.table) != side.table_version
        }
        if moved:
            self._sides = {
                key: side for key, side in self._sides.items() if key not in moved
            }
            self._matchers = {
                pair: matcher
                for pair, matcher in self._matchers.items()
                if moved.isdisjoint(pair[:2])
            }

    def _side(self, stats: TableStatistics) -> _PreparedSide:
        """The prepared inputs of ``stats`` — built the first time the
        catalog hands out this statistics object, dropped (with every
        matcher over them) the first time it hands out another one for
        the same relation."""
        key = _relation_key(stats)
        side = self._sides.get(key)
        if side is None or side.stats is not stats:
            self._matchers = {
                pair: matcher
                for pair, matcher in self._matchers.items()
                if key not in pair[:2]
            }
            side = self._sides[key] = _PreparedSide(
                stats, self.catalog.table_version(stats.binding.table)
            )
        return side

    def _matcher(
        self,
        left: TableStatistics,
        right: TableStatistics,
        num_buckets: "int | None" = None,
    ) -> _JoinMatcher:
        """The memoised join matcher of a relation pair, on the grid of
        their :meth:`_PreparedSide.profile` for ``num_buckets``."""
        sides = (self._side(left), self._side(right))
        key = (_relation_key(left), _relation_key(right), num_buckets)
        matcher = self._matchers.get(key)
        if matcher is None:
            matcher = self._matchers[key] = _JoinMatcher(
                (sides[0].profile(num_buckets), sides[1].profile(num_buckets))
            )
        return matcher

    def _ledger(self) -> CostLedger:
        return CostLedger(self.platform.cost_model)

    @property
    def _parallelism(self) -> int:
        model = self.platform.cost_model
        return max(1, model.worker_nodes * model.task_slots_per_node)

    @property
    def _fanout(self) -> int:
        """Region servers the scatter/gather executor can fan out across
        (1 on the default single-server topology = serial RPC rounds)."""
        topology = self.platform.ctx.topology
        return topology.num_servers if topology.parallel else 1

    def _merge_scatter_sides(
        self,
        ledger: CostLedger,
        sides: "tuple[CostLedger, ...]",
        paired_rounds: int,
        fanout: int,
    ) -> None:
        """Fold per-side scratch ledgers priced as concurrent scatter
        streams (the executor's per-server queue model): the slowest side
        is charged in full, every other side keeps only its expected
        same-server queue-collision share ``1/fanout`` of its time (under
        the ``fanout overlap`` component), and each paired round pays the
        cross-server dispatch overhead weighted by the chance the round
        actually spans more than one server.  Counters are absorbed
        unchanged — fan-out hides latency, it does not remove work."""
        model = self.platform.cost_model
        ordered = sorted(sides, key=lambda side: side.time_s, reverse=True)
        ledger.merge(ordered[0])
        collision = 1.0 / fanout
        for other in ordered[1:]:
            ledger.merge(other, time_scale=collision, component="fanout overlap")
        span = min(len(sides), fanout)
        ledger.add_time(
            "fanout dispatch",
            model.fanout_dispatch_s
            * paired_rounds
            * (span - 1)
            * (1.0 - collision),
        )

    def _index_note(self, stats: TableStatistics, kind: str) -> str:
        if stats.index(kind).built:
            return f"{kind} index built for {stats.binding.display_name}"
        return (
            f"{kind} index NOT built for {stats.binding.display_name} "
            "(built on first use, outside the query bill)"
        )

    # -- ISL ---------------------------------------------------------------------

    def _isl_batch_rows(
        self, stats: TableStatistics, instance=None
    ) -> int:
        """One side's scanner batch under ``instance``'s tuning (default:
        the two-way ISL algorithm; the n-way estimator passes its n-way
        instance so both paths price the same batch-sizing rule)."""
        from repro.core.isl import MIN_BATCH_ROWS

        if instance is None:
            instance = self.engine.algorithm("isl")
        if instance.batch_rows is not None:
            return instance.batch_rows
        return max(MIN_BATCH_ROWS, int(stats.row_count * instance.batch_fraction))

    def _estimate_isl(
        self, query: RankJoinQuery, left: TableStatistics, right: TableStatistics
    ) -> CostEstimate:
        """Coordinator HRJN over score-sorted index scans (§4.2, Alg. 4).

        Simulates the alternating batched pulls at histogram granularity:
        after each batch the HRJN threshold is recomputed from the current
        scan depths and the expected number of joined results above it is
        read off the bucket-pair grid.  Costs follow the scanner's metering:
        one RPC per batch, one KV read + sequential disk + CPU per cell.
        """
        ledger = self._ledger()
        sel = _join_selectivity(left, right)
        profiles = (self._side(left).profile(), self._side(right).profile())
        batch = (self._isl_batch_rows(left), self._isl_batch_rows(right))

        # the 2-D join profiles expose score-correlated join skew (high
        # scorers joining fewer partners than average), which a uniform
        # selectivity misses — the source of the LC Q1 depth underestimate
        matcher = self._matcher(left, right)
        consumed, batches = _simulate_hrjn(
            profiles, query.function, query.k, batch, sel, matcher
        )
        cell_bytes = []
        for side, stats in enumerate((left, right)):
            index = stats.index("isl")
            if index.built and index.cells:
                cell_bytes.append(index.avg_cell_bytes)
            else:
                # Cell layout: 8B header + score row key (16 hex chars) +
                # family (signature) + qualifier (base row key) + join value
                cell_bytes.append(
                    8.0
                    + 16.0
                    + len(stats.binding.signature)
                    + stats.avg_row_key_bytes
                    + stats.avg_join_value_bytes
                )

        # no overshoot term: the operator checks termination per tuple
        # while draining a batch, so the scanner never ships beyond the
        # batches the simulation already counts
        fanout = self._fanout
        side_ledgers = (self._ledger(), self._ledger()) if fanout > 1 else None
        for side in (0, 1):
            target = ledger if side_ledgers is None else side_ledgers[side]
            rounds = batches[side]
            tuples = consumed[side]
            scanned_bytes = tuples * cell_bytes[side]
            target.server_read("index scan", scanned_bytes, tuples, sequential=True)
            for _ in range(rounds):
                target.rpc(
                    "batch RPCs",
                    RESPONSE_OVERHEAD_BYTES,
                    RESPONSE_OVERHEAD_BYTES + scanned_bytes / max(1, rounds),
                )

        notes = [
            f"scan depth ≈ {int(consumed[0])}+{int(consumed[1])} tuples in "
            f"{batches[0]}+{batches[1]} batches of {batch[0]}/{batch[1]} rows",
            self._index_note(left, "isl"),
        ]
        if side_ledgers is not None:
            # both cursors' batch pulls go out as one scatter round; the
            # faster side's queue time hides behind the slower side's
            self._merge_scatter_sides(
                ledger, side_ledgers, min(batches[0], batches[1]), fanout
            )
            notes.append(
                f"fan-out: paired batch rounds scattered over {fanout} "
                "region servers"
            )
        return CostEstimate.from_ledger("ISL", ledger, notes)

    # -- BFHM ---------------------------------------------------------------------

    def _bfhm_config_from(
        self, builder, stats: "tuple[TableStatistics, ...]"
    ) -> "tuple[int, int, float]":
        """(num_buckets, m_bits, fp_rate) a BFHM built by ``builder`` over
        ``stats`` would use — built-index facts win, then the builder's
        planned size, then the §7.1 heaviest-bucket formula."""
        from repro.sketches.bloom import single_hash_bit_count

        num_buckets = builder.num_buckets
        fp_rate = builder.fp_rate
        m_bits = builder.m_bits
        for side_stats in stats:
            index = side_stats.index("bfhm")
            if isinstance(index, BFHMIndexStatistics) and index.built:
                return (index.num_buckets, index.m_bits, fp_rate)
        if m_bits is None:
            heaviest = 1
            for side_stats in stats:
                counts = side_stats.bucket_counts()
                heaviest = max(heaviest, max(counts) if counts else 1)
            m_bits = single_hash_bit_count(heaviest, fp_rate)
        return (num_buckets, m_bits, fp_rate)

    def _bfhm_config(
        self, left: TableStatistics, right: TableStatistics
    ) -> "tuple[int, int, float]":
        """(num_buckets, m_bits, fp_rate) the two-way BFHM would use."""
        return self._bfhm_config_from(
            self.engine.algorithm("bfhm").builder, (left, right)
        )

    def _estimate_bfhm(
        self, query: RankJoinQuery, left: TableStatistics, right: TableStatistics
    ) -> CostEstimate:
        """Two-phase statistical rank join (§5.2–5.3).

        The whole execution loop is re-enacted symbolically against the
        per-bucket score/cardinality profiles (the built index's actual
        blob facts when available, re-projected statistics histograms
        otherwise): phase 1's alternating bucket fetches, phase 2's purge
        and re-admission, and the §5.3 repair rounds — see
        :class:`_BFHMCascadeReplay`.  Every replayed round is priced under
        its own cost component, so EXPLAIN shows the repair cascade's
        incremental bucket and reverse-row traffic line by line.
        """
        ledger = self._ledger()
        sel = _join_selectivity(left, right)
        num_buckets, m_bits, _ = self._bfhm_config(left, right)
        profiles = (
            self._side(left).profile(num_buckets),
            self._side(right).profile(num_buckets),
        )
        matcher = self._matcher(left, right, num_buckets)

        sim = _simulate_bfhm(
            profiles, query.function, query.k, m_bits, sel, matcher
        )

        # meta row read: one random point get per relation
        meta_bytes = 60.0 + num_buckets * 2.0
        for _ in (left, right):
            ledger.server_read("meta read", meta_bytes, 3, sequential=False)
            ledger.rpc("meta read", REQUEST_OVERHEAD_BYTES, meta_bytes)

        # per-side pricing facts shared by all rounds
        blobs_by_side = []
        reverse_shape = []
        for stats in (left, right):
            blobs, shape = self._side(stats).bfhm_shape(m_bits)
            blobs_by_side.append(blobs)
            reverse_shape.append(shape)

        # replayed rounds: round 0 is phase 1 + the initial phase 2; every
        # later round charges its incremental §5.3 repair traffic under a
        # per-round component, visible in the EXPLAIN breakdown
        self._price_bfhm_rounds(
            ledger, sim, profiles, blobs_by_side, reverse_shape, m_bits
        )

        notes = [
            f"est. {sim.buckets_fetched} bucket fetches, "
            f"{int(sim.reverse_rows[0] + sim.reverse_rows[1])} reverse rows",
        ]
        if sim.repair_rounds:
            repair_rows = sum(
                entry.reverse_rows[0] + entry.reverse_rows[1]
                for entry in sim.rounds
                if entry.round > 0
            )
            repair_buckets = sum(
                len(entry.fetched[0]) + len(entry.fetched[1])
                for entry in sim.rounds
                if entry.round > 0
            )
            notes.append(
                f"repair cascade: {sim.repair_rounds} rounds re-admitting "
                f"{int(round(sim.readmitted_pairs))} pairs "
                f"(+{repair_buckets} buckets, +{int(round(repair_rows))} "
                "reverse rows)"
            )
        if self._fanout > 1:
            notes.append(
                f"fan-out: reverse multi-gets scattered over up to "
                f"{self._fanout} region servers (bucket pairs co-locate)"
            )
        notes.append(self._index_note(left, "bfhm"))
        return CostEstimate.from_ledger("BFHM", ledger, notes)

    def _price_bfhm_rounds(
        self,
        ledger: CostLedger,
        sim: "_BFHMSimulation",
        profiles: "tuple[_SideProfile, _SideProfile]",
        blobs_by_side: "list[dict]",
        reverse_shape: "list[tuple[float, float]]",
        m_bits: int,
        prefix: str = "",
    ) -> None:
        """Charge one replayed BFHM run's rounds onto ``ledger``.

        ``prefix`` namespaces the cost components (the cascade estimator
        labels each stage ``s1 ``, ``s2 ``, ... so EXPLAIN shows per-stage
        cost lines)."""
        model = self.platform.cost_model
        for entry in sim.rounds:
            if entry.round == 0:
                bucket_label, decode_label, reverse_label = (
                    f"{prefix}bucket fetch", f"{prefix}blob decode",
                    f"{prefix}reverse fetch",
                )
            else:
                bucket_label = decode_label = reverse_label = (
                    f"{prefix}repair r{entry.round}"
                )
            for side in (0, 1):
                profile = profiles[side]
                blobs = blobs_by_side[side]
                for bucket_index in entry.fetched[side]:
                    count = profile.counts[bucket_index]
                    bucket_number = profile.buckets[bucket_index]
                    if bucket_number in blobs:
                        actual_count, blob_bytes = blobs[bucket_number]
                        count = float(actual_count)
                    else:
                        blob_bytes = _golomb_blob_bytes(count, m_bits)
                    ledger.server_read(bucket_label, blob_bytes, 4, sequential=False)
                    ledger.rpc(bucket_label, REQUEST_OVERHEAD_BYTES, blob_bytes)
                    ledger.cpu(decode_label, count, model.blob_decode_cpu_factor)

                # reverse-mapping point reads (multi-gets batched per
                # region).  On multi-server topologies the multi-get
                # scatters per region server, so its queue time divides by
                # the servers it spans; bucket fetches above stay serial —
                # both sides' blob rows share row keys and co-locate.
                rows = entry.reverse_rows[side]
                if not rows:
                    continue
                row_bytes, row_cells = reverse_shape[side]
                total_bytes = rows * row_bytes
                rpcs = min(int(math.ceil(rows)), model.worker_nodes)
                spread = min(self._fanout, rpcs)
                target = ledger if spread <= 1 else CostLedger(model)
                target.server_read_rows(
                    reverse_label, rows, total_bytes, rows * row_cells
                )
                for _ in range(rpcs):
                    target.rpc(
                        reverse_label,
                        REQUEST_OVERHEAD_BYTES,
                        total_bytes / max(1, rpcs),
                    )
                if target is not ledger:
                    ledger.merge(target, time_scale=1.0 / spread)
                    ledger.add_time(
                        f"{prefix}fanout dispatch",
                        model.fanout_dispatch_s * (spread - 1),
                    )

    # -- IJLMR -------------------------------------------------------------------

    def _estimate_ijlmr(
        self, query: RankJoinQuery, left: TableStatistics, right: TableStatistics
    ) -> CostEstimate:
        """Single MapReduce job over the co-located inverted index (§4.1).

        Mappers scan the *whole* index (that is IJLMR's dollar-cost story),
        form per-join-value Cartesian products, and ship only local top-k
        lists; a sole reducer merges them.
        """
        ledger = self._ledger()
        model = self.platform.cost_model
        sel = _join_selectivity(left, right)
        join_size = sel * left.row_count * right.row_count

        index_cells = 0.0
        index_bytes = 0.0
        for stats in (left, right):
            index = stats.index("ijlmr")
            if index.built:
                index_cells += index.cells
                index_bytes += index.total_bytes
            else:
                cell = (
                    8.0 + stats.avg_join_value_bytes + len(stats.binding.signature)
                    + stats.avg_row_key_bytes + 8.0
                )
                index_cells += stats.row_count
                index_bytes += stats.row_count * cell

        ledger.add_time("job startup", model.mr_job_startup_s)
        ledger.server_read("index scan", index_bytes, index_cells, sequential=True)
        # undo the serial charge and re-apply it as a parallel map wave:
        # tasks run on the region's node, slots-wide
        wave = (
            model.disk_seq_time(int(index_bytes))
            + model.cpu_time(int(index_cells + join_size))
        ) / self._parallelism
        serial = model.disk_seq_time(int(index_bytes)) + model.cpu_time(int(index_cells))
        ledger.add_time("index scan", wave - serial)
        ledger.add_time("task startup", model.mr_task_startup_s * 2)

        # local top-k lists to the master (one list per mapper ≈ per worker)
        tuple_bytes = (
            left.avg_row_key_bytes + right.avg_row_key_bytes
            + left.avg_join_value_bytes + 3 * 8.0
        )
        mappers = max(1, model.worker_nodes)
        ledger.network("top-k collect", mappers * query.k * tuple_bytes)
        ledger.cpu("reducer merge", mappers * query.k)

        notes = [
            f"full index scan: {int(index_cells)} cells, "
            f"{int(join_size)} joined pairs",
            self._index_note(left, "ijlmr"),
        ]
        return CostEstimate.from_ledger("IJLMR", ledger, notes)

    # -- MapReduce baselines --------------------------------------------------------

    def _scan_both_tables(
        self, ledger: CostLedger, component: str,
        left: TableStatistics, right: TableStatistics, emitted_per_record: float,
    ) -> None:
        """Price a map wave that scans both base tables in full."""
        model = self.platform.cost_model
        total_bytes = left.total_row_bytes + right.total_row_bytes
        total_cells = left.total_cells + right.total_cells
        records = left.row_count + right.row_count
        ledger.server_read(component, total_bytes, total_cells, sequential=True)
        wave = (
            model.disk_seq_time(int(total_bytes))
            + model.cpu_time(int(records * (1 + emitted_per_record)))
        ) / self._parallelism
        serial = model.disk_seq_time(int(total_bytes)) + model.cpu_time(int(total_cells))
        ledger.add_time(component, wave - serial)
        ledger.add_time("task startup", model.mr_task_startup_s)

    def _estimate_hive(
        self, query: RankJoinQuery, left: TableStatistics, right: TableStatistics
    ) -> CostEstimate:
        """Hive baseline (§3.1): two full MapReduce jobs plus a fetch stage,
        with **no early projection** — complete rows are shuffled and the
        full join result is materialized to HDFS twice (join + sort)."""
        ledger = self._ledger()
        model = self.platform.cost_model
        sel = _join_selectivity(left, right)
        join_size = sel * left.row_count * right.row_count
        joined_row_bytes = left.avg_row_bytes + right.avg_row_bytes

        # job 1: join — full scan, full-row shuffle, join materialized
        ledger.add_time("job startup", model.mr_job_startup_s)
        self._scan_both_tables(ledger, "base scan", left, right, 1.0)
        shuffle = (left.total_row_bytes + right.total_row_bytes) * _remote_fraction(
            model.worker_nodes
        )
        ledger.network("shuffle", shuffle)
        ledger.cpu("reduce join", (left.row_count + right.row_count + join_size))
        ledger.network(
            "HDFS write", join_size * joined_row_bytes * (model.hdfs_replication - 1)
        )
        ledger.add_time("task startup", model.mr_task_startup_s)

        # job 2: sort — rescan the join result, shuffle, rewrite sorted
        ledger.add_time("job startup", model.mr_job_startup_s)
        join_bytes = join_size * joined_row_bytes
        ledger.add_time("sort scan", model.disk_seq_time(int(join_bytes)) / self._parallelism)
        ledger.cpu("sort scan", join_size / self._parallelism)
        ledger.network("shuffle", join_bytes * _remote_fraction(model.worker_nodes))
        ledger.cpu("reduce sort", join_size)
        ledger.network("HDFS write", join_bytes * (model.hdfs_replication - 1))
        ledger.add_time("task startup", model.mr_task_startup_s * 2)

        # final non-MR stage: fetch the k best from the sorted file
        ledger.network("fetch stage", query.k * joined_row_bytes)

        notes = [
            f"materializes {int(join_size)} joined rows twice (no projection)",
            "index-free: scans base tables in full",
        ]
        return CostEstimate.from_ledger("HIVE", ledger, notes)

    def _estimate_pig(
        self, query: RankJoinQuery, left: TableStatistics, right: TableStatistics
    ) -> CostEstimate:
        """Pig baseline (§3.1): three jobs (join, sampling, top-k) with
        early projection and in-task combiner top-k lists."""
        ledger = self._ledger()
        model = self.platform.cost_model
        sel = _join_selectivity(left, right)
        join_size = sel * left.row_count * right.row_count
        # early projection: row key + join value + score survive
        projected_bytes = (
            (left.avg_row_key_bytes + right.avg_row_key_bytes) / 2
            + left.avg_join_value_bytes + 8.0
        )
        joined_projected = (
            left.avg_row_key_bytes + right.avg_row_key_bytes
            + left.avg_join_value_bytes + 2 * 8.0
        )

        # job 1: join with early projection
        ledger.add_time("job startup", model.mr_job_startup_s)
        self._scan_both_tables(ledger, "base scan", left, right, 1.0)
        records = left.row_count + right.row_count
        ledger.network(
            "shuffle", records * projected_bytes * _remote_fraction(model.worker_nodes)
        )
        ledger.cpu("reduce join", records + join_size)
        ledger.network(
            "HDFS write", join_size * joined_projected * (model.hdfs_replication - 1)
        )
        ledger.add_time("task startup", model.mr_task_startup_s * 2)

        # job 2: sampling for the balanced ORDER BY partitioner
        ledger.add_time("job startup", model.mr_job_startup_s)
        join_bytes = join_size * joined_projected
        ledger.add_time("sample scan", model.disk_seq_time(int(join_bytes)) / self._parallelism)
        ledger.cpu("sample scan", join_size / self._parallelism)
        ledger.add_time("task startup", model.mr_task_startup_s)

        # job 3: top-k with combiner lists
        ledger.add_time("job startup", model.mr_job_startup_s)
        ledger.add_time("topk scan", model.disk_seq_time(int(join_bytes)) / self._parallelism)
        ledger.cpu("topk scan", join_size / self._parallelism)
        mappers = max(1, model.worker_nodes)
        ledger.network("topk shuffle", mappers * query.k * joined_projected)
        ledger.cpu("reduce topk", mappers * query.k)
        ledger.add_time("task startup", model.mr_task_startup_s * 2)

        notes = [
            f"early projection keeps shuffle to {int(projected_bytes)} B/record",
            "index-free: scans base tables in full",
        ]
        return CostEstimate.from_ledger("PIG", ledger, notes)

    # -- DRJN ---------------------------------------------------------------------

    def _estimate_drjn(
        self, query: RankJoinQuery, left: TableStatistics, right: TableStatistics
    ) -> CostEstimate:
        """DRJN (§7.1 adaptation): matrix-row gets to estimate the stopping
        score, then per-round map-only pull jobs that scan the base tables
        in full behind a server-side score filter."""
        ledger = self._ledger()
        model = self.platform.cost_model
        sel = _join_selectivity(left, right)
        instance = self.engine.algorithm("drjn")
        num_partitions = instance.num_join_partitions
        num_score_buckets = instance.num_score_buckets

        # walk matrix rows (one per score bucket, both relations) until the
        # estimated join cardinality covers k
        left_counts = _rebucket(self._side(left).profile(), num_score_buckets)
        right_counts = _rebucket(self._side(right).profile(), num_score_buckets)
        cum_l = cum_r = 0.0
        rows_fetched = 0
        boundary_bucket = num_score_buckets - 1
        for b in range(num_score_buckets):
            cum_l += left_counts[b]
            cum_r += right_counts[b]
            rows_fetched += 2
            if sel * cum_l * cum_r >= query.k and cum_l and cum_r:
                boundary_bucket = b
                break
        row_bytes = num_partitions * (8.0 + 20.0)
        for _ in range(rows_fetched):
            ledger.server_read("matrix fetch", row_bytes, num_partitions,
                               sequential=False)
            ledger.rpc("matrix fetch", REQUEST_OVERHEAD_BYTES, row_bytes)

        # one pull round: map-only job scanning both base tables with the
        # score-band filter, writing survivors to a temp table (no WAL)
        ledger.add_time("job startup", model.mr_job_startup_s)
        self._scan_both_tables(ledger, "pull scan", left, right, 0.2)
        pulled = cum_l + cum_r
        pulled_bytes = pulled * (
            left.avg_row_key_bytes + left.avg_join_value_bytes + 16.0
        )
        ledger.network("temp write", pulled_bytes)

        # coordinator scans the temp table and joins
        ledger.server_read("temp scan", pulled_bytes, pulled, sequential=True)
        batches = max(1, int(math.ceil(pulled / 100.0)))
        for _ in range(batches):
            ledger.rpc(
                "temp scan",
                RESPONSE_OVERHEAD_BYTES,
                RESPONSE_OVERHEAD_BYTES + pulled_bytes / batches,
            )
        ledger.cpu("coordinator join", pulled + sel * cum_l * cum_r)

        notes = [
            f"{rows_fetched} matrix rows to bucket {boundary_bucket}, "
            f"then pulls ≈ {int(pulled)} tuples via full scans",
            self._index_note(left, "drjn"),
        ]
        return CostEstimate.from_ledger("DRJN", ledger, notes)

    # -- n-way strategies (arity >= 3) -------------------------------------------

    #: bucket resolution of the n-dimensional HRJN depth simulation — the
    #: expected-results integral enumerates bucket combinations, so the
    #: grid is coarsened to keep the sweep polynomial at any arity
    MULTIWAY_SIM_BUCKETS = 20

    def _multi_selectivity(self, stats: "list[TableStatistics]") -> float:
        """P(n random tuples share one join value) under uniform keys."""
        universe = max(max(s.distinct_join_values for s in stats), 1)
        return (1.0 / universe) ** (len(stats) - 1)

    def _estimate_multi_isl(
        self, query: RankJoinQuery, stats: "list[TableStatistics]"
    ) -> CostEstimate:
        """N-way ISL: round-robin batched index scans feeding the n-way
        HRJN operator (§3 applied to §4.2) — the 2-way depth simulation
        generalized to n alternating cursors."""
        ledger = self._ledger()
        sel = self._multi_selectivity(stats)
        profiles = [
            _reproject_profile(
                self._side(s).profile(), self.MULTIWAY_SIM_BUCKETS
            )
            for s in stats
        ]
        instance = self.engine.multiway_algorithm("isl")
        batch = [self._isl_batch_rows(s, instance) for s in stats]

        consumed, batches = _simulate_hrjn_n(
            profiles, query.function, query.k, batch, sel
        )
        fanout = self._fanout
        side_ledgers = (
            tuple(self._ledger() for _ in stats) if fanout > 1 else None
        )
        for side, side_stats in enumerate(stats):
            target = ledger if side_ledgers is None else side_ledgers[side]
            index = side_stats.index("isl")
            if index.built and index.cells:
                cell_bytes = index.avg_cell_bytes
            else:
                cell_bytes = (
                    8.0 + 16.0 + len(side_stats.binding.signature)
                    + side_stats.avg_row_key_bytes
                    + side_stats.avg_join_value_bytes
                )
            rounds = batches[side]
            tuples = consumed[side]
            scanned_bytes = tuples * cell_bytes
            target.server_read("index scan", scanned_bytes, tuples, sequential=True)
            for _ in range(rounds):
                target.rpc(
                    "batch RPCs",
                    RESPONSE_OVERHEAD_BYTES,
                    RESPONSE_OVERHEAD_BYTES + scanned_bytes / max(1, rounds),
                )
        if side_ledgers is not None:
            self._merge_scatter_sides(ledger, side_ledgers, min(batches), fanout)

        notes = [
            "scan depth ≈ "
            + "+".join(str(int(value)) for value in consumed)
            + " tuples in "
            + "+".join(str(value) for value in batches)
            + " batches",
            self._index_note(stats[0], "isl"),
        ]
        if side_ledgers is not None:
            notes.append(
                f"fan-out: batch rounds scattered over {fanout} region servers"
            )
        return CostEstimate.from_ledger("ISL", ledger, notes)

    def _estimate_multi_hrjn(
        self, query: RankJoinQuery, stats: "list[TableStatistics]"
    ) -> CostEstimate:
        """Index-free n-way HRJN pipeline: stream every base relation to
        the coordinator (batched scans), sort, join in memory."""
        from repro.core.hrjn import MultiWayHRJNRankJoin

        ledger = self._ledger()
        caching = MultiWayHRJNRankJoin.SCAN_CACHING
        total_rows = 0.0
        for side_stats in stats:
            ledger.server_read(
                "base scan", side_stats.total_row_bytes,
                side_stats.total_cells, sequential=True,
            )
            rounds = max(1, int(math.ceil(side_stats.row_count / caching)))
            for _ in range(rounds):
                ledger.rpc(
                    "scan RPCs",
                    RESPONSE_OVERHEAD_BYTES,
                    RESPONSE_OVERHEAD_BYTES
                    + side_stats.total_row_bytes / rounds,
                )
            total_rows += side_stats.row_count
        ledger.cpu("coordinator sort", total_rows)

        notes = [
            f"index-free: streams {int(total_rows)} rows of "
            f"{len(stats)} relations to the coordinator"
        ]
        return CostEstimate.from_ledger("HRJN", ledger, notes)

    def _bfhm_config_multi(
        self, stats: "list[TableStatistics]"
    ) -> "tuple[int, int, float]":
        """(num_buckets, m_bits, fp_rate) the cascade's stages would use."""
        return self._bfhm_config_from(
            self.engine.multiway_algorithm("bfhm")._binary.builder,
            tuple(stats),
        )

    def _estimate_multi_bfhm(
        self, query: RankJoinQuery, stats: "list[TableStatistics]"
    ) -> CostEstimate:
        """Left-deep BFHM cascade: one binary cascade replay per stage,
        feeding each stage's expected top-k' forward as an estimated
        intermediate profile.  Every stage's traffic lands under ``sN``
        cost components, so EXPLAIN shows the cascade stage by stage."""
        from repro.core.bfhm.multi import stage_functions

        ledger = self._ledger()
        model = self.platform.cost_model
        stages = stage_functions(query.function, query.arity)
        num_buckets, m_bits, _ = self._bfhm_config_multi(stats)
        k = query.k

        left_profile = self._side(stats[0]).profile(num_buckets)
        left_shape: "tuple[dict, tuple[float, float]]" = self._side(
            stats[0]
        ).bfhm_shape(m_bits)
        d_left = stats[0].distinct_join_values
        intermediate_key_bytes = stats[0].avg_row_key_bytes
        stage_notes = []

        for stage, (function, upper) in enumerate(stages):
            prefix = f"s{stage + 1} "
            right_stats = stats[stage + 1]
            right_profile = self._side(right_stats).profile(num_buckets)
            profiles = (left_profile, right_profile)
            matcher = (
                self._matcher(stats[0], right_stats, num_buckets)
                if stage == 0
                else None
            )
            sel = 1.0 / max(d_left, right_stats.distinct_join_values, 1)

            # meta row reads of the stage's two sides
            meta_bytes = 60.0 + num_buckets * 2.0
            for _ in range(2):
                ledger.server_read(f"{prefix}meta read", meta_bytes, 3,
                                   sequential=False)
                ledger.rpc(f"{prefix}meta read", REQUEST_OVERHEAD_BYTES,
                           meta_bytes)

            replay = _BFHMCascadeReplay(
                profiles, function, k, m_bits, sel, matcher
            )
            sim = replay.run()
            right_shape = self._side(right_stats).bfhm_shape(m_bits)
            blobs_by_side = [left_shape[0], right_shape[0]]
            reverse_shape = [left_shape[1], right_shape[1]]
            self._price_bfhm_rounds(
                ledger, sim, profiles, blobs_by_side, reverse_shape, m_bits,
                prefix=prefix,
            )

            expected_results = sum(pair.true_weight for pair in replay.pairs)
            stage_notes.append(
                f"s{stage + 1}: {sim.buckets_fetched} buckets, "
                f"{int(sim.reverse_rows[0] + sim.reverse_rows[1])} reverse "
                f"rows, ≈{int(expected_results)} results"
            )

            if stage == len(stages) - 1:
                break

            # materialize the expected intermediate top-k' and build its
            # BFHM — billed to the query, unlike base index builds
            intermediate_key_bytes += 1.0 + right_stats.avg_row_key_bytes
            n_int = min(float(k), max(expected_results, 1.0))
            norm = upper if upper > 0 else 1.0
            left_profile = _intermediate_profile(
                replay.pairs, k, norm, num_buckets
            )
            row_bytes = (
                8.0 + intermediate_key_bytes
                + right_stats.avg_join_value_bytes + 8.0
            )
            payload = n_int * row_bytes
            build_prefix = f"s{stage + 2} "
            ledger.network(
                f"{build_prefix}temp write", payload * model.hdfs_replication
            )
            ledger.add_time(f"{build_prefix}temp write", model.rpc_latency_s)
            # index build: one map/reduce pass over the temp relation plus
            # the blob + reverse rows it writes back
            ledger.add_time(
                f"{build_prefix}index build",
                model.mr_job_startup_s + model.mr_task_startup_s,
            )
            ledger.server_read(
                f"{build_prefix}index build", payload, n_int, sequential=True
            )
            blob_count = max(1, len(left_profile.counts))
            index_bytes = (
                payload
                + blob_count * _golomb_blob_bytes(
                    n_int / blob_count, m_bits
                )
            )
            ledger.network(
                f"{build_prefix}index build",
                index_bytes * model.hdfs_replication,
            )
            row_cells = max(1.0, n_int / max(1, m_bits))
            left_shape = (
                {},
                (
                    row_cells * (8.0 + 16.0 + 24.0 + intermediate_key_bytes
                                 + right_stats.avg_join_value_bytes + 8.0),
                    row_cells,
                ),
            )
            d_left = int(min(
                max(d_left, 1),
                max(right_stats.distinct_join_values, 1),
                max(n_int, 1.0),
            ))

        notes = [
            f"left-deep cascade, {len(stages)} binary stages",
            *stage_notes,
            self._index_note(stats[0], "bfhm"),
        ]
        return CostEstimate.from_ledger("BFHM-cascade", ledger, notes)


# ---------------------------------------------------------------------------
# analytic simulations
# ---------------------------------------------------------------------------


def _simulate_hrjn(
    profiles: "tuple[_SideProfile, _SideProfile]",
    function: AggregateFunction,
    k: int,
    batch: "tuple[int, int]",
    selectivity: float,
    matcher: "_JoinMatcher | None" = None,
) -> "tuple[list[float], list[int]]":
    """Expected HRJN scan depth under alternating batched pulls.

    Returns ``(tuples consumed per side, batches per side)`` at the point
    the threshold test is expected to fire.  When a :class:`_JoinMatcher`
    is given, per-bucket-pair join expectations replace the uniform
    ``selectivity`` constant, so score-correlated join skew deepens (or
    shallows) the simulated scan exactly as it does the real one.
    """
    consumed = [0.0, 0.0]
    batches = [0, 0]
    totals = [profiles[0].total, profiles[1].total]
    if not totals[0] or not totals[1]:
        return consumed, batches

    def current_score(side: int) -> float:
        return profiles[side].score_at_depth(consumed[side])

    def seen_counts(side: int) -> "list[float]":
        return profiles[side].seen_at_depth(consumed[side])

    table = (
        matcher.hrjn_table(function) if matcher is not None
        else _HRJNTable(profiles, function)
    )
    left_profile, right_profile = profiles

    def results_above(threshold: float) -> float:
        """Expected joined results among seen tuples scoring >= threshold.

        Each seen bucket pair contributes its expected matches times the
        fraction of the pair's seen score span above the threshold — an
        all-or-nothing midpoint gate makes the expectation jump in coarse
        steps (staying exactly 0 for whole rounds at k=1), while the real
        operator's realized results arrive continuously.  Fully seen
        pairs read their scores off ``table``."""
        seen_l = seen_counts(0)
        seen_r = seen_counts(1)
        if not seen_l or not seen_r:
            return 0.0
        total = 0.0
        width = len(seen_r)
        corners = table.corners
        for i in range(len(seen_l)):
            if not seen_l[i]:
                continue
            gate, corner_l, highs, lows, matches_of = table.row(i, width, matcher)
            if gate < threshold:
                break  # deeper left buckets score even lower
            frac_l = seen_l[i] / left_profile.counts[i]
            lo_l = corner_l if frac_l == 1.0 else _seen_floor(
                left_profile.maxes[i], left_profile.mins[i], frac_l
            )
            for j in range(width):
                if not seen_r[j]:
                    continue
                hi = highs[j]
                if hi < threshold:
                    break  # descending scores: later right buckets fail too
                frac_r = seen_r[j] / right_profile.counts[j]
                if frac_r == 1.0:
                    lo = lows[j] if frac_l == 1.0 else function(lo_l, corners[j])
                else:
                    lo = function(lo_l, _seen_floor(
                        right_profile.maxes[j], right_profile.mins[j], frac_r
                    ))
                if lo >= threshold or hi <= lo:
                    above = 1.0
                else:
                    above = (hi - threshold) / (hi - lo)
                matched = matches_of[j]
                if matched is None:
                    matches = selectivity * seen_l[i] * seen_r[j]
                else:
                    # scale the full-bucket expectation by the fraction of
                    # each bucket actually seen at this scan depth
                    matches = matched[0] * frac_l * frac_r
                total += matches * above
        return total

    # execution branches on the REALIZED count of results above the
    # threshold reaching k; the replay tracks its expectation, whose
    # realized counterpart (Poisson-like) has median ≈ mean - 1/3, and the
    # expectation model itself runs ~1% of k low — so termination is where
    # the (bias-corrected) mean crosses k, not the raw mean
    target = max(
        k * (1.0 - HRJN_RESULTS_BIAS) - HRJN_MEDIAN_CORRECTION, 1e-9
    )
    side = 0
    while True:
        exhausted = [consumed[s] >= totals[s] for s in (0, 1)]
        if all(exhausted):
            break
        if exhausted[side]:
            side = 1 - side
        consumed[side] = min(totals[side], consumed[side] + batch[side])
        batches[side] += 1
        threshold = max(
            function(profiles[0].top_score, current_score(1)),
            function(current_score(0), profiles[1].top_score),
        )
        if results_above(threshold) >= target:
            break
        side = 1 - side
    return consumed, batches


def _simulate_hrjn_n(
    profiles: "list[_SideProfile]",
    function: AggregateFunction,
    k: int,
    batch: "list[int]",
    selectivity: float,
) -> "tuple[list[float], list[int]]":
    """Expected n-way HRJN scan depth under round-robin batched pulls.

    The 2-way simulation generalized: after each batch the generalized
    threshold ``S = max_i f(ŝ_1, ..., s̄_i, ..., ŝ_n)`` is recomputed and
    the expected number of joined combinations above it is read off the
    bucket grids (monotone pruning keeps the enumeration shallow).
    """
    n = len(profiles)
    consumed = [0.0] * n
    batches = [0] * n
    totals = [profile.total for profile in profiles]
    if any(total == 0 for total in totals):
        return consumed, batches

    def current_score(side: int) -> float:
        return profiles[side].score_at_depth(consumed[side])

    def seen_counts(side: int) -> "list[float]":
        return profiles[side].seen_at_depth(consumed[side])

    tops = [profile.top_score for profile in profiles]

    def results_above(threshold: float) -> float:
        """Expected joined combinations among seen tuples above the
        threshold — the 2-way span-smeared model in n dimensions: each
        bucket combination contributes the fraction of its seen score
        span above the threshold, not an all-or-nothing midpoint gate."""
        seen = [seen_counts(side) for side in range(n)]
        if any(not side_seen for side_seen in seen):
            return 0.0
        total = 0.0

        def recurse(
            side: int, his: "list[float]", los: "list[float]", product: float
        ) -> None:
            nonlocal total
            profile = profiles[side]
            for index in range(len(seen[side])):
                count = seen[side][index]
                if not count:
                    continue
                hi_b = profile.maxes[index]
                # buckets descend in score: once even completing with every
                # remaining side's top cannot reach the threshold, stop
                if function(*his, hi_b, *tops[side + 1:]) < threshold:
                    break
                fraction = count / profile.counts[index]
                lo_b = hi_b - fraction * (hi_b - profile.mins[index])
                if side == n - 1:
                    hi = function(*his, hi_b)
                    lo = function(*los, lo_b)
                    if lo >= threshold or hi <= lo:
                        above = 1.0
                    else:
                        above = (hi - threshold) / (hi - lo)
                    total += product * count * above
                else:
                    recurse(side + 1, his + [hi_b], los + [lo_b],
                            product * count)

        recurse(0, [], [], 1.0)
        return total * selectivity

    # same realization-corrected target as the 2-way replay
    target = max(
        k * (1.0 - HRJN_RESULTS_BIAS) - HRJN_MEDIAN_CORRECTION, 1e-9
    )
    side = 0
    while True:
        exhausted = [consumed[s] >= totals[s] for s in range(n)]
        if all(exhausted):
            break
        while exhausted[side]:
            side = (side + 1) % n
        consumed[side] = min(totals[side], consumed[side] + batch[side])
        batches[side] += 1
        threshold = max(
            function(*[
                current_score(s) if s == i else tops[s] for s in range(n)
            ])
            for i in range(n)
        )
        if results_above(threshold) >= target:
            break
        side = (side + 1) % n
    return consumed, batches


def _intermediate_profile(
    pairs: "list[_SimPair]", k: int, norm: float, num_buckets: int
) -> _SideProfile:
    """Expected score profile of a cascade stage's materialized top-k'.

    Takes the replay's bucket-pair join expectations highest-score first
    until ``k`` expected tuples accumulate, smearing each pair's mass
    uniformly over its attainable score span, normalized by ``norm`` onto
    the index's [0, 1] bucket grid.
    """
    ordered = sorted(pairs, key=lambda pair: -pair.max_score)
    cells: "dict[int, list[float]]" = {}
    remaining = float(k)
    for pair in ordered:
        if remaining <= 0:
            break
        weight = min(pair.true_weight, remaining)
        if weight <= 0:
            continue
        remaining -= weight
        lo = max(0.0, min(1.0, pair.min_score / norm))
        hi = max(lo, min(1.0, pair.max_score / norm))
        first = score_to_bucket(hi, num_buckets)
        last = score_to_bucket(lo, num_buckets)
        span = max(1, last - first + 1)
        for bucket in range(first, last + 1):
            lower, upper = bucket_bounds(bucket, num_buckets)
            cell = cells.setdefault(
                bucket, [0.0, float("inf"), float("-inf")]
            )
            cell[0] += weight / span
            cell[1] = min(cell[1], max(lo, lower))
            cell[2] = max(cell[2], min(hi, upper))
    buckets = sorted(cells)
    return _SideProfile(
        buckets=buckets,
        counts=[cells[b][0] for b in buckets],
        mins=[cells[b][1] for b in buckets],
        maxes=[cells[b][2] for b in buckets],
        num_buckets=num_buckets,
        total=sum(cells[b][0] for b in buckets),
    )


class _SimPair(NamedTuple):
    """One estimated bucket-pair join of the symbolic replay (in
    expectation what one :class:`EstimatedResult` is in execution).
    Replays over one matcher share them (:meth:`_JoinMatcher.pair_table`),
    so they are immutable: a tuple, which builds in half the time of a
    frozen dataclass."""

    weight: float       # expected estimated tuples (incl. false positives)
    true_weight: float  # expected actual join results
    min_score: float
    max_score: float
    common: float       # expected common bit positions
    left_index: int
    right_index: int


@dataclass
class _SimRepairRound:
    """One replayed cascade round (round 0 = initial phase 1 + phase 2)."""

    round: int
    #: profile indexes of buckets fetched during this round, per side
    fetched: "tuple[list[int], list[int]]"
    #: incremental reverse rows the cache fetches this round, per side
    reverse_rows: "tuple[float, float]"
    #: estimated pairs re-admitted past the purge bound this round
    readmitted: float
    #: expected exact results after the round's phase 2
    actual_results: float


@dataclass
class _BFHMSimulation:
    """Outcome of the symbolic phase-1 / phase-2 / §5.3 re-enactment."""

    fetched: "tuple[list[int], list[int]]"
    buckets_fetched: int
    reverse_rows: "tuple[float, float]"
    rounds: "list[_SimRepairRound]"
    purge_bound: "float | None"

    @property
    def repair_rounds(self) -> int:
        return max(0, len(self.rounds) - 1)

    @property
    def readmitted_pairs(self) -> float:
        return sum(entry.readmitted for entry in self.rounds)


class _BFHMCascadeReplay:
    """Symbolic re-enactment of the complete BFHM execution loop.

    Mirrors :meth:`repro.core.bfhm.algorithm.BFHMRankJoin._run` with
    expectations in place of filters, step for step:

    * **phase 1** — alternating bucket fetches joined via expected filter
      intersections, gated by the CONSERVATIVE termination test;
    * **phase 2** — the §5.2 purge at the k-th estimated min-score, then
      the re-admission loop: excluded pairs whose max score could still
      beat the k-th *actual* result rejoin the candidate set;
    * **§5.3 repair rounds** — while some unfetched bucket could beat the
      k-th actual score, the violating sides are force-advanced; while
      fewer than k results exist, estimation resumes at ``k + (k - k')``
      (forcing *both* sides when estimation thinks it is done);
    * **reverse-mapping cache** — rows are fetched at most once, so each
      round contributes only its incremental reverse-row traffic.

    Each bucket pair contributes its expected intersection: the real
    estimator appends a result per *intersecting* pair and counts
    ``max(1, round(cardinality))`` estimated tuples for it; in expectation
    that is ``P(intersect) * max(1, E[card | intersect])``, which
    ``max(P(intersect), E[card])`` approximates from expectations alone
    (they agree in both the sparse and the dense regime).
    """

    #: hard stop for the symbolic loop — execution converges on the finite
    #: bucket set, but fractional expectations could plateau just below k
    MAX_ROUNDS = 32

    def __init__(
        self,
        profiles: "tuple[_SideProfile, _SideProfile]",
        function: AggregateFunction,
        k: int,
        m_bits: int,
        selectivity: float,
        matcher: "_JoinMatcher | None" = None,
    ) -> None:
        self.profiles = profiles
        self.function = function
        self.k = k
        self.m_bits = m_bits
        self.selectivity = selectivity
        self.matcher = matcher
        #: bucket-pair joins of earlier replays under the same function
        #: and filters (``None`` without a matcher: nothing to share with)
        self._memo = (
            matcher.pair_table(function, m_bits, selectivity)
            if matcher is not None else None
        )
        self.nxt = [0, 0]
        self.fetched: "tuple[list[int], list[int]]" = ([], [])
        self.pairs: "list[_SimPair]" = []
        #: the same pairs by descending min score, equals in joining order
        #: — what a stable sort of ``pairs`` would give, kept by insertion
        #: — and their negated min scores, the bisect keys
        self._by_min_score: "list[_SimPair]" = []
        self._min_keys: "list[float]" = []
        self.total_weight = 0.0
        #: replayed reverse-mapping cache: bucket index -> rows fetched
        self._rows_cached: "tuple[dict[int, float], dict[int, float]]" = ({}, {})

    # -- phase 1 (Algorithms 6/7 in expectation) ---------------------------

    def _pair(self, left_index: int, right_index: int) -> "_SimPair | None":
        memo = self._memo
        if memo is None:
            return self._join_pair(left_index, right_index)
        slot = left_index * len(self.profiles[1].counts) + right_index
        found = memo[slot]
        if found is _UNSET:
            found = memo[slot] = self._join_pair(left_index, right_index)
        return found

    def _join_pair(
        self, left_index: int, right_index: int
    ) -> "_SimPair | None":
        c_l = self.profiles[0].counts[left_index]
        c_r = self.profiles[1].counts[right_index]
        matched = self.matcher(left_index, right_index) if self.matcher else None
        if matched is None:
            # uniform fallback: every tuple pair joins with P = selectivity
            pair_matches = self.selectivity * c_l * c_r
            shared_values = pair_matches
        else:
            pair_matches, shared_values = matched
        pair_matches = min(pair_matches, c_l * c_r)
        # the filters hash distinct join values (duplicates set the same
        # bit), so false-positive overlap scales with distincts, not counts
        d_l = d_r = None
        if self.matcher is not None:
            d_l = self.matcher.bucket_distinct(0, left_index)
            d_r = self.matcher.bucket_distinct(1, right_index)
        d_l = c_l if d_l is None else min(d_l, c_l)
        d_r = c_r if d_r is None else min(d_r, c_r)
        # distinct shared join values are what both filters set bits for
        true_common = min(shared_values, d_l, d_r)
        p_l = 1.0 - math.exp(-d_l / self.m_bits)
        p_r = 1.0 - math.exp(-d_r / self.m_bits)
        fp_common = max(0.0, self.m_bits * p_l * p_r - true_common)
        common = true_common + fp_common
        if common < 1e-6:
            return None
        p_intersect = 1.0 - math.exp(-common)
        weight = max(p_intersect, pair_matches + fp_common)
        return _SimPair(
            weight=weight,
            true_weight=pair_matches,
            min_score=self.function(
                self.profiles[0].mins[left_index], self.profiles[1].mins[right_index]
            ),
            max_score=self.function(
                self.profiles[0].maxes[left_index], self.profiles[1].maxes[right_index]
            ),
            common=common,
            left_index=left_index,
            right_index=right_index,
        )

    def side_exhausted(self, side: int) -> bool:
        return self.nxt[side] >= len(self.profiles[side].counts)

    def fetch_next(self, side: int) -> bool:
        """Fetch + join one bucket from ``side``; False if exhausted."""
        if self.side_exhausted(side):
            return False
        index = self.nxt[side]
        self.nxt[side] += 1
        self.fetched[side].append(index)
        for other_index in self.fetched[1 - side]:
            left_index = index if side == 0 else other_index
            right_index = other_index if side == 0 else index
            pair = self._pair(left_index, right_index)
            if pair is None:
                continue
            self.pairs.append(pair)
            key = -pair.min_score
            position = bisect_right(self._min_keys, key)
            self._min_keys.insert(position, key)
            self._by_min_score.insert(position, pair)
            self.total_weight += pair.weight
        return True

    def kth_bound(self, k: "float | None" = None) -> "float | None":
        """CONSERVATIVE bound: k-th estimated tuple by min score.

        Defaults to the query's k (the §5.2 purge bound); repair rounds
        pass their expanded ``k + (k - k')`` rank, exactly as the real
        estimator's termination test does.
        """
        if k is None:
            k = self.k
        accumulated = 0.0
        for pair in self._by_min_score:
            accumulated += pair.weight
            if accumulated >= k:
                return pair.min_score
        return None

    def unexamined_best(self, side: int) -> "float | None":
        if self.side_exhausted(side):
            return None
        other = self.profiles[1 - side]
        if not other.counts:
            return None
        mine = self.profiles[side].upper_boundary(self.nxt[side])
        theirs = other.upper_boundary(0)
        return self.function(mine, theirs) if side == 0 else self.function(theirs, mine)

    def _should_terminate(self, k: float) -> bool:
        if self.total_weight < k:
            return False
        bound = self.kth_bound(k)
        if bound is None:
            return False
        for side in (0, 1):
            best = self.unexamined_best(side)
            if best is not None and best > bound + 1e-12:
                return False
        return True

    def run_until(self, k: float) -> None:
        side = 0
        while not self._should_terminate(k):
            if self.side_exhausted(0) and self.side_exhausted(1):
                break
            if self.side_exhausted(side):
                side = 1 - side
            self.fetch_next(side)
            side = 1 - side

    # -- phase 2 (purge + re-admission, in expectation) --------------------

    def _true_count(self, included: "set[int]") -> float:
        return sum(self.pairs[index].true_weight for index in included)

    #: shortfall tolerance of the k-reached test, in Poisson standard
    #: deviations: execution branches on the *realized* count, the replay
    #: on its expectation — a hard ``>= k`` cliffs into wholesale
    #: re-admission on a fractional shortfall a real run would rarely see,
    #: while a full sigma of slack misses the genuine shortfalls that do
    #: trigger the cascade (calibrated on the Fig. 7/8 repair cells, where
    #: executions reach k at z >= -0.75 and fall short at z <= -0.94)
    REACHED_K_SLACK_SIGMA = 0.85

    def _reached_k(self, n_actual: float, k: int) -> bool:
        """Did the run (probably) materialize k results?"""
        slack = self.REACHED_K_SLACK_SIGMA * math.sqrt(max(n_actual, 1.0))
        return n_actual - k >= -slack

    def _kth_effective(self, n_actual: float, k: int) -> float:
        """Rank to solve the k-th actual score at — capped by the expected
        count so a near-k expectation yields the bottom-of-set score the
        execution would gate on, not a None."""
        return min(float(k), n_actual)

    def _kth_actual(self, included: "set[int]", k: float) -> "float | None":
        """Solve for the score t with k expected true results above it
        among the included pairs.

        Each pair's expected true matches are smeared uniformly over the
        pair's attainable score range — bucket midpoints would
        systematically overestimate under skewed score distributions.
        """
        spans = [
            (self.pairs[i].min_score, self.pairs[i].max_score, self.pairs[i].true_weight)
            for i in included
            if self.pairs[i].true_weight > 0
        ]
        if not spans:
            return None

        def above(t: float) -> float:
            total = 0.0
            for lo, hi, weight in spans:
                if hi <= t:
                    continue
                if lo >= t or hi == lo:
                    total += weight
                else:
                    total += weight * (hi - t) / (hi - lo)
            return total

        if above(0.0) < k:
            return None
        lo_t, hi_t = 0.0, max(hi for _, hi, _ in spans)
        for _ in range(40):
            mid_t = (lo_t + hi_t) / 2
            if above(mid_t) >= k:
                lo_t = mid_t
            else:
                hi_t = mid_t
        return lo_t

    def phase2(self, k: int) -> "tuple[set[int], float | None, float]":
        """Replay one full phase-2 pass: (included pairs, purge bound,
        pairs re-admitted past the bound)."""
        bound = self.kth_bound()
        if bound is None:
            included = set(range(len(self.pairs)))
        else:
            included = {
                index
                for index, pair in enumerate(self.pairs)
                if pair.max_score >= bound - 1e-12
            }
        readmitted = 0.0
        while True:
            excluded = set(range(len(self.pairs))) - included
            if not excluded:
                break
            n_actual = self._true_count(included)
            if self._reached_k(n_actual, k):
                kth = self._kth_actual(
                    included, self._kth_effective(n_actual, k)
                )
                extra = {
                    index
                    for index in excluded
                    if kth is None or self.pairs[index].max_score >= kth - 1e-12
                }
            else:
                extra = excluded  # not enough results: nothing may be purged
            if not extra:
                break
            included |= extra
            readmitted += len(extra)
        return included, bound, readmitted

    def commit_reverse_rows(self, included: "set[int]") -> "tuple[float, float]":
        """Incremental reverse rows the cache fetches for ``included``.

        Positions are counted per bucket against the *union* of its
        partner buckets (a value matching several partners still occupies
        one position and one reverse row), capped by the bucket's distinct
        join values; rows fetched by earlier rounds are never re-fetched.
        """
        delta = [0.0, 0.0]
        for side in (0, 1):
            # this side's included buckets with their partner buckets
            partners: "dict[int, list[int]]" = {}
            pair_common: "dict[int, float]" = {}
            for index in included:
                pair = self.pairs[index]
                mine = pair.left_index if side == 0 else pair.right_index
                other = pair.right_index if side == 0 else pair.left_index
                partners.setdefault(mine, []).append(other)
                pair_common[mine] = pair_common.get(mine, 0.0) + pair.common
            cached = self._rows_cached[side]
            for index, partner_list in partners.items():
                cap = self.profiles[side].counts[index]
                joined = (
                    self.matcher.union_join(side, index, partner_list)
                    if self.matcher is not None
                    else None
                )
                if joined is None:
                    # fallback: per-pair commons summed (over-counts values
                    # matched by several partners)
                    positions = pair_common[index]
                else:
                    shared, union_total = joined
                    d_mine = self.matcher.bucket_distinct(side, index)
                    d_mine = cap if d_mine is None else min(d_mine, cap)
                    cap = min(cap, d_mine)
                    p_mine = 1.0 - math.exp(-d_mine / self.m_bits)
                    p_union = 1.0 - math.exp(-union_total / self.m_bits)
                    false_positions = max(
                        0.0, self.m_bits * p_mine * p_union - shared
                    )
                    positions = shared + false_positions
                target = min(positions, cap)
                have = cached.get(index, 0.0)
                if target > have:
                    delta[side] += target - have
                    cached[index] = target
        return (delta[0], delta[1])

    # -- the full loop (BFHMRankJoin._run in expectation) ------------------

    def run(self) -> _BFHMSimulation:
        k = self.k
        rounds: "list[_SimRepairRound]" = []
        fetch_mark = [0, 0]

        def new_fetches() -> "tuple[list[int], list[int]]":
            out: "tuple[list[int], list[int]]" = ([], [])
            for side in (0, 1):
                out[side].extend(self.fetched[side][fetch_mark[side]:])
                fetch_mark[side] = len(self.fetched[side])
            return out

        self.run_until(k)
        included, purge_bound, readmitted = self.phase2(k)
        n_actual = self._true_count(included)
        rounds.append(_SimRepairRound(
            round=0,
            fetched=new_fetches(),
            reverse_rows=self.commit_reverse_rows(included),
            readmitted=readmitted,
            actual_results=n_actual,
        ))

        while len(rounds) - 1 < self.MAX_ROUNDS:
            if self._reached_k(n_actual, k):
                kth = self._kth_actual(
                    included, self._kth_effective(n_actual, k)
                )
                violating = [
                    side
                    for side in (0, 1)
                    if kth is not None
                    and (best := self.unexamined_best(side)) is not None
                    and best > kth + 1e-12
                ]
                if not violating:
                    break
                progressed = False
                for side in violating:
                    progressed = self.fetch_next(side) or progressed
                if not progressed:
                    break
            else:
                if self.side_exhausted(0) and self.side_exhausted(1):
                    break
                before = len(self.fetched[0]) + len(self.fetched[1])
                self.run_until(k + (k - n_actual))
                if len(self.fetched[0]) + len(self.fetched[1]) == before:
                    # estimation thinks it is done; force both sides, as
                    # the execution loop does
                    progressed = self.fetch_next(0)
                    progressed = self.fetch_next(1) or progressed
                    if not progressed:
                        break
            included, _, readmitted = self.phase2(k)
            n_actual = self._true_count(included)
            rounds.append(_SimRepairRound(
                round=len(rounds),
                fetched=new_fetches(),
                reverse_rows=self.commit_reverse_rows(included),
                readmitted=readmitted,
                actual_results=n_actual,
            ))

        return _BFHMSimulation(
            fetched=self.fetched,
            buckets_fetched=len(self.fetched[0]) + len(self.fetched[1]),
            reverse_rows=(
                sum(entry.reverse_rows[0] for entry in rounds),
                sum(entry.reverse_rows[1] for entry in rounds),
            ),
            rounds=rounds,
            purge_bound=purge_bound,
        )


def _simulate_bfhm(
    profiles: "tuple[_SideProfile, _SideProfile]",
    function: AggregateFunction,
    k: int,
    m_bits: int,
    selectivity: float,
    matcher: "_JoinMatcher | None" = None,
) -> _BFHMSimulation:
    """Expected bucket fetches, reverse-row reads, and §5.3 repair rounds
    of a BFHM run (see :class:`_BFHMCascadeReplay`)."""
    return _BFHMCascadeReplay(
        profiles, function, k, m_bits, selectivity, matcher
    ).run()


def _golomb_blob_bytes(count: float, m_bits: int) -> float:
    """Approximate stored size of one Golomb-compressed bucket blob.

    Golomb coding of ``e`` set positions over ``m`` bits costs roughly
    ``e * (log2(m/e) + 1.6)`` bits, plus the fixed header/min/max/count
    columns of the blob row.
    """
    entries = max(1.0, count)
    per_entry_bits = math.log2(max(2.0, m_bits / entries)) + 1.6
    return 110.0 + entries * per_entry_bits / 8.0


def _reproject_profile(profile: _SideProfile, num_buckets: int) -> _SideProfile:
    """Merge a profile onto a different equi-width bucket grid.

    Bucket numbers of the result live on the ``num_buckets`` grid, so
    lookups against a built index's blob rows (which encode that grid)
    match.  A no-op when the grids already agree.
    """
    if num_buckets == profile.num_buckets:
        return profile
    merged: "dict[int, tuple[float, float, float]]" = {}
    for index, bucket in enumerate(profile.buckets):
        position = (bucket + 0.5) / profile.num_buckets
        target = min(num_buckets - 1, int(position * num_buckets))
        count, low, high = merged.get(
            target, (0.0, float("inf"), float("-inf"))
        )
        merged[target] = (
            count + profile.counts[index],
            min(low, profile.mins[index]),
            max(high, profile.maxes[index]),
        )
    buckets = sorted(merged)
    return _SideProfile(
        buckets=buckets,
        counts=[merged[b][0] for b in buckets],
        mins=[merged[b][1] for b in buckets],
        maxes=[merged[b][2] for b in buckets],
        num_buckets=num_buckets,
        total=profile.total,
        join_profile=profile.join_profile,
    )


def _rebucket(profile: _SideProfile, num_buckets: int) -> "list[float]":
    """Project a profile's counts onto a coarser/finer equi-width grid."""
    counts = [0.0] * num_buckets
    for index, bucket in enumerate(profile.buckets):
        # midpoint of the profile bucket decides the target bucket
        position = (bucket + 0.5) / profile.num_buckets
        target = min(num_buckets - 1, int(position * num_buckets))
        counts[target] += profile.counts[index]
    return counts
