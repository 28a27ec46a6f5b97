"""The HRJN rank-join operator (Ilyas, Aref, Elmagarmid — VLDB 2003; §4.2.1).

HRJN consumes inputs sorted by descending score.  Each newly retrieved
tuple of input ``i`` joins against the Cartesian product of the tuples
already seen with the same join value on every other input; the operator
keeps a top-k buffer and maintains the threshold

    S = max over i of  f(ŝ_1, …, s̄_i, …, ŝ_n)

where ``ŝ`` is the first (largest) and ``s̄`` the latest (smallest) score
seen per input — the best score any combination involving an unseen tuple
could still reach.  The operator terminates when the current k-th
result's score reaches it.  §3's multi-way extension is this same operator
at arity n; the paper's two-way HRJN is arity 2.

The operator is incremental by design: ISL drives it with batched scans of
the ISL index, and :func:`hrjn_join` runs it standalone over in-memory
sorted lists (the centralized setting of the original paper).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable

from repro.common.functions import AggregateFunction
from repro.common.types import JoinTuple, ScoredRow
from repro.core.base import RankJoinAlgorithm, _ExecutionDetails
from repro.errors import QueryError
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding, row_to_scored
from repro.store.client import Scan

#: numeric slack when comparing scores against the threshold
SCORE_EPSILON = 1e-12


@dataclass
class _InputState:
    """Everything HRJN remembers about one input."""

    by_join_value: dict[str, list[ScoredRow]] = field(default_factory=dict)
    top_score: "float | None" = None
    last_score: "float | None" = None
    tuples_seen: int = 0


class HRJNOperator:
    """Incremental n-way HRJN with threshold-based termination.

    The buffer keeps the best ``2k + 8`` tuples produced so far (slack
    beyond k so ties are not lost), in :meth:`JoinTuple.sort_key`
    order: each tuple is inserted in place and the tail trimmed, and a
    tuple scoring below a full buffer's last entry is never built.

    The threshold is kept, not recomputed: input ``i``'s candidate
    ``f(ŝ_1, …, s̄_i, …, ŝ_n)`` changes only when its ``s̄_i`` does.
    """

    def __init__(self, arity: int, function: AggregateFunction, k: int) -> None:
        if arity < 2:
            raise QueryError(f"arity must be >= 2: {arity}")
        if k <= 0:
            raise QueryError(f"k must be positive: {k}")
        self.arity = arity
        self.function = function
        self.k = k
        self._capacity = 2 * k + 8
        self._inputs = [_InputState() for _ in range(arity)]
        self._results: list[JoinTuple] = []
        #: every input's top score and threshold candidate, once all
        #: inputs have one; the threshold is the largest candidate
        self._tops: "list[float] | None" = None
        self._candidates: list[float] = []
        self._threshold: "float | None" = None
        #: the termination test's answer in the current state
        self._terminated = False
        self._produced = 0  # join combinations completed so far

    # -- feeding ------------------------------------------------------------

    def add(self, index: int, row: ScoredRow) -> int:
        """Feed one tuple from input ``index``; returns how many join
        combinations it completed."""
        produced = self._produced
        self.feed(index, (row,))
        return self._produced - produced

    def feed(self, index: int, rows: Iterable[ScoredRow]) -> int:
        """Feed tuples of input ``index`` in order, as :meth:`add` then
        :meth:`terminated` per tuple would, stopping on the same tuple;
        returns how many were consumed.  The test is a pure function of
        the k-th score and the threshold, so it is re-run only after a
        tuple that moves the input's last score or enters the buffer."""
        if not 0 <= index < self.arity:
            raise QueryError(f"input index {index} out of range [0, {self.arity})")
        inputs = self._inputs
        state = inputs[index]
        seen = state.by_join_value
        others = [other.by_join_value for other in inputs if other is not state]
        buffer = self._results
        capacity = self._capacity
        k = self.k
        combine = self.function.combine
        tops = self._tops
        candidates = self._candidates
        threshold = self._threshold
        terminated = self._terminated
        consumed = 0
        for row in rows:
            score = row.score
            last = state.last_score
            if last is None:
                state.top_score = score
            elif score > last + SCORE_EPSILON:
                raise QueryError(f"HRJN input not sorted: score {score} after {last}")
            consumed += 1
            state.last_score = score
            state.tuples_seen += 1
            join_value = row.join_value
            bucket = seen.get(join_value)
            if bucket is None:
                seen[join_value] = [row]
            else:
                bucket.append(row)

            changed = score != last
            if changed:
                # the threshold moves only with an input's last score
                if tops is None:
                    self._start_frontier()
                    tops, candidates = self._tops, self._candidates
                else:
                    top = tops[index]
                    tops[index] = score
                    candidates[index] = combine(tops)
                    tops[index] = top
                if tops is not None:
                    threshold = self._threshold = max(candidates)

            partners: list[list[ScoredRow]] = []
            for other in others:
                matches = other.get(join_value)
                if not matches:
                    break  # some input has no partner (yet)
                partners.append(matches)
            else:
                for combination in product(*partners):
                    self._produced += 1
                    combined = (*combination[:index], row, *combination[index:])
                    scores = tuple(r.score for r in combined)
                    total = combine(scores)
                    if len(buffer) >= capacity and total < buffer[-1].score:
                        continue  # would be trimmed straight away
                    insort(
                        buffer,
                        JoinTuple(
                            keys=tuple(r.row_key for r in combined),
                            join_value=join_value,
                            score=total,
                            scores=scores,
                        ),
                        key=JoinTuple.sort_key,
                    )
                    if len(buffer) > capacity:
                        buffer.pop()
                    changed = True

            if changed:
                # an exhausted input can no longer lower its contribution,
                # but the threshold is still a valid (if loose) upper bound
                terminated = self._terminated = (
                    threshold is not None
                    and len(buffer) >= k
                    and buffer[k - 1].score >= threshold - SCORE_EPSILON
                )
            if terminated:
                break
        return consumed

    def _start_frontier(self) -> None:
        """Fix the top scores and every input's threshold candidate, once
        all inputs have a score (until then the threshold is undefined)."""
        tops: list[float] = []
        lasts: list[float] = []
        for state in self._inputs:
            if state.top_score is None or state.last_score is None:
                return
            tops.append(state.top_score)
            lasts.append(state.last_score)
        combine = self.function.combine
        self._candidates = [
            combine([*tops[:i], last, *tops[i + 1 :]]) for i, last in enumerate(lasts)
        ]
        self._tops = tops

    # -- inspection -----------------------------------------------------------

    @property
    def results(self) -> list[JoinTuple]:
        """Current top results (sorted, possibly fewer than k)."""
        return self._results[: self.k]

    def kth_score(self) -> "float | None":
        if len(self._results) < self.k:
            return None
        return self._results[self.k - 1].score

    def threshold(self) -> "float | None":
        """S = max_i f(ŝ_1, …, s̄_i, …, ŝ_n), or ``None`` until every
        input has produced at least one tuple."""
        return self._threshold

    def terminated(self) -> bool:
        """True once the k-th result provably cannot be displaced (the
        caller stops anyway once every input is exhausted)."""
        return self._terminated

    def tuples_seen(self) -> tuple[int, ...]:
        return tuple(state.tuples_seen for state in self._inputs)


def hrjn_join(
    relations: "list[list[ScoredRow]]",
    function: AggregateFunction,
    k: int,
) -> tuple[list[JoinTuple], tuple[int, ...]]:
    """Run HRJN to completion over in-memory inputs (sorted internally),
    pulling one tuple per input in round-robin order.

    Returns the top-k tuples and how many tuples each input contributed
    before termination (the depth metric).
    """
    operator = HRJNOperator(len(relations), function, k)
    ordered = [
        sorted(relation, key=lambda r: (-r.score, r.row_key))
        for relation in relations
    ]
    positions = [0] * len(relations)

    def exhausted(i: int) -> bool:
        return positions[i] >= len(ordered[i])

    index = 0
    while not all(map(exhausted, range(len(ordered)))) and not operator.terminated():
        while exhausted(index):
            index = (index + 1) % len(ordered)
        operator.add(index, ordered[index][positions[index]])
        positions[index] += 1
        index = (index + 1) % len(ordered)
    return operator.results, operator.tuples_seen()


class MultiWayHRJNRankJoin(RankJoinAlgorithm):
    """Index-free n-way HRJN pipeline over metered base-table scans.

    The coordinator streams every input relation once (batched scans, the
    same charging as any other coordinator algorithm), sorts each side by
    descending score in memory, then drives the HRJN operator with
    round-robin pulls until the threshold fires.  No index is required,
    which makes this the fallback strategy at any arity — the n-way
    analogue of a client-side sort-merge baseline.
    """

    name = "HRJN-nway"
    max_arity = None

    #: scanner row caching for the base-table streams
    SCAN_CACHING = 200

    def _load(self, binding: RelationBinding) -> list[ScoredRow]:
        htable = self.platform.store.table(binding.table)
        rows: list[ScoredRow] = []
        scan = Scan(families={binding.family}, caching=self.SCAN_CACHING)
        for row in htable.scan(scan):
            try:
                rows.append(row_to_scored(binding, row))
            except QueryError:
                continue  # rows lacking join/score columns don't join
        return rows

    def _run(self, query: RankJoinQuery, details: _ExecutionDetails) -> list[JoinTuple]:
        relations = [self._load(binding) for binding in query.inputs]
        # coordinator-side sort costs CPU proportional to the rows moved
        model = self.platform.ctx.cost_model
        total_rows = sum(len(relation) for relation in relations)
        self.platform.metrics.advance_time(model.cpu_time(total_rows))

        # hrjn_join sorts each input and runs the same round-robin /
        # termination loop the in-memory reference uses — one
        # implementation, two callers
        tuples, seen = hrjn_join(relations, query.function, query.k)
        details.set("rows_scanned", float(total_rows))
        for i, count in enumerate(seen):
            details.set(f"tuples_seen_{i}", count)
        return tuples
