"""The HRJN operator (§4.2.1) — one operator at every arity."""

from bisect import insort
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.functions import ProductFunction, SumFunction, WeightedSumFunction
from repro.common.types import JoinTuple, ScoredRow, top_k
from repro.core.hrjn import SCORE_EPSILON, HRJNOperator, hrjn_join
from repro.core.isl import ISLRankJoin
from repro.errors import QueryError
from repro.relational.multiway import full_join_multi
from repro.relational.naive import naive_rank_join

LEFT, RIGHT = 0, 1


def rows(specs, prefix="r"):
    return [
        ScoredRow(f"{prefix}{i}", value, score)
        for i, (value, score) in enumerate(specs)
    ]


def pair_operator(k):
    return HRJNOperator(2, SumFunction(), k)


class TestOperator:
    def test_produces_join_tuples(self):
        operator = pair_operator(2)
        operator.add(LEFT, ScoredRow("l1", "a", 0.9))
        operator.add(RIGHT, ScoredRow("r1", "a", 0.8))
        [result] = operator.results
        assert result.keys == ("l1", "r1")
        assert result.scores == (0.9, 0.8)
        assert result.score == pytest.approx(1.7)

    def test_no_join_without_matching_value(self):
        operator = pair_operator(2)
        operator.add(LEFT, ScoredRow("l1", "a", 0.9))
        operator.add(RIGHT, ScoredRow("r1", "b", 0.8))
        assert operator.results == []
        assert operator.kth_score() is None

    def test_threshold_formula(self):
        operator = pair_operator(1)
        operator.add(LEFT, ScoredRow("l1", "a", 0.9))
        operator.add(LEFT, ScoredRow("l2", "b", 0.5))
        operator.add(RIGHT, ScoredRow("r1", "c", 0.8))
        operator.add(RIGHT, ScoredRow("r2", "d", 0.6))
        # S = max(f(s̄_L, ŝ_R), f(ŝ_L, s̄_R)) = max(0.5+0.8, 0.9+0.6)
        assert operator.threshold() == pytest.approx(1.5)
        # the frontier keeps moving after the first threshold read
        operator.add(RIGHT, ScoredRow("r3", "e", 0.1))
        assert operator.threshold() == pytest.approx(max(0.5 + 0.8, 0.9 + 0.1))

    def test_threshold_none_until_both_sides_seen(self):
        operator = pair_operator(1)
        assert operator.threshold() is None
        operator.add(LEFT, ScoredRow("l1", "a", 0.9))
        assert operator.threshold() is None

    def test_termination_at_threshold(self):
        operator = pair_operator(1)
        operator.add(LEFT, ScoredRow("l1", "a", 0.9))
        operator.add(RIGHT, ScoredRow("r1", "a", 0.9))
        # result 1.8 >= threshold 1.8: nothing deeper can beat it
        assert operator.kth_score() == pytest.approx(1.8)
        assert operator.threshold() == pytest.approx(1.8)
        assert operator.terminated()

    def test_not_terminated_without_k_results(self):
        operator = pair_operator(5)
        operator.add(LEFT, ScoredRow("l1", "a", 0.9))
        operator.add(RIGHT, ScoredRow("r1", "a", 0.9))
        assert operator.kth_score() is None
        assert not operator.terminated()

    def test_exhausted_inputs_terminate(self):
        # fewer than k results: only exhausting both inputs ends the join
        left = rows([("a", 0.9), ("b", 0.4)])
        right = rows([("a", 0.8), ("c", 0.7)], prefix="s")
        results, seen = hrjn_join([left, right], SumFunction(), 5)
        assert [t.keys for t in results] == [("r0", "s0")]
        assert seen == (2, 2)

    def test_unsorted_input_rejected(self):
        operator = pair_operator(1)
        operator.add(LEFT, ScoredRow("l1", "a", 0.5))
        with pytest.raises(QueryError):
            operator.add(LEFT, ScoredRow("l2", "a", 0.9))

    def test_invalid_arguments(self):
        with pytest.raises(QueryError):
            HRJNOperator(2, SumFunction(), 0)
        with pytest.raises(QueryError):
            HRJNOperator(1, SumFunction(), 1)
        with pytest.raises(QueryError):
            pair_operator(1).add(7, ScoredRow("x", "a", 0.5))

    def test_tuples_seen(self):
        operator = pair_operator(1)
        operator.add(LEFT, ScoredRow("l1", "a", 0.9))
        operator.add(RIGHT, ScoredRow("r1", "a", 0.9))
        assert operator.tuples_seen() == (1, 1)


class TestHrjnJoin:
    def test_matches_naive_on_fixed_input(self):
        left = rows([("a", 0.9), ("b", 0.8), ("a", 0.3)])
        right = rows([("a", 0.7), ("b", 0.95), ("c", 0.2)], prefix="s")
        results, _ = hrjn_join([left, right], SumFunction(), 2)
        truth = naive_rank_join([left, right], SumFunction(), 2)
        assert [t.score for t in results] == [t.score for t in truth]

    def test_early_termination_saves_depth(self):
        # a perfect top pair lets HRJN stop after a handful of tuples
        left = rows([("hit", 1.0)] + [(f"l{i}", 0.5 - i / 1000) for i in range(200)])
        right = rows([("hit", 1.0)] + [(f"r{i}", 0.5 - i / 1000) for i in range(200)])
        _, (seen_left, seen_right) = hrjn_join([left, right], SumFunction(), 1)
        assert seen_left + seen_right < 20

    relation = st.lists(
        st.tuples(st.sampled_from("abcdef"),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=0, max_size=40,
    )

    @given(relation, relation, st.integers(min_value=1, max_value=10),
           st.sampled_from(["sum", "product"]))
    @settings(max_examples=60, deadline=None)
    def test_always_matches_naive(self, left_spec, right_spec, k, fn_name):
        function = SumFunction() if fn_name == "sum" else ProductFunction()
        left = rows(left_spec)
        right = rows(right_spec, prefix="s")
        results, _ = hrjn_join([left, right], function, k)
        truth = naive_rank_join([left, right], function, k)
        assert [round(t.score, 9) for t in results] == [
            round(t.score, 9) for t in truth
        ]


# ---------------------------------------------------------------------------
# differential: the one operator vs the naive oracles, arities 2-4
# ---------------------------------------------------------------------------

#: scores on a 1/20 grid: plenty of exact ties, and two different sums
#: never land within the operator's epsilon of each other
GRID_SCORE = st.integers(min_value=0, max_value=20).map(lambda i: i / 20)
#: "" is a legitimate join value; "zz" occurs on one input only when drawn
JOIN_VALUE = st.sampled_from(["", "a", "b", "c", "zz"])


@st.composite
def relation_sets(draw, min_arity=2, max_arity=4, score=GRID_SCORE):
    arity = draw(st.integers(min_value=min_arity, max_value=max_arity))
    relations = []
    for side in range(arity):
        specs = draw(st.lists(st.tuples(JOIN_VALUE, score), max_size=9))
        relations.append(rows(specs, prefix=f"i{side}_"))
    return relations


class _ListCursor:
    """An in-memory stand-in for ISL's index cursor: fixed-size batches
    of one score-sorted input."""

    def __init__(self, relation, batch_rows):
        self._rows = sorted(relation, key=lambda r: (-r.score, r.row_key))
        self._batch_rows = batch_rows
        self.exhausted = not self._rows

    def next_batch(self):
        batch = self._rows[: self._batch_rows]
        del self._rows[: self._batch_rows]
        self.exhausted = not self._rows
        return batch


class TestDifferential:
    @given(relation_sets(), st.integers(min_value=1, max_value=90))
    @settings(max_examples=150, deadline=None)
    def test_hrjn_join_equals_naive_multi(self, relations, k):
        """Arity 2-4, ties, duplicate and empty-string join values, empty
        overlaps, and k beyond the join size: ``hrjn_join`` returns
        the oracle's top-k tuple list exactly (above the k-th score, where
        the order is determined; tuples tied at the k-th score may be any
        of the tied join tuples)."""
        function = SumFunction()
        results, seen = hrjn_join(relations, function, k)
        truth = naive_rank_join(relations, function, k)
        assert [t.score for t in results] == [t.score for t in truth]
        if truth:
            kth = truth[-1].score
            assert [t for t in results if t.score > kth] == [
                t for t in truth if t.score > kth
            ]
        full = set(full_join_multi(relations, function))
        assert set(results) <= full
        assert all(count <= len(r) for count, r in zip(seen, relations))

    @given(relation_sets(max_arity=2), st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_batched_isl_drain_matches_naive_pairs(self, relations, k, batch_rows):
        """Pairs fed in ISL-style batches through ISL's serial drain give
        the oracle's scores, each tuple carrying both inputs' keys and
        scores."""
        left, right = relations
        operator = HRJNOperator(2, SumFunction(), k)
        cursors = [_ListCursor(left, batch_rows), _ListCursor(right, batch_rows)]
        ISLRankJoin._drain_serial(operator, cursors)
        results = operator.results
        truth = naive_rank_join([left, right], SumFunction(), k)
        assert [t.score for t in results] == [t.score for t in truth]
        assert all(
            len(t.keys) == 2 and t.score == t.scores[0] + t.scores[1]
            for t in results
        )

    @given(relation_sets(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_buffer_is_best_2k_plus_8_after_every_add(self, relations, k):
        """After every add, the operator's buffer is exactly the best
        2k+8 of everything produced so far, and add returns how many join
        combinations the new tuple completed."""
        function = SumFunction()
        arity = len(relations)
        ordered = [
            sorted(relation, key=lambda r: (-r.score, r.row_key))
            for relation in relations
        ]
        operator = HRJNOperator(arity, function, k)
        prefixes = [[] for _ in range(arity)]
        produced_total = 0
        index = 0
        while any(len(prefixes[i]) < len(ordered[i]) for i in range(arity)):
            while len(prefixes[index]) == len(ordered[index]):
                index = (index + 1) % arity
            row = ordered[index][len(prefixes[index])]
            prefixes[index].append(row)
            produced_total += operator.add(index, row)
            everything = full_join_multi(prefixes, function)
            assert produced_total == len(everything)
            assert operator._results == top_k(everything, 2 * k + 8)
            index = (index + 1) % arity


# ---------------------------------------------------------------------------
# feed: one call per batch against the per-tuple loop it replaced
# ---------------------------------------------------------------------------


class _PerTupleHRJN:
    """The per-tuple operator ``feed`` replaced, kept as the reference:
    each tuple is observed and joined on its own, and the termination test
    recomputes the threshold (``arity`` calls of ``f``) after every one."""

    def __init__(self, arity, function, k):
        self.function = function
        self.k = k
        self.capacity = 2 * k + 8
        self.seen = [{} for _ in range(arity)]
        self.tops = [None] * arity
        self.lasts = [None] * arity
        self.counts = [0] * arity
        self.results = []

    def add(self, index, row):
        last = self.lasts[index]
        if last is None:
            self.tops[index] = row.score
        elif row.score > last + SCORE_EPSILON:
            raise QueryError("unsorted")
        self.lasts[index] = row.score
        self.counts[index] += 1
        self.seen[index].setdefault(row.join_value, []).append(row)
        partners = []
        for other, seen in enumerate(self.seen):
            if other != index:
                if not seen.get(row.join_value):
                    return
                partners.append(seen[row.join_value])
        for combination in product(*partners):
            joined = (*combination[:index], row, *combination[index:])
            scores = tuple(r.score for r in joined)
            score = self.function.combine(scores)
            if len(self.results) >= self.capacity and score < self.results[-1].score:
                continue
            insort(
                self.results,
                JoinTuple(tuple(r.row_key for r in joined), row.join_value, score, scores),
                key=JoinTuple.sort_key,
            )
            del self.results[self.capacity:]

    def threshold(self):
        if None in self.tops:
            return None
        best = None
        for i, last in enumerate(self.lasts):
            candidate = self.function.combine([*self.tops[:i], last, *self.tops[i + 1:]])
            if best is None or candidate > best:
                best = candidate
        return best

    def terminated(self):
        threshold = self.threshold()
        if len(self.results) < self.k or threshold is None:
            return False
        return self.results[self.k - 1].score >= threshold - SCORE_EPSILON


FUNCTIONS = {
    "sum": lambda arity: SumFunction(),
    "product": lambda arity: ProductFunction(),
    "weighted": lambda arity: WeightedSumFunction([0.5 + i for i in range(arity)]),
}


#: five scores: most tuples tie with their input's previous one, so the
#: termination test often fires on a tuple that leaves the threshold put
COARSE_SCORE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def batched_feeds(draw):
    """Score-sorted inputs at arity 2-4 with ties within and across inputs
    and duplicate join values, and a drawn order of (input, batch size)
    feeds."""
    score = draw(st.sampled_from([GRID_SCORE, COARSE_SCORE]))
    relations = [
        sorted(relation, key=lambda r: -r.score)
        for relation in draw(relation_sets(score=score))
    ]
    positions = [0] * len(relations)
    feeds = []
    while any(p < len(r) for p, r in zip(positions, relations)):
        index = draw(st.sampled_from(
            [i for i, r in enumerate(relations) if positions[i] < len(r)]
        ))
        size = draw(st.integers(min_value=1, max_value=5))
        feeds.append((index, relations[index][positions[index]:positions[index] + size]))
        positions[index] += size
    return relations, feeds


class TestFeed:
    @given(batched_feeds(), st.integers(min_value=1, max_value=60),
           st.sampled_from(sorted(FUNCTIONS)))
    @settings(max_examples=300, deadline=None)
    def test_feed_matches_per_tuple_loop(self, drawn, k, function_name):
        """Per batch: the same tuples consumed, and afterwards the same
        buffer, depth and threshold as adding tuple by tuple and testing
        termination after each; k runs past the join size."""
        relations, feeds = drawn
        function = FUNCTIONS[function_name](len(relations))
        operator = HRJNOperator(len(relations), function, k)
        reference = _PerTupleHRJN(len(relations), function, k)
        for index, batch in feeds:
            expected = 0
            for row in batch:
                reference.add(index, row)
                expected += 1
                if reference.terminated():
                    break
            assert operator.feed(index, batch) == expected
            assert operator.results == reference.results[:k]
            assert operator.tuples_seen() == tuple(reference.counts)
            assert operator.threshold() == reference.threshold()
            assert operator.terminated() == reference.terminated()
            if operator.terminated():
                break

    def test_feed_stops_mid_batch_and_add_counts_combinations(self):
        operator = pair_operator(1)
        assert operator.add(LEFT, ScoredRow("l1", "a", 0.9)) == 0
        assert operator.add(RIGHT, ScoredRow("r1", "a", 0.9)) == 1
        # the first tuple of the batch ends the join: the rest stay unread
        operator = pair_operator(1)
        operator.feed(LEFT, rows([("a", 0.9)], prefix="l"))
        batch = rows([("a", 0.9), ("b", 0.5), ("c", 0.4)])
        assert operator.feed(RIGHT, batch) == 1
        assert operator.terminated()
        assert operator.tuples_seen() == (1, 1)

    def test_feed_rejects_unsorted_input(self):
        operator = pair_operator(1)
        with pytest.raises(QueryError):
            operator.feed(LEFT, rows([("a", 0.5), ("b", 0.9)]))
        with pytest.raises(QueryError):
            operator.feed(2, rows([("a", 0.5)]))
