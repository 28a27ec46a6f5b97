"""N-way rank joins (§3's multi-way extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.common.functions import (
    MaxFunction,
    MinFunction,
    ProductFunction,
    SumFunction,
    WeightedSumFunction,
)
from repro.common.serialization import encode_float, encode_str
from repro.common.types import ScoredRow
from repro.core.bfhm.multi import BFHMCascadeRankJoin, stage_functions
from repro.core.hrjn import HRJNOperator, MultiWayHRJNRankJoin, hrjn_join
from repro.core.isl import MultiWayISLRankJoin
from repro.errors import QueryError
from repro.platform import Platform
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.query.engine import RankJoinEngine
from repro.query.results import RankJoinResult
from repro.relational.multiway import full_join_multi
from repro.relational.naive import naive_rank_join
from repro.store.client import Put


def rows(specs, prefix):
    return [ScoredRow(f"{prefix}{i}", v, s) for i, (v, s) in enumerate(specs)]


class TestNaiveMultiway:
    def test_joined_tuple_fields(self):
        [t] = full_join_multi(
            [[ScoredRow("a1", "x", 0.5)], [ScoredRow("b1", "x", 0.25)],
             [ScoredRow("c1", "x", 0.25)]],
            SumFunction(),
        )
        assert t.score == pytest.approx(1.0)
        assert t.keys == ("a1", "b1", "c1")
        assert t.scores == (0.5, 0.25, 0.25)
        assert t.join_value == "x"

    def test_three_way_join(self):
        r1 = rows([("a", 0.9), ("b", 0.5)], "x")
        r2 = rows([("a", 0.8), ("a", 0.2)], "y")
        r3 = rows([("a", 0.7), ("c", 0.9)], "z")
        results = full_join_multi([r1, r2, r3], SumFunction())
        # only 'a' appears in all three: 1 x 2 x 1 combinations
        assert len(results) == 2
        assert max(t.score for t in results) == pytest.approx(0.9 + 0.8 + 0.7)

    def test_degenerate_arity_rejected(self):
        with pytest.raises(QueryError):
            full_join_multi([rows([("a", 1.0)], "x")], SumFunction())

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_engine_result_shape_at_every_arity(self, arity):
        """One result type at every arity: the engine returns a
        RankJoinResult whose tuples carry one key and one score per input."""
        relations = _make_relations(arity, "random")
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, relations)
        query = RankJoinQuery(inputs=tuple(bindings), function=SumFunction(), k=5)
        result = RankJoinEngine(platform).execute(query, algorithm="isl")
        assert isinstance(result, RankJoinResult)
        assert result.tuples
        assert all(
            len(t.keys) == arity and len(t.scores) == arity for t in result.tuples
        )
        truth = naive_rank_join(relations, SumFunction(), 5)
        assert result.recall_against(truth) == 1.0


class TestMultiWayHRJN:
    def test_threshold_generalizes(self):
        operator = HRJNOperator(3, SumFunction(), 1)
        operator.add(0, ScoredRow("a", "v", 0.9))
        operator.add(1, ScoredRow("b", "w", 0.8))
        operator.add(2, ScoredRow("c", "u", 0.7))
        operator.add(0, ScoredRow("a2", "t", 0.5))
        # S = max(f(0.5,0.8,0.7), f(0.9,0.8,0.7)x with one lowered...)
        assert operator.threshold() == pytest.approx(
            max(0.5 + 0.8 + 0.7, 0.9 + 0.8 + 0.7, 0.9 + 0.8 + 0.7)
        )

    def test_invalid_arity_and_index(self):
        with pytest.raises(QueryError):
            HRJNOperator(1, SumFunction(), 1)
        operator = HRJNOperator(2, SumFunction(), 1)
        with pytest.raises(QueryError):
            operator.add(5, ScoredRow("a", "v", 0.5))

    relation = st.lists(
        st.tuples(st.sampled_from("abcd"),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=0, max_size=15,
    )

    @given(relation, relation, relation, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_three_way_matches_naive(self, s1, s2, s3, k):
        relations = [rows(s1, "x"), rows(s2, "y"), rows(s3, "z")]
        results, _ = hrjn_join(relations, SumFunction(), k)
        truth = naive_rank_join(relations, SumFunction(), k)
        assert [round(t.score, 9) for t in results] == [
            round(t.score, 9) for t in truth
        ]

    def test_early_termination(self):
        relations = [
            rows([("hit", 1.0)] + [(f"v{i}", 0.4 - i / 1000)
                                   for i in range(100)], p)
            for p in ("x", "y", "z")
        ]
        _, seen = hrjn_join(relations, SumFunction(), 1)
        assert sum(seen) < 30


class TestMultiWayISL:
    @pytest.fixture()
    def three_day_logs(self):
        """Three per-day log tables (the §1 motivating scenario, n=3)."""
        setup = build_setup(EC2_PROFILE, micro_scale=0.05, seed=5)
        import random

        rng = random.Random(3)
        store = setup.platform.store
        phrases = [f"phrase-{i:03d}" for i in range(40)]
        for day in ("day1", "day2", "day3"):
            htable = store.create_table(day, {"d"})
            for i, phrase in enumerate(phrases):
                if i > 0 and rng.random() < 0.2:
                    continue  # not every phrase appears every day
                # phrase-000 tops every day: the top-1 join is found early
                score = 1.0 if i == 0 else round(rng.uniform(0.01, 0.9), 6)
                htable.put(
                    Put(f"{day}-{i:04d}")
                    .add("d", "phrase", encode_str(phrase))
                    .add("d", "freq", encode_float(score))
                )
            htable.flush()
        inputs = [
            RelationBinding(day, join_column="phrase", score_column="freq")
            for day in ("day1", "day2", "day3")
        ]
        return setup, RankJoinQuery.of(inputs, "sum", 5)

    def test_three_way_isl_matches_naive(self, three_day_logs):
        setup, query = three_day_logs
        from repro.relational.binding import load_relation

        relations = [
            load_relation(setup.platform.store, binding)
            for binding in query.inputs
        ]
        truth = naive_rank_join(relations, query.function, query.k)
        algorithm = MultiWayISLRankJoin(setup.platform)
        result = algorithm.execute(query)
        assert result.recall_against(truth) == 1.0
        assert result.scores() == pytest.approx([t.score for t in truth])

    def test_early_termination_saves_reads(self, three_day_logs):
        setup, query = three_day_logs
        algorithm = MultiWayISLRankJoin(setup.platform, batch_rows=4)
        from dataclasses import replace

        query = replace(query, k=1)  # a perfect top-1 terminates shallow
        result = algorithm.execute(query)
        total_rows = sum(
            len(list(setup.platform.store.backing(b.table).all_rows()))
            for b in query.inputs
        )
        seen = sum(
            v for name, v in result.details.items()
            if name.startswith("tuples_seen_")
        )
        assert seen < total_rows

    def test_query_validation(self):
        with pytest.raises(QueryError):
            RankJoinQuery.of(
                [RelationBinding("only", join_column="j", score_column="s")],
                "sum", 1,
            )
        with pytest.raises(QueryError):
            RankJoinQuery.of(
                [RelationBinding("a", join_column="j", score_column="s"),
                 RelationBinding("b", join_column="j", score_column="s")],
                "sum", 0,
            )


# ---------------------------------------------------------------------------
# n-way correctness: operators vs the naive ground truth (arities 2-4)
# ---------------------------------------------------------------------------


def _make_relations(arity: int, shape: str) -> "list[list[ScoredRow]]":
    """Deterministic relation sets exercising ties, empty overlaps, and
    empty-string join values alongside the generic random case."""
    import random

    rng = random.Random(100 + arity)
    values = [f"v{i}" for i in range(6)]
    if shape == "random":
        return [
            rows(
                [(rng.choice(values), round(rng.uniform(0.01, 1.0), 6))
                 for _ in range(14)],
                prefix=f"r{side}_",
            )
            for side in range(arity)
        ]
    if shape == "ties":
        # many identical scores and repeated join values: top-k boundaries
        # fall inside tie groups on every side
        return [
            rows(
                [(values[i % 3], (0.75 if i % 2 else 0.5)) for i in range(10)],
                prefix=f"t{side}_",
            )
            for side in range(arity)
        ]
    if shape == "empty-overlap":
        # the last relation shares no join values: the n-way join is empty
        relations = [
            rows(
                [(rng.choice(values), round(rng.uniform(0.1, 0.9), 6))
                 for _ in range(8)],
                prefix=f"e{side}_",
            )
            for side in range(arity - 1)
        ]
        relations.append(
            rows([("nowhere", 0.9), ("also-nowhere", 0.3)], prefix="last_")
        )
        return relations
    if shape == "empty-string-values":
        # "" is a legitimate join value and must join like any other
        return [
            rows([("", 0.9), (values[0], 0.6), ("", 0.2)], prefix=f"s{side}_")
            for side in range(arity)
        ]
    raise AssertionError(shape)


SHAPES = ["random", "ties", "empty-overlap", "empty-string-values"]


def _load_tables(platform: Platform, relations) -> "list[RelationBinding]":
    bindings = []
    for index, relation in enumerate(relations):
        name = f"rel{index}"
        htable = platform.store.create_table(name, {"d"})
        for row in relation:
            htable.put(
                Put(row.row_key)
                .add("d", "j", encode_str(row.join_value))
                .add("d", "s", encode_float(row.score))
            )
        htable.flush()
        bindings.append(
            RelationBinding(name, join_column="j", score_column="s",
                            alias=f"R{index}")
        )
    return bindings


class TestNWayCorrectness:
    """Cross-check the n-way operators against the naive oracle."""

    @pytest.mark.parametrize("arity", [2, 3, 4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_hrjn_matches_naive(self, arity, shape):
        relations = _make_relations(arity, shape)
        function = SumFunction()
        for k in (1, 5):
            truth = naive_rank_join(relations, function, k)
            results, _ = hrjn_join(relations, function, k)
            assert [round(t.score, 9) for t in results] == [
                round(t.score, 9) for t in truth
            ], (arity, shape, k)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bfhm_cascade_matches_naive(self, arity, shape):
        relations = _make_relations(arity, shape)
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, relations)
        function = SumFunction()
        k = 5
        truth = naive_rank_join(relations, function, k)
        algorithm = BFHMCascadeRankJoin(platform)
        result = algorithm.execute(
            RankJoinQuery(inputs=tuple(bindings), function=function, k=k)
        )
        assert result.recall_against(truth) == 1.0, (arity, shape)
        assert [round(t.score, 9) for t in result.tuples] == [
            round(t.score, 9) for t in truth
        ], (arity, shape)

    @pytest.mark.parametrize("function", [
        ProductFunction(), MaxFunction(), MinFunction(),
        WeightedSumFunction([0.5, 1.0, 2.0]),
    ])
    def test_bfhm_cascade_other_functions(self, function):
        relations = _make_relations(3, "random")
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, relations)
        truth = naive_rank_join(relations, function, 4)
        algorithm = BFHMCascadeRankJoin(platform)
        result = algorithm.execute(
            RankJoinQuery(inputs=tuple(bindings), function=function, k=4)
        )
        assert result.recall_against(truth) == 1.0
        assert result.scores() == pytest.approx([t.score for t in truth])

    def test_hrjn_pipeline_matches_naive(self):
        relations = _make_relations(3, "random")
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, relations)
        function = SumFunction()
        truth = naive_rank_join(relations, function, 5)
        algorithm = MultiWayHRJNRankJoin(platform)
        result = algorithm.execute(
            RankJoinQuery(inputs=tuple(bindings), function=function, k=5)
        )
        assert result.recall_against(truth) == 1.0
        assert result.metrics.kv_reads > 0  # the scans are metered

    def test_cascade_repair_loop_expands_truncated_stages(self):
        """A pair pruned from an intermediate top-k' must be recovered
        when its completion with a later relation beats the final top-k:
        R1⋈R2 ranks (a) above (b), but only (b) has a huge R3 partner."""
        r1 = rows([("a", 0.9), ("b", 0.8)], "x")
        r2 = rows([("a", 0.9), ("b", 0.8)], "y")
        r3 = rows([("b", 1.0), ("a", 0.001)], "z")
        # partials: a = 1.8 > b = 1.6, so a truncated stage-1 top-1 keeps
        # only (a); totals: b = 2.6 > a = 1.801, so the final winner is the
        # pruned pair — only the repair loop can recover it
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, [r1, r2, r3])
        function = SumFunction()
        truth = naive_rank_join([r1, r2, r3], function, 1)
        assert truth[0].join_value == "b"
        algorithm = BFHMCascadeRankJoin(platform)
        result = algorithm.execute(
            RankJoinQuery(inputs=tuple(bindings), function=function, k=1)
        )
        assert result.scores() == pytest.approx([t.score for t in truth])
        assert result.recall_against(truth) == 1.0
        assert result.details["cascade_rounds"] >= 1


class TestNWayGuards:
    def test_binary_algorithms_reject_higher_arity(self):
        """A two-way algorithm must not silently join only the first two
        inputs of an n-ary query (direct use bypasses engine dispatch)."""
        from repro.core.bfhm.algorithm import BFHMRankJoin

        relations = _make_relations(3, "random")
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, relations)
        query = RankJoinQuery(inputs=tuple(bindings),
                              function=SumFunction(), k=3)
        with pytest.raises(QueryError):
            BFHMRankJoin(platform).execute(query)

    def test_cascade_cleans_up_temp_state(self):
        """Temp tables, build reports, and update-manager metas of the
        materialized intermediates must not accumulate across queries."""
        relations = _make_relations(3, "random")
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, relations)
        algorithm = BFHMCascadeRankJoin(platform)
        query = RankJoinQuery(inputs=tuple(bindings),
                              function=SumFunction(), k=3)
        for _ in range(2):
            algorithm.execute(query)
        leaked_tables = [
            name for name in platform.store.table_names()
            if name.startswith("bfhm_cascade_tmp_")
        ]
        assert leaked_tables == []
        manager = algorithm._binary.update_manager
        assert not [
            key for key in manager._metas if key.startswith("bfhm_cascade_tmp_")
        ]
        assert not [
            key for key in algorithm._binary._build_reports
            if key.startswith("bfhm_cascade_tmp_")
        ]
        # the intermediates' BFHM families (blob/reverse/meta rows in the
        # shared index table) must be physically dropped too
        from repro.core.indexes import BFHM_TABLE

        backing = platform.store.backing(BFHM_TABLE)
        assert not [
            family for family in backing.families
            if family.startswith("bfhm_cascade_tmp_")
        ]
        for row in backing.all_rows():
            assert not [
                cell for cell in row
                if cell.family.startswith("bfhm_cascade_tmp_")
            ], row.row

    def test_cascade_bill_is_independent_of_process_history(self):
        """Temp-table names are numbered per store, so a cascade on a fresh
        platform meters the same bytes however many temp tables another
        platform in the same process has made before it."""
        relations = _make_relations(4, "random")

        def cascade(platform):
            bindings = _load_tables(platform, relations)
            query = RankJoinQuery(inputs=tuple(bindings),
                                  function=SumFunction(), k=3)
            return BFHMCascadeRankJoin(platform), query

        first = Platform(EC2_PROFILE)
        algorithm, query = cascade(first)
        bills = [algorithm.execute(query).metrics for _ in range(6)]
        probe = first.store.temp_table_name("probe_")
        assert int(probe.removeprefix("probe_")) > 10  # >= 10 temp tables

        second = Platform(EC2_PROFILE)
        algorithm, query = cascade(second)
        assert algorithm.execute(query).metrics == bills[0]

    def test_cascade_handles_separator_in_row_keys(self):
        """Base row keys containing the composition separator must not
        collide in the intermediate expansion."""
        r1 = [ScoredRow("x", "a", 0.9), ScoredRow("x|y", "a", 0.8)]
        r2 = [ScoredRow("y|z", "a", 0.7), ScoredRow("z", "a", 0.6)]
        r3 = [ScoredRow("w", "a", 0.5)]
        platform = Platform(EC2_PROFILE)
        bindings = _load_tables(platform, [r1, r2, r3])
        function = SumFunction()
        truth = naive_rank_join([r1, r2, r3], function, 4)
        algorithm = BFHMCascadeRankJoin(platform)
        result = algorithm.execute(
            RankJoinQuery(inputs=tuple(bindings), function=function, k=4)
        )
        assert result.scores() == pytest.approx([t.score for t in truth])
        # each result's component keys reconstruct the original rows
        keysets = {t.keys for t in result.tuples}
        assert ("x", "y|z", "w") in keysets
        assert ("x|y", "z", "w") in keysets

    def test_ambiguous_positional_bindings_rejected(self):
        bindings = [
            RelationBinding(f"t{i}", join_column="j", score_column="s")
            for i in range(3)
        ]
        with pytest.raises(TypeError):
            RankJoinQuery(bindings[0], bindings[1], bindings[2],
                          SumFunction(), 1)


class TestCascadeStageAlgebra:
    """stage_functions must decompose exactly: composing the per-stage
    binary aggregates (with normalization) reproduces the n-ary score."""

    @pytest.mark.parametrize("arity", [2, 3, 4, 5])
    @pytest.mark.parametrize("function", [
        SumFunction(), ProductFunction(), MaxFunction(), MinFunction(),
    ])
    def test_composition_identity(self, arity, function):
        import random

        rng = random.Random(7)
        fn = function
        stages = stage_functions(fn, arity)
        for _ in range(25):
            scores = [rng.uniform(0.0, 1.0) for _ in range(arity)]
            partial = scores[0]
            for j, (stage_fn, _) in enumerate(stages):
                if j == 0:
                    stored = partial
                else:
                    upper = stages[j - 1][1]
                    stored = partial / (upper if upper > 0 else 1.0)
                partial = stage_fn(stored, scores[j + 1])
            assert partial == pytest.approx(fn.combine(scores), abs=1e-9)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_weighted_sum_composition(self, arity):
        import random

        rng = random.Random(11)
        weights = [rng.uniform(0.0, 2.0) for _ in range(arity)]
        fn = WeightedSumFunction(weights)
        stages = stage_functions(fn, arity)
        for _ in range(25):
            scores = [rng.uniform(0.0, 1.0) for _ in range(arity)]
            partial = scores[0]
            for j, (stage_fn, _) in enumerate(stages):
                if j == 0:
                    stored = partial
                else:
                    upper = stages[j - 1][1]
                    stored = partial / (upper if upper > 0 else 1.0)
                partial = stage_fn(stored, scores[j + 1])
            assert partial == pytest.approx(fn.combine(scores), abs=1e-9)

    def test_undecomposable_function_rejected(self):
        from repro.common.functions import AggregateFunction

        class Opaque(AggregateFunction):
            name = "opaque"

            def combine(self, scores):
                return min(1.0, sum(scores))

        with pytest.raises(QueryError):
            stage_functions(Opaque(), 3)


class TestGeneralizedThresholdBound:
    """The n-way threshold S = max_i f(tops with slot i at the frontier)
    upper-bounds every join tuple produced after the moment S was read."""

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_threshold_dominates_future_results(self, arity):
        relations = [
            sorted(relation, key=lambda r: (-r.score, r.row_key))
            for relation in _make_relations(arity, "random")
        ]
        function = SumFunction()
        # k covers the full join, so the buffer keeps every tuple produced
        full_size = len(full_join_multi(relations, function))
        operator = HRJNOperator(arity, function, k=max(1, full_size))
        positions = [0] * arity
        log = []  # (threshold at time t, scores produced after t)
        side = 0
        while any(positions[s] < len(relations[s]) for s in range(arity)):
            while positions[side] >= len(relations[side]):
                side = (side + 1) % arity
            before = set(operator.results)
            operator.add(side, relations[side][positions[side]])
            produced = set(operator.results) - before
            positions[side] += 1
            threshold = operator.threshold()
            for entry in log:
                entry[1].extend(t.score for t in produced)
            if threshold is not None:
                log.append((threshold, []))
            side = (side + 1) % arity
        for threshold, later_scores in log:
            for score in later_scores:
                assert score <= threshold + 1e-9
