"""The paper's running example (Figs. 1–6), end to end.

R1 and R2 are the 11+11 tuple relations of Fig. 1.  The tests verify the
index tables the paper draws (Fig. 2 for IJLMR, Fig. 3 for ISL, Fig. 5/6
for BFHM with 10 buckets) and that every algorithm returns the exact top-k
under the sum scoring function used in Fig. 6(c).
"""

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.common.serialization import (
    decode_score_key,
    decode_str,
    encode_float,
    encode_str,
)
from repro.common.types import ScoredRow
from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.bfhm.index import BFHMIndexBuilder
from repro.core.ijlmr import IJLMRRankJoin
from repro.core.indexes import IJLMR_TABLE, ISL_TABLE
from repro.core.isl import ISLRankJoin
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.relational.naive import naive_rank_join
from repro.store.client import Put

#: Fig. 1 — tuples of R1 and R2 as (row key, join value, score)
R1 = [
    ("r1_1", "d", 0.82), ("r1_2", "c", 0.93), ("r1_3", "c", 0.67),
    ("r1_4", "d", 0.82), ("r1_5", "a", 0.73), ("r1_6", "c", 0.79),
    ("r1_7", "b", 0.82), ("r1_8", "b", 0.70), ("r1_9", "d", 0.68),
    ("r1_10", "a", 1.00), ("r1_11", "b", 0.64),
]
R2 = [
    ("r2_1", "a", 0.51), ("r2_2", "b", 0.91), ("r2_3", "c", 0.64),
    ("r2_4", "d", 0.53), ("r2_5", "d", 0.41), ("r2_6", "d", 0.50),
    ("r2_7", "a", 0.35), ("r2_8", "a", 0.38), ("r2_9", "a", 0.37),
    ("r2_10", "c", 0.31), ("r2_11", "b", 0.92),
]


@pytest.fixture(scope="module")
def example():
    setup = build_setup(EC2_PROFILE, micro_scale=0.05, seed=1)
    store = setup.platform.store
    for name, tuples in (("R1", R1), ("R2", R2)):
        htable = store.create_table(name, {"d"})
        for row_key, join_value, score in tuples:
            htable.put(
                Put(row_key)
                .add("d", "jv", encode_str(join_value))
                .add("d", "sc", encode_float(score))
            )
        htable.flush()
    query = RankJoinQuery.of(
        RelationBinding("R1", join_column="jv", score_column="sc"),
        RelationBinding("R2", join_column="jv", score_column="sc"),
        "sum",
        3,
    )
    return setup, query


def scored(tuples):
    return [ScoredRow(k, v, s) for k, v, s in tuples]


class TestGroundTruth:
    def test_top3_by_sum(self, example):
        """Fig. 6(c) rows 1–2: the actual top scores are b-joins
        (0.82+0.92, 0.82+0.91 twice ...)."""
        truth = naive_rank_join([scored(R1), scored(R2)], _sum(), 3)
        # b-joins dominate: 0.82+0.92, 0.82+0.91, then 0.70+0.92
        assert [round(t.score, 2) for t in truth] == [1.74, 1.73, 1.62]
        assert truth[0].join_value == "b"


def _sum():
    from repro.common.functions import SumFunction

    return SumFunction()


class TestIJLMRIndex:
    def test_matches_figure_2(self, example):
        setup, query = example
        IJLMRRankJoin(setup.platform).prepare(query)
        index = setup.platform.store.backing(IJLMR_TABLE)

        row_a = index.read_row("a", families={query.left.signature})
        assert {c.qualifier for c in row_a} == {"r1_10", "r1_5"}
        row_a_r2 = index.read_row("a", families={query.right.signature})
        assert {c.qualifier for c in row_a_r2} == {"r2_1", "r2_7", "r2_8", "r2_9"}
        row_d = index.read_row("d", families={query.left.signature})
        assert {c.qualifier for c in row_d} == {"r1_1", "r1_4", "r1_9"}


class TestISLIndex:
    def test_matches_figure_3(self, example):
        setup, query = example
        ISLRankJoin(setup.platform).prepare(query)
        index = setup.platform.store.backing(ISL_TABLE)

        rows = list(index.all_rows(families={query.left.signature}))
        scores = [decode_score_key(r.row) for r in rows]
        assert scores[0] == pytest.approx(1.00)  # r1_10 first
        assert scores == sorted(scores, reverse=True)
        first = rows[0]
        assert first.cells[0].qualifier == "r1_10"
        assert decode_str(first.cells[0].value) == "a"
        # equal scores share an index row: r1_1, r1_4, r1_7 at 0.82
        row_082 = next(r for r in rows
                       if decode_score_key(r.row) == pytest.approx(0.82))
        assert {c.qualifier for c in row_082} == {"r1_1", "r1_4", "r1_7"}


class TestBFHMExample:
    @pytest.fixture(scope="class")
    def bfhm(self, example):
        setup, query = example
        algorithm = BFHMRankJoin(setup.platform, num_buckets=10)
        algorithm.prepare(query)
        return setup, query, algorithm

    def test_bucket_stats_match_figure_6a(self, bfhm):
        """R1's BFHM: bucket (0.9,1.0] min 0.93 max 1.00; (0.8,0.9]
        min/max 0.82; etc."""
        setup, query, algorithm = bfhm
        builder = BFHMIndexBuilder(setup.platform, num_buckets=10)
        meta = builder.read_meta(setup.platform, query.left.signature)
        from repro.core.bfhm.estimation import decode_plain_bucket_row
        from repro.core.bfhm.bucket import blob_row_key

        index = setup.platform.store.backing("bfhm_idx")

        def bucket_data(bucket):
            row = index.read_row(blob_row_key(bucket), families={meta.family})
            return decode_plain_bucket_row(meta.family, bucket, row)

        top = bucket_data(0)
        assert top.min_score == pytest.approx(0.93)
        assert top.max_score == pytest.approx(1.00)
        assert top.count == 2  # r1_2 (0.93), r1_10 (1.00)
        second = bucket_data(1)
        assert second.min_score == pytest.approx(0.82)
        assert second.max_score == pytest.approx(0.82)
        assert second.count == 3  # r1_1, r1_4, r1_7
        assert 0 in meta.buckets and 1 in meta.buckets

    def test_r2_bucket_0_is_the_b_pair(self, bfhm):
        setup, query, algorithm = bfhm
        from repro.core.bfhm.estimation import decode_plain_bucket_row
        from repro.core.bfhm.bucket import blob_row_key

        builder = BFHMIndexBuilder(setup.platform, num_buckets=10)
        meta = builder.read_meta(setup.platform, query.right.signature)
        index = setup.platform.store.backing("bfhm_idx")
        row = index.read_row(blob_row_key(0), families={meta.family})
        data = decode_plain_bucket_row(meta.family, 0, row)
        assert data.count == 2  # r2_2 (0.91), r2_11 (0.92)
        assert data.min_score == pytest.approx(0.91)
        assert data.max_score == pytest.approx(0.92)

    def test_top3_exact(self, bfhm):
        setup, query, algorithm = bfhm
        result = algorithm.execute(query)
        truth = naive_rank_join([scored(R1), scored(R2)], _sum(), 3)
        assert result.recall_against(truth) == 1.0
        assert [round(t.score, 2) for t in result.tuples] == [1.74, 1.73, 1.62]

    def test_estimation_trace_contains_figure_6c_top_row(self, bfhm):
        """The first estimated result joins R1's (0.8,0.9] with R2's
        (0.9,1.0]: 2 estimated tuples, scores in [1.73, 1.74]."""
        setup, query, algorithm = bfhm
        from repro.core.bfhm.estimation import BFHMEstimator

        metas = tuple(
            algorithm.update_manager.meta(s)
            for s in (query.left.signature, query.right.signature)
        )
        estimator = BFHMEstimator(
            setup.platform,
            (metas[0].family, metas[1].family),
            metas, query.function,
            update_manager=algorithm.update_manager,
        )
        estimator.run_until(3)
        top = max(estimator.results, key=lambda r: r.max_score)
        assert top.left_bucket == 1 and top.right_bucket == 0
        assert round(top.min_score, 2) == 1.73
        assert round(top.max_score, 2) == 1.74
        # true join size is 2; α-compensation discounts slightly because
        # the example's filters are tiny (m is sized for 4-tuple buckets)
        assert 1.5 <= top.cardinality <= 2.01


class TestAllAlgorithmsOnExample:
    @pytest.mark.parametrize("algorithm", ["hive", "pig", "ijlmr", "isl",
                                           "bfhm", "drjn"])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_exact_topk(self, example, algorithm, k):
        setup, query = example
        query = RankJoinQuery(inputs=query.inputs, function=query.function, k=k)
        truth = naive_rank_join([scored(R1), scored(R2)], query.function, k)
        result = setup.engine.execute(query, algorithm=algorithm)
        assert result.recall_against(truth) == 1.0
