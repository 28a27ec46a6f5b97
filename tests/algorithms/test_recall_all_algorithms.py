"""Every algorithm returns exactly the ground-truth top-k scores.

This is the paper's central correctness claim exercised across all six
approaches on the shared TPC-H workload (both queries, several ks), plus a
property-based sweep over random relations for the coordinator algorithms.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.common.serialization import encode_float, encode_str
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.relational.naive import naive_rank_join
from repro.store.client import Put
from repro.tpch.queries import q1, q2

ALGORITHMS = ["hive", "pig", "ijlmr", "isl", "bfhm", "drjn"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("query_factory", [q1, q2], ids=["Q1", "Q2"])
@pytest.mark.parametrize("k", [1, 10, 50])
def test_recall_is_perfect(shared_setup, algorithm, query_factory, k):
    query = query_factory(k)
    truth = shared_setup.ground_truth(query, k)
    result = shared_setup.engine.execute(query, algorithm=algorithm)
    assert result.recall_against(truth) == 1.0
    assert len(result.tuples) == len(truth)
    # scores must be in non-increasing order
    scores = result.scores()
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_k_larger_than_result_set(shared_setup, algorithm):
    """STOP AFTER k with k beyond the join size returns everything."""
    query = q1(10_000)
    truth = shared_setup.ground_truth(query, 10_000)
    result = shared_setup.engine.execute(query, algorithm=algorithm)
    assert result.recall_against(truth) == 1.0
    assert len(result.tuples) == len(truth)


# -- property-based sweep over synthetic relations ---------------------------

join_values = st.sampled_from(["a", "b", "c", "d", "e"])
scores = st.floats(min_value=0.0, max_value=1.0)
relation = st.lists(st.tuples(join_values, scores), min_size=1, max_size=25)


@given(left=relation, right=relation,
       k=st.integers(min_value=1, max_value=8),
       fn=st.sampled_from(["sum", "product"]))
@settings(max_examples=25, deadline=None)
def test_coordinator_algorithms_on_random_relations(left, right, k, fn):
    """ISL and BFHM against naive ground truth on arbitrary relations."""
    platform_setup = _load_synthetic(left, right)
    setup, query = platform_setup
    query = RankJoinQuery.of(query.left, query.right, fn, k)
    truth = naive_rank_join(
        [_scored(left, "L"), _scored(right, "R")], query.function, k
    )
    for algorithm in ("isl", "bfhm"):
        result = setup.engine.execute(query, algorithm=algorithm)
        assert result.recall_against(truth) == 1.0, (
            f"{algorithm} missed results for k={k} fn={fn}"
        )


def _scored(spec, prefix):
    from repro.common.types import ScoredRow

    return [ScoredRow(f"{prefix}{i}", v, s) for i, (v, s) in enumerate(spec)]


def _load_synthetic(left, right):
    setup = build_setup(EC2_PROFILE, micro_scale=0.05, seed=99)
    store = setup.platform.store
    for name, spec, prefix in (("syn_left", left, "L"), ("syn_right", right, "R")):
        htable = store.create_table(name, {"d"})
        for i, (value, score) in enumerate(spec):
            htable.put(
                Put(f"{prefix}{i}")
                .add("d", "jv", encode_str(value))
                .add("d", "sc", encode_float(score))
            )
        htable.flush()
    query = RankJoinQuery.of(
        RelationBinding("syn_left", join_column="jv", score_column="sc"),
        RelationBinding("syn_right", join_column="jv", score_column="sc"),
        "sum",
        1,
    )
    return setup, query
