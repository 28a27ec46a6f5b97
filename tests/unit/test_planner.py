"""Unit tests: cost formulas, plan ranking, and statistics caching."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE, LC_PROFILE
from repro.common.functions import AggregateFunction, WeightedSumFunction
from repro.common.serialization import encode_float, encode_str
from repro.errors import PlanningError, QueryError
from repro.query import planner as planner_module
from repro.query.engine import RankJoinEngine
from repro.query.parser import parse_rank_join
from repro.query.planner import (
    CostEstimate,
    CostLedger,
    QueryPlanner,
    _golomb_blob_bytes,
    _join_selectivity,
    _profile,
    _simulate_bfhm,
    _simulate_hrjn,
)
from repro.query.statistics import (
    BFHMIndexStatistics,
    StatisticsCatalog,
    gather_statistics,
)
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.store.client import Put
from repro.store.table import StoreTable
from repro.tpch.queries import q1, q2
from tests.integration.test_golden_plans import WEIGHTED_Q2_SQL, _pinned, _queries


class TestCostLedger:
    def test_rpc_charges_latency_plus_transfer(self):
        ledger = CostLedger(EC2_PROFILE)
        ledger.rpc("x", 64, 1000)
        assert ledger.network_bytes == 1064
        expected = EC2_PROFILE.rpc_latency_s + EC2_PROFILE.network_time(1064)
        assert ledger.time_s == pytest.approx(expected)
        assert ledger.breakdown["x"] == pytest.approx(expected)

    def test_server_read_sequential_vs_random(self):
        sequential = CostLedger(LC_PROFILE)
        sequential.server_read("x", 4096, 10, sequential=True)
        random = CostLedger(LC_PROFILE)
        random.server_read("x", 4096, 10, sequential=False)
        assert random.time_s - sequential.time_s == pytest.approx(
            LC_PROFILE.disk_random_read_s
        )
        assert sequential.kv_reads == random.kv_reads == 10

    def test_server_read_rows_seeks_per_row(self):
        """Reverse-mapping reads seek once per row, not once per call."""
        ledger = CostLedger(LC_PROFILE)
        ledger.server_read_rows("x", 50, 5000, 60)
        single = CostLedger(LC_PROFILE)
        single.server_read("x", 5000, 60, sequential=False)
        extra_seeks = 49 * LC_PROFILE.disk_random_read_s
        assert ledger.time_s == pytest.approx(single.time_s + extra_seeks)

    def test_components_accumulate_into_time(self):
        ledger = CostLedger(EC2_PROFILE)
        ledger.add_time("a", 1.0)
        ledger.add_time("b", 2.0)
        ledger.add_time("a", 0.5)
        assert ledger.time_s == pytest.approx(3.5)
        assert ledger.breakdown == {"a": 1.5, "b": 2.0}


class TestStatistics:
    def test_gather_counts_rows_and_join_values(self, shared_setup):
        query = q1(1)
        stats = gather_statistics(shared_setup.platform, query.left)
        assert stats.row_count == 40
        assert stats.distinct_join_values == 40
        histogram = stats.histogram
        assert sum(
            histogram.bucket(bucket).count
            for bucket in histogram.non_empty_buckets()
        ) == 40
        assert stats.total_row_bytes > 0

    def test_gather_sees_built_indexes(self, shared_setup):
        query = q1(1)
        stats = gather_statistics(shared_setup.platform, query.left)
        for kind in ("ijlmr", "isl", "bfhm", "drjn"):
            assert stats.index(kind).built, kind
        bfhm = stats.index("bfhm")
        assert isinstance(bfhm, BFHMIndexStatistics)
        assert bfhm.m_bits > 0
        assert bfhm.bucket_blobs  # per-bucket (count, bytes) facts
        assert bfhm.reverse_rows > 0

    def test_gather_captures_bucket_score_profile(self, shared_setup):
        """The cascade replay runs against actual per-bucket facts."""
        stats = gather_statistics(shared_setup.platform, q1(1).left)
        bfhm = stats.index("bfhm")
        assert bfhm.bucket_scores.keys() == bfhm.bucket_blobs.keys()
        profile = bfhm.bucket_profile()
        assert profile
        buckets = [bucket for bucket, _, _, _ in profile]
        assert buckets == sorted(buckets)  # descending score order
        assert sum(count for _, count, _, _ in profile) == stats.row_count
        for _, _, low, high in profile:
            assert 0.0 <= low <= high <= 1.0

    def test_gather_captures_join_profile(self, shared_setup):
        """The 2-D (score bucket × join partition) profile is mass- and
        distinct-preserving."""
        stats = gather_statistics(shared_setup.platform, q1(1).left)
        profile = stats.join_profile
        assert profile is not None
        total = sum(
            count
            for vector in profile.cells.values()
            for count, _ in vector.values()
        )
        assert total == stats.row_count
        assert (sum(profile.partition_distinct.values())
                >= stats.distinct_join_values)

    def test_gather_on_unindexed_relation(self, tiny_engine):
        stats = gather_statistics(tiny_engine.platform, q1(1).left)
        for kind in ("ijlmr", "isl", "bfhm", "drjn"):
            assert not stats.index(kind).built

    def test_gathering_is_unmetered(self, shared_setup):
        before = shared_setup.platform.metrics.snapshot()
        gather_statistics(shared_setup.platform, q2(1).right)
        delta = shared_setup.platform.metrics.snapshot() - before
        assert delta.sim_time_s == 0.0
        assert delta.kv_reads == 0

    def test_empty_relation_rejected(self, empty_platform):
        empty_platform.store.create_table("bare", {"d"})

        with pytest.raises(PlanningError):
            gather_statistics(
                empty_platform, RelationBinding("bare", "j", "s")
            )

    def test_gather_iterates_the_base_table_once(self, shared_setup, monkeypatch):
        """Footprint, histogram and join profile come out of one scan."""
        yielded = Counter()
        real = StoreTable.all_rows

        def counting(table, families=None):
            for row in real(table, families):
                yielded[table.name] += 1
                yield row

        monkeypatch.setattr(StoreTable, "all_rows", counting)
        binding = q2(1).right
        stats = gather_statistics(shared_setup.platform, binding)
        assert yielded[binding.table] == stats.row_count > 0

    def test_row_lacking_its_score_column_fails_the_gather(self, empty_platform):
        """The one-pass gather keeps the typed error of the row decoder,
        naming the row and the table."""
        empty_platform.store.create_table("t", {"d"})
        htable = empty_platform.store.table("t")
        htable.put(
            Put("r1").add("d", "j", encode_str("a")).add("d", "s", encode_float(0.5))
        )
        htable.put(Put("r2").add("d", "j", encode_str("b")))
        with pytest.raises(QueryError, match="row 'r2' of 't' lacks join/score"):
            gather_statistics(empty_platform, RelationBinding("t", "j", "s"))


class TestStatisticsCatalog:
    def test_stats_cached_per_signature(self, shared_setup):
        catalog = StatisticsCatalog(shared_setup.platform)
        first = catalog.stats_for(q1(1).left)
        second = catalog.stats_for(q1(5).left)  # same binding, different k
        assert first is second
        assert catalog.gather_count == 1

    def test_invalidate_drops_only_that_table(self, shared_setup):
        catalog = StatisticsCatalog(shared_setup.platform)
        catalog.stats_for(q1(1).left)     # part
        catalog.stats_for(q1(1).right)    # lineitem
        assert catalog.invalidate("part") == 1
        assert catalog.gather_count == 2
        catalog.stats_for(q1(1).right)    # still cached
        assert catalog.gather_count == 2
        catalog.stats_for(q1(1).left)     # regathered
        assert catalog.gather_count == 3

    def test_maintenance_invalidates_through_interceptor(self, fresh_setup):
        from repro.maintenance.interceptor import MaintainedRelation
        from repro.tpch.loader import orders_binding

        engine = fresh_setup.engine
        binding = orders_binding()
        engine.statistics.stats_for(binding)
        before = engine.statistics.stats_for(binding).row_count

        maintained = MaintainedRelation(
            fresh_setup.platform, binding,
            statistics_catalog=engine.statistics,
        )
        maintained.insert("O_new", {
            "orderkey": "O_new", "totalprice": 0.5, "custkey": "C1",
        })
        after = engine.statistics.stats_for(binding)
        assert after.row_count == before + 1


class TestSimulations:
    def _profiles(self, setup, query):
        left = gather_statistics(setup.platform, query.left)
        right = gather_statistics(setup.platform, query.right)
        return (_profile(left), _profile(right)), _join_selectivity(left, right)

    def test_hrjn_depth_grows_with_k(self, shared_setup):
        profiles, sel = self._profiles(shared_setup, q1(1))
        shallow, _ = _simulate_hrjn(profiles, q1(1).function, 1, (8, 16), sel)
        deep, _ = _simulate_hrjn(profiles, q1(1).function, 50, (8, 16), sel)
        assert sum(deep) > sum(shallow)

    def test_hrjn_depth_bounded_by_relation_size(self, shared_setup):
        profiles, sel = self._profiles(shared_setup, q1(1))
        consumed, _ = _simulate_hrjn(
            profiles, q1(1).function, 10 ** 9, (64, 64), sel
        )
        assert consumed[0] <= profiles[0].total
        assert consumed[1] <= profiles[1].total

    def test_bfhm_buckets_grow_with_k(self, shared_setup):
        profiles, sel = self._profiles(shared_setup, q1(1))
        small = _simulate_bfhm(profiles, q1(1).function, 1, 1000, sel)
        large = _simulate_bfhm(profiles, q1(1).function, 50, 1000, sel)
        assert large.buckets_fetched > small.buckets_fetched
        assert sum(large.reverse_rows) > sum(small.reverse_rows)

    def test_bfhm_simulation_replays_rounds(self, shared_setup):
        """The symbolic cascade reports per-round fetch/row increments
        that sum to the run totals."""
        profiles, sel = self._profiles(shared_setup, q2(1))
        sim = _simulate_bfhm(profiles, q2(1).function, 20, 1000, sel)
        assert sim.rounds and sim.rounds[0].round == 0
        assert sim.repair_rounds == len(sim.rounds) - 1
        assert sim.buckets_fetched == sum(
            len(entry.fetched[0]) + len(entry.fetched[1])
            for entry in sim.rounds
        )
        for side in (0, 1):
            assert sim.reverse_rows[side] == pytest.approx(
                sum(entry.reverse_rows[side] for entry in sim.rounds)
            )
        assert sim.purge_bound is None or sim.purge_bound > 0.0

    def test_golomb_estimate_grows_sublinearly_in_m(self):
        small = _golomb_blob_bytes(100, 1000)
        large = _golomb_blob_bytes(100, 100000)
        assert large > small
        assert large < small * 3  # log growth, not linear


class TestPlanner:
    def test_plan_ranks_all_factories(self, shared_setup):
        plan = shared_setup.engine.plan(q1(10))
        assert [e.algorithm for e in plan.estimates][0] in ("ISL", "BFHM")
        assert len(plan.estimates) == 6
        assert plan.objective == "time"
        times = [e.time_s for e in plan.estimates]
        assert times == sorted(times)

    def test_mr_baselines_priced_above_coordinators(self, shared_setup):
        """Job startup alone (12 s on EC2) dwarfs interactive budgets."""
        plan = shared_setup.engine.plan(q1(10))
        coordinator = min(plan.estimate("isl").time_s, plan.estimate("bfhm").time_s)
        for name in ("hive", "pig", "ijlmr", "drjn"):
            assert plan.estimate(name).time_s > coordinator, name

    def test_hive_worst_on_network(self, shared_setup):
        """No early projection: Hive ships complete rows everywhere."""
        plan = shared_setup.engine.plan(q1(10), objective="network")
        worst = plan.estimates[-1]
        assert worst.algorithm == "HIVE"

    def test_bfhm_cheapest_on_dollars(self, shared_setup):
        """Fig. 7(c)/(f): BFHM's surgical reads win the dollar metric."""
        plan = shared_setup.engine.plan(q1(10), objective="dollars")
        assert plan.chosen == "bfhm"

    def test_objective_changes_ranking_attribute(self, shared_setup):
        plan = shared_setup.engine.plan(q2(5), objective="network")
        nets = [e.network_bytes for e in plan.estimates]
        assert nets == sorted(nets)

    def test_unknown_objective_rejected(self, shared_setup):
        with pytest.raises(PlanningError):
            shared_setup.engine.plan(q1(1), objective="karma")

    def test_estimates_carry_breakdowns_and_notes(self, shared_setup):
        plan = shared_setup.engine.plan(q1(10))
        for estimate in plan.estimates:
            assert isinstance(estimate, CostEstimate)
            assert estimate.breakdown, estimate.algorithm
            assert estimate.time_s == pytest.approx(
                sum(estimate.breakdown.values())
            )
            assert estimate.notes

    def test_subset_of_algorithms(self, shared_setup):
        plan = shared_setup.engine.plan(q1(10), algorithms=["isl", "hive"])
        assert {e.algorithm for e in plan.estimates} == {"ISL", "HIVE"}


def _reference_union_join(matcher, side, index, partners):
    """``union_join`` computed from scratch for every call, as the planner
    did before it kept one union per bucket."""
    mine = matcher._vectors[side][index]
    if mine is None:
        return None
    others = matcher._vectors[1 - side]
    union = {}
    for partner in partners:
        vector = others[partner]
        if vector is None:
            return None
        for partition, (_, distinct) in vector.items():
            union[partition] = union.get(partition, 0.0) + distinct
    shared = 0.0
    union_total = 0.0
    for partition, distinct in union.items():
        size = matcher._universe.get(partition, 1)
        if distinct > size:
            distinct = size
        union_total += distinct
        my_cell = mine.get(partition)
        if my_cell is not None:
            shared += my_cell[1] * distinct / size
    return shared, union_total


def test_union_join_answers_as_if_computed_afresh(shared_setup):
    """The union memo answers prefixes, grows lists that extend the one a
    bucket was last asked about and starts over on any other: every answer
    is bit for bit the from-scratch one, partners without a join vector
    included."""
    query = q2(1)
    stats = [
        gather_statistics(shared_setup.platform, binding)
        for binding in query.inputs
    ]
    matcher = planner_module._JoinMatcher((_profile(stats[0]), _profile(stats[1])))
    vectors = [list(side) for side in matcher._vectors]
    rng = random.Random(5)
    for side in vectors:
        for index in rng.sample(range(len(side)), 3):
            side[index] = None
    matcher._vectors = tuple(vectors)
    last: "dict[tuple[int, int], list[int]]" = {}
    for _ in range(600):
        side = rng.randrange(2)
        index = rng.randrange(len(vectors[side]))
        width = len(vectors[1 - side])
        previous = last.get((side, index), [])
        draw = rng.random()
        if draw < 0.4:
            partners = list(range(rng.randint(1, width)))
        elif draw < 0.8 and len(previous) < width:
            grown = max(previous, default=-1) + 1
            partners = previous + list(range(grown, min(width, grown + rng.randint(1, 6))))
        else:
            partners = sorted(rng.sample(range(width), rng.randint(1, width)))
        last[(side, index)] = partners
        assert matcher.union_join(side, index, partners) == _reference_union_join(
            matcher, side, index, partners
        ), (side, index, partners)


class TestPreparedInputs:
    """What depends only on the statistics is built once, not per plan."""

    @pytest.fixture()
    def projected(self, monkeypatch):
        """Every profile ``_project_join_vectors`` is asked to project
        (the profiles themselves, so their ids stay those of live objects)."""
        profiles = []
        real = planner_module._project_join_vectors

        def recording(profile, join_profile):
            profiles.append(profile)
            return real(profile, join_profile)

        monkeypatch.setattr(planner_module, "_project_join_vectors", recording)
        return profiles

    def test_join_vectors_projected_once_per_side_and_grid(
        self, shared_setup, projected
    ):
        engine = RankJoinEngine(shared_setup.platform)
        plans = [engine.plan(q2(k)) for k in range(1, 11)]
        plans += [
            engine.plan(parse_rank_join(WEIGHTED_Q2_SQL.format(w=w, k=10)))
            for w in (2, 5)
        ]
        assert len({id(plan) for plan in plans}) == 12  # none from a cache
        # two relations x (statistics grid for ISL, index grid for BFHM)
        assert 2 <= len(projected) <= 4
        assert len({id(profile) for profile in projected}) == len(projected)

    def test_an_unbuilt_index_on_the_statistics_grid_shares_the_vectors(
        self, tiny_engine, projected
    ):
        """Unbuilt, BFHM's profile is the histogram's own when the grids
        agree — one projection per side serves both replays."""
        for k in (1, 5, 9):
            tiny_engine.plan(q1(k), algorithms=["isl", "bfhm"])
        assert len(projected) == 2

    def test_new_statistics_replace_the_prepared_side(self, tiny_engine):
        planner = tiny_engine.planner
        tiny_engine.plan(q1(3))
        before = dict(planner._sides)
        tiny_engine.invalidate_statistics("lineitem")
        tiny_engine.plan(q1(3))
        part, lineitem = (
            (s.binding.signature, s.binding.family)
            for s in tiny_engine.statistics.stats_for_query(q1(3))
        )
        assert planner._sides[part] is before[part]
        assert planner._sides[lineitem] is not before[lineitem]
        for matcher_key, matcher in planner._matchers.items():
            assert matcher._vectors[1] is (
                planner._sides[lineitem].profile(matcher_key[2]).join_vectors
            )


class TestPrivatePlanCache:
    def test_hot_shape_survives_a_stream_of_novel_ones(self, tiny_engine):
        """Reaching the limit evicts the plan used longest ago, not every
        plan: a shape planned again and again between 70 novel ones never
        leaves the cache."""
        planner = tiny_engine.planner
        hot = tiny_engine.plan(q1(1), algorithms=["hive"])
        novel = {}
        for k in range(2, 72):
            novel[k] = tiny_engine.plan(q1(k), algorithms=["hive"])
            if k % 10 == 0:
                assert tiny_engine.plan(q1(1), algorithms=["hive"]) is hot
            assert len(planner._plan_cache) <= planner.PLAN_CACHE_LIMIT
        assert tiny_engine.plan(q1(1), algorithms=["hive"]) is hot
        # the novel shapes went out oldest first
        assert tiny_engine.plan(q1(71), algorithms=["hive"]) is novel[71]
        assert tiny_engine.plan(q1(2), algorithms=["hive"]) is not novel[2]


class Scaled(AggregateFunction):
    """``c * s0 + s1``: a parametrised function whose repr hides ``c``."""

    name = "scaled"

    def __init__(self, c: float) -> None:
        self.c = c

    def combine(self, scores):
        return self.c * scores[0] + scores[1]


def _with_function(query, function, k=None):
    return RankJoinQuery(
        inputs=query.inputs, function=function, k=query.k if k is None else k
    )


class TestFunctionKeys:
    """What the planner caches per scoring function is keyed by value."""

    def test_parametrised_functions_get_their_own_plans(self, shared_setup):
        engine = RankJoinEngine(shared_setup.platform)
        one = _with_function(q2(10), Scaled(1.0))
        five = _with_function(q2(10), Scaled(5.0))
        first = engine.plan(one)
        second = engine.plan(five)
        assert second is not first
        fresh = QueryPlanner(engine, catalog=engine.statistics)
        assert _pinned(second) == _pinned(fresh.plan(five))
        assert _pinned(second) != _pinned(first)
        # an identity key still caches the function's own repeat
        assert engine.plan(five) is second

    def test_equal_weights_share_a_cached_plan(self, tiny_engine):
        first = tiny_engine.plan(_with_function(q2(5), WeightedSumFunction([2.0, 1.0])))
        again = tiny_engine.plan(_with_function(q2(5), WeightedSumFunction([2, 1])))
        assert again is first


@pytest.mark.parametrize("servers", (1, 4))
def test_plan_order_changes_no_estimate(servers):
    """Plans read tables other plans filled — and the union memo resumes
    from whatever the previous call left — so a planner that priced other
    shapes first must still give every shape, field for field, the plan a
    brand-new planner gives it."""
    setup = build_setup(EC2_PROFILE, micro_scale=0.2, seed=42, num_servers=servers)
    engine = setup.engine
    shapes = dict(_queries())
    shapes["Q2w3a_k20"] = _with_function(q2(20), WeightedSumFunction([3.0, 1.0]))
    shapes["Q2w3b_k40"] = _with_function(q2(40), WeightedSumFunction([3.0, 1.0]))
    shapes["Q2w1-3_k20"] = _with_function(q2(20), WeightedSumFunction([1.0, 3.0]))
    order = sorted(shapes)
    random.Random(20140707).shuffle(order)
    for state in ("unbuilt", "built"):
        if state == "built":
            engine.prepare(q1(1))
            engine.prepare(q2(1))
        for label in order:
            fresh = QueryPlanner(engine, catalog=engine.statistics)
            assert _pinned(engine.plan(shapes[label])) == _pinned(
                fresh.plan(shapes[label])
            ), f"{state}/{label}"
