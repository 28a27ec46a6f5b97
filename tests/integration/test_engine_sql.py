"""The engine facade and the SQL path end to end."""

import pytest

from repro.core.isl import ISLRankJoin
from repro.errors import PlanningError
from repro.tpch.queries import Q1_SQL, Q2_SQL, q1


class TestSQLPath:
    def test_q1_sql_equals_bound_query(self, shared_setup):
        engine = shared_setup.engine
        via_sql = engine.sql(Q1_SQL.format(k=10), algorithm="bfhm")
        via_spec = engine.execute(q1(10), algorithm="bfhm")
        assert via_sql.scores() == via_spec.scores()

    def test_q2_sql_runs(self, shared_setup):
        result = shared_setup.engine.sql(Q2_SQL.format(k=5), algorithm="isl")
        assert len(result.tuples) == 5

    def test_sql_weighted_sum(self, shared_setup):
        result = shared_setup.engine.sql(
            "SELECT * FROM orders O, lineitem L WHERE O.orderkey = L.orderkey "
            "ORDER BY 0.8 * O.totalprice + 0.2 * L.extendedprice STOP AFTER 5",
            algorithm="isl",
        )
        assert len(result.tuples) == 5
        scores = result.scores()
        assert scores == sorted(scores, reverse=True)


THREE_WAY_SQL = (
    "SELECT * FROM part P, lineitem L1, lineitem L2 "
    "WHERE P.partkey = L1.partkey AND L1.partkey = L2.partkey "
    "ORDER BY P.retailprice + L1.extendedprice + L2.discount "
    "STOP AFTER {k}"
)


class TestNWaySQLPath:
    """Arity >= 3 queries through the same parser -> planner -> engine
    stack (the ISSUE-4 acceptance path)."""

    def _truth(self, engine, query):
        from repro.relational.binding import load_relation
        from repro.relational.naive import naive_rank_join

        relations = [
            load_relation(engine.platform.store, binding)
            for binding in query.inputs
        ]
        return naive_rank_join(relations, query.function, query.k)

    def test_three_way_auto_end_to_end(self, tiny_engine):
        from repro.query.parser import parse_rank_join

        result = tiny_engine.sql(THREE_WAY_SQL.format(k=5))  # algorithm=auto
        assert tiny_engine.last_plan is not None
        assert tiny_engine.last_plan.chosen in ("isl", "hrjn", "bfhm",
                                                "bfhm-cascade", "isl-nway",
                                                "hrjn-nway")
        query = parse_rank_join(THREE_WAY_SQL.format(k=5))
        truth = self._truth(tiny_engine, query)
        assert result.recall_against(truth) == 1.0
        assert result.scores() == pytest.approx([t.score for t in truth])

    def test_three_way_explain_shows_cascade_stage_cost_lines(self, tiny_engine):
        plan = tiny_engine.explain(THREE_WAY_SQL.format(k=5))
        estimate = plan.estimate("bfhm-cascade")
        assert any(c.startswith("s1 ") for c in estimate.breakdown)
        assert any(c.startswith("s2 ") for c in estimate.breakdown)
        rendered = plan.render()
        assert "BFHM-cascade" in rendered
        assert "s1 bucket fetch" in rendered
        # every input relation's statistics line is rendered
        for label in ("P", "L1", "L2"):
            assert label in rendered

    def test_three_way_explain_does_not_execute(self, tiny_engine):
        platform = tiny_engine.platform
        before = platform.metrics.snapshot()
        tiny_engine.explain(THREE_WAY_SQL.format(k=5))
        delta = platform.metrics.snapshot() - before
        assert delta.sim_time_s == 0.0
        assert delta.kv_reads == 0

    def test_each_strategy_reaches_full_recall(self, tiny_engine):
        from repro.query.parser import parse_rank_join

        query = parse_rank_join(THREE_WAY_SQL.format(k=4))
        truth = self._truth(tiny_engine, query)
        for name in ("isl", "hrjn", "bfhm"):
            result = tiny_engine.execute(query, algorithm=name)
            assert result.recall_against(truth) == 1.0, name

    def test_display_names_accepted_everywhere(self, tiny_engine):
        """The names EXPLAIN emits (BFHM-cascade, ISL-nway, ...) resolve
        both in execution dispatch and in plan(algorithms=...)."""
        from repro.query.parser import parse_rank_join

        query = parse_rank_join(THREE_WAY_SQL.format(k=3))
        plan = tiny_engine.plan(query, algorithms=["BFHM-cascade", "ISL-nway"])
        assert {e.algorithm for e in plan.estimates} == {"BFHM-cascade", "ISL"}
        result = tiny_engine.execute(query, algorithm="bfhm-cascade")
        assert result.algorithm == "BFHM-cascade"

    def test_register_multiway_custom_instance(self, tiny_engine):
        from repro.core.hrjn import MultiWayHRJNRankJoin
        from repro.query.parser import parse_rank_join

        custom = MultiWayHRJNRankJoin(tiny_engine.platform)
        tiny_engine.register_multiway("my-pipeline", custom)
        query = parse_rank_join(THREE_WAY_SQL.format(k=2))
        result = tiny_engine.execute(query, algorithm="my-pipeline")
        assert result.algorithm == "HRJN-nway"


class TestEngine:
    def test_unknown_algorithm_rejected(self, shared_setup):
        with pytest.raises(PlanningError):
            shared_setup.engine.execute(q1(1), algorithm="quantum")

    def test_algorithm_instances_cached(self, shared_setup):
        engine = shared_setup.engine
        assert engine.algorithm("isl") is engine.algorithm("ISL")

    def test_register_custom_instance(self, shared_setup):
        custom = ISLRankJoin(shared_setup.platform, batch_rows=11)
        shared_setup.engine.register("isl-tuned", custom)
        assert shared_setup.engine.algorithm("isl-tuned") is custom

    def test_prepare_returns_reports(self, tiny_engine):
        reports = tiny_engine.prepare(q1(1), algorithms=["isl", "bfhm"])
        assert len(reports) == 4  # two relations x two algorithms
        assert all(r.index_bytes > 0 for r in reports)

    def test_algorithm_kwargs_forwarded(self, tiny_engine):
        from repro.query.engine import RankJoinEngine

        engine = RankJoinEngine(
            tiny_engine.platform, isl={"batch_rows": 13}
        )
        assert engine.algorithm("isl").batch_rows == 13
