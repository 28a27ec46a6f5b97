"""N-way rank joins as a measured workload (§3 made concrete).

A small 3-way / 4-way TPC-H grid over the shared ``partkey`` attribute:

* 3-way: ``part(retailprice) ⋈ lineitem(extendedprice) ⋈ lineitem(discount)``
* 4-way: the 3-way plus ``lineitem(tax)``

Every cell measures all three n-way strategies — the ISL coordinator
(`MultiWayISLRankJoin`), the index-free HRJN pipeline, and the left-deep
BFHM cascade — asserting 100% recall against the naive n-way ground truth
and that ``algorithm="auto"`` plans and runs end to end.

The per-cell report (simulated seconds, network bytes, KV reads, and the
planner's pick) is simulated-only, hence a pure function of seed and store
state: the suite fails on *any* difference from the committed
``BENCH_multiway.json``, and ``make regen`` rewrites it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding, load_relation
from repro.relational.naive import naive_rank_join
from tests.committed import assert_matches_committed

MICRO_SCALE = 0.3
SEED = 42
KS = [1, 10, 25]
ALGORITHMS = ["isl", "hrjn", "bfhm"]

BASELINE_PATH = Path(__file__).parent.parent / "BENCH_multiway.json"

_CACHE: dict = {}


def _bindings(arity: int) -> "list[RelationBinding]":
    inputs = [
        RelationBinding("part", join_column="partkey",
                        score_column="retailprice", alias="P"),
        RelationBinding("lineitem", join_column="partkey",
                        score_column="extendedprice", alias="L1"),
        RelationBinding("lineitem", join_column="partkey",
                        score_column="discount", alias="L2"),
        RelationBinding("lineitem", join_column="partkey",
                        score_column="tax", alias="L3"),
    ]
    return inputs[:arity]


@pytest.fixture(scope="session")
def multiway_setup():
    setup = build_setup(EC2_PROFILE, micro_scale=MICRO_SCALE, seed=SEED)
    for arity in (3, 4):
        query = RankJoinQuery.of(_bindings(arity), "sum", 1)
        setup.engine.prepare(query, algorithms=["isl", "bfhm"])
    return setup


def _grid(setup):
    """Measure every (arity, k, algorithm) cell once per session."""
    if "grid" in _CACHE:
        return _CACHE["grid"]
    cells = []
    for arity in (3, 4):
        bindings = _bindings(arity)
        relations = [
            load_relation(setup.platform.store, binding)
            for binding in bindings
        ]
        for k in KS:
            query = RankJoinQuery.of(bindings, "sum", k)
            truth = naive_rank_join(relations, query.function, k)
            measured = {}
            for name in ALGORITHMS:
                result = setup.engine.execute(query, algorithm=name)
                measured[name] = result
                assert result.recall_against(truth) == 1.0, (arity, k, name)
            plan = setup.engine.plan(query)
            cells.append((arity, k, measured, plan))
    _CACHE["grid"] = cells
    return cells


class TestMultiwayGrid:
    def test_all_strategies_full_recall(self, multiway_setup, benchmark):
        """The headline: every n-way strategy keeps the paper's 100%-recall
        guarantee at arity 3 and 4 (asserted inside the grid sweep)."""
        cells = benchmark.pedantic(
            lambda: _grid(multiway_setup), rounds=1, iterations=1
        )
        assert len(cells) == 2 * len(KS)

    def test_cascade_dominates_network_traffic(self, multiway_setup):
        """BFHM's §7.3 network story survives the cascade: it moves far
        fewer bytes than streaming every relation to the coordinator."""
        for arity, k, measured, _ in _grid(multiway_setup):
            assert (
                measured["bfhm"].metrics.network_bytes
                < measured["hrjn"].metrics.network_bytes / 5
            ), (arity, k)

    def test_auto_plans_at_any_arity(self, multiway_setup):
        """`algorithm="auto"` produces a ranked plan whose winner runs."""
        for arity in (3, 4):
            query = RankJoinQuery.of(_bindings(arity), "sum", 10)
            result = multiway_setup.engine.execute(query)  # auto
            plan = multiway_setup.engine.last_plan
            assert plan is not None
            assert len(plan.estimates) == len(ALGORITHMS)
            assert result.tuples

    def test_explain_shows_cascade_stages(self, multiway_setup):
        query = RankJoinQuery.of(_bindings(4), "sum", 10)
        plan = multiway_setup.engine.plan(query)
        estimate = plan.estimate("bfhm-cascade")
        # a 4-way cascade prices three binary stages, each under its own
        # cost components
        for stage in ("s1 ", "s2 ", "s3 "):
            assert any(c.startswith(stage) for c in estimate.breakdown), stage

    def test_report_matches_committed_baseline(self, multiway_setup, regenerate):
        """Exact match: the report is simulated-only (a change that moves
        it must re-commit ``BENCH_multiway.json``)."""
        assert_matches_committed(
            BASELINE_PATH, _report(multiway_setup), regenerate=regenerate
        )


def _report(setup) -> dict:
    """The ``BENCH_multiway.json`` document for the measured grid."""
    workloads = {}
    for arity, k, measured, plan in _grid(setup):
        for name, result in measured.items():
            workloads[f"{arity}way_k{k}_{name}"] = {
                "seconds": round(result.metrics.sim_time_s, 6),
                "network_bytes": result.metrics.network_bytes,
                "kv_reads": result.metrics.kv_reads,
            }
        workloads[f"{arity}way_k{k}_plan"] = {
            "seconds": round(plan.best.time_s, 6),
            "chosen": plan.chosen,
        }
    return {"workloads": workloads}
