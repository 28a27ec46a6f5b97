"""Online updates across all indices (§6) with TPC-H refresh sets."""

import pytest

from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.ijlmr import IJLMRRankJoin
from repro.core.isl import ISLRankJoin
from repro.maintenance.consistency import (
    MutationFailedError,
    RetryPolicy,
    with_retries,
)
from repro.maintenance.interceptor import MaintainedRelation
from repro.relational.binding import load_relation
from repro.relational.naive import naive_rank_join
from repro.tpch.loader import lineitem_by_order_binding, orders_binding
from repro.tpch.queries import q2
from repro.tpch.updates import generate_refresh_sets


@pytest.fixture()
def maintained(fresh_setup):
    """All three indices built and wrapped with interceptors for Q2."""
    platform = fresh_setup.platform
    query = q2(1)
    algorithms = {
        "ijlmr": IJLMRRankJoin(platform),
        "isl": ISLRankJoin(platform),
        "bfhm": BFHMRankJoin(platform),
    }
    for algorithm in algorithms.values():
        algorithm.prepare(query)
        fresh_setup.engine.register(algorithm.name.lower(), algorithm)

    def wrap(binding):
        return MaintainedRelation(
            platform, binding,
            maintain_ijlmr=True, maintain_isl=True,
            bfhm_manager=algorithms["bfhm"].update_manager,
        )

    return fresh_setup, {
        "orders": wrap(orders_binding()),
        "lineitem": wrap(lineitem_by_order_binding()),
    }


def apply_refresh(setup, relations, refresh):
    for order in refresh.insert_orders:
        relations["orders"].insert(order["orderkey"], order)
    for item in refresh.insert_lineitems:
        relations["lineitem"].insert(item["rowkey"], item)
    for orderkey in refresh.delete_orders:
        relations["orders"].delete(orderkey)
    for rowkey in refresh.delete_lineitems:
        relations["lineitem"].delete(rowkey)


class TestRefreshSets:
    @pytest.mark.parametrize("algorithm", ["ijlmr", "isl", "bfhm"])
    def test_recall_after_refresh(self, maintained, algorithm):
        setup, relations = maintained
        refresh_sets = generate_refresh_sets(setup.data, count=2)
        for refresh in refresh_sets:
            apply_refresh(setup, relations, refresh)

        query = q2(15)
        left = load_relation(setup.platform.store, query.left)
        right = load_relation(setup.platform.store, query.right)
        truth = naive_rank_join([left, right], query.function, 15)
        result = setup.engine.execute(query, algorithm=algorithm)
        assert result.recall_against(truth) == 1.0

    def test_base_tables_mutated(self, maintained):
        setup, relations = maintained
        before = len(list(setup.platform.store.backing("orders").all_rows()))
        refresh = generate_refresh_sets(setup.data, count=1)[0]
        apply_refresh(setup, relations, refresh)
        after = len(list(setup.platform.store.backing("orders").all_rows()))
        assert after == before + len(refresh.insert_orders) - len(
            refresh.delete_orders
        )

    def test_delete_of_missing_row_is_noop(self, maintained):
        setup, relations = maintained
        assert relations["orders"].delete("O99999999") is False

    def test_counters(self, maintained):
        setup, relations = maintained
        refresh = generate_refresh_sets(setup.data, count=1)[0]
        apply_refresh(setup, relations, refresh)
        assert relations["orders"].inserts_applied == len(refresh.insert_orders)
        assert relations["orders"].deletes_applied == len(refresh.delete_orders)


class TestRetries:
    def test_transient_failures_retried(self):
        attempts = []

        def mutation():
            return "done"

        result = with_retries(
            mutation,
            RetryPolicy(max_attempts=5),
            failure_injector=lambda attempt: (attempts.append(attempt),
                                              attempt < 2)[1],
        )
        assert result == "done"
        assert attempts == [0, 1, 2]

    def test_budget_exhaustion_raises(self):
        with pytest.raises(MutationFailedError):
            with_retries(
                lambda: "never",
                RetryPolicy(max_attempts=3),
                failure_injector=lambda _: True,
            )

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_mutations_with_injected_failures_stay_consistent(self, maintained):
        """Eventual consistency: flaky first attempts, same final state."""
        setup, relations = maintained
        flaky_calls = {"n": 0}

        def flaky(attempt):
            flaky_calls["n"] += 1
            return attempt == 0 and flaky_calls["n"] % 3 == 1

        relations["orders"].failure_injector = flaky
        refresh = generate_refresh_sets(setup.data, count=1)[0]
        apply_refresh(setup, relations, refresh)

        query = q2(10)
        left = load_relation(setup.platform.store, query.left)
        right = load_relation(setup.platform.store, query.right)
        truth = naive_rank_join([left, right], query.function, 10)
        result = setup.engine.execute(query, algorithm="isl")
        assert result.recall_against(truth) == 1.0
