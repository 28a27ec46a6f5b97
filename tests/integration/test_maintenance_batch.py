"""Batched maintenance write path: ``insert_batch`` / ``delete_batch``.

The batched path must be behaviourally equivalent to applying each
mutation alone — same base-table contents, same index contents, same query
results — while invalidating planner statistics exactly once per batch and
keeping the §6 retry/idempotency semantics.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.ijlmr import IJLMRRankJoin
from repro.core.indexes import BFHM_TABLE, IJLMR_TABLE, ISL_TABLE
from repro.core.isl import ISLRankJoin
from repro.maintenance.consistency import RetryPolicy
from repro.maintenance.interceptor import MaintainedRelation
from repro.relational.binding import load_relation
from repro.relational.naive import naive_rank_join
from repro.tpch.loader import lineitem_by_order_binding, orders_binding
from repro.tpch.queries import q2
from repro.tpch.updates import generate_refresh_sets

SCALE = 0.2
SEED = 42


class _CountingCatalog:
    """Duck-typed statistics catalog that counts invalidations."""

    def __init__(self) -> None:
        self.invalidations: list[str] = []

    def invalidate(self, table_name: str) -> None:
        self.invalidations.append(table_name)


def _prepared(**relation_kwargs):
    """A fresh loaded platform with all Q2 indices built and both
    relations wrapped in interceptors."""
    setup = build_setup(EC2_PROFILE, micro_scale=SCALE, seed=SEED)
    platform = setup.platform
    algorithms = {
        "ijlmr": IJLMRRankJoin(platform),
        "isl": ISLRankJoin(platform),
        "bfhm": BFHMRankJoin(platform),
    }
    for algorithm in algorithms.values():
        algorithm.prepare(q2(1))
        setup.engine.register(algorithm.name.lower(), algorithm)
    relations = {
        "orders": MaintainedRelation(
            platform, orders_binding(), maintain_ijlmr=True,
            maintain_isl=True, bfhm_manager=algorithms["bfhm"].update_manager,
            **relation_kwargs,
        ),
        "lineitem": MaintainedRelation(
            platform, lineitem_by_order_binding(), maintain_ijlmr=True,
            maintain_isl=True, bfhm_manager=algorithms["bfhm"].update_manager,
            **relation_kwargs,
        ),
    }
    return setup, relations


def _logical_cells(platform, table_name):
    """Visible cells as (row, family, qualifier, value) — no timestamps.

    Batch mutations share one timestamp where singles draw one each, so
    equivalence is at the value level, not the version level.
    """
    return {
        (row.row, cell.family, cell.qualifier, cell.value)
        for row in platform.store.backing(table_name).all_rows()
        for cell in row
    }


def _bfhm_logical_state(platform, manager, signature):
    """Replay-decoded bucket contents: what any reader would observe."""
    meta = manager.meta(signature)
    htable = platform.store.table(BFHM_TABLE)
    from repro.core.bfhm.bucket import blob_row_key
    from repro.store.client import Get

    state = {}
    for bucket in meta.buckets:
        row = htable.get(Get(blob_row_key(bucket), families={meta.family}))
        data = manager.decode_with_replay(meta.family, bucket, row)
        state[bucket] = (
            data.count,
            data.min_score,
            data.max_score,
            dict(data.filter.counters),
            data.filter.item_count,
        )
    return state


def _apply_batched(relations, refresh):
    relations["orders"].insert_batch(
        [(order["orderkey"], order) for order in refresh.insert_orders]
    )
    relations["lineitem"].insert_batch(
        [(item["rowkey"], item) for item in refresh.insert_lineitems]
    )
    relations["orders"].delete_batch(refresh.delete_orders)
    relations["lineitem"].delete_batch(refresh.delete_lineitems)


def _apply_singly(relations, refresh):
    for order in refresh.insert_orders:
        relations["orders"].insert(order["orderkey"], order)
    for item in refresh.insert_lineitems:
        relations["lineitem"].insert(item["rowkey"], item)
    for orderkey in refresh.delete_orders:
        relations["orders"].delete(orderkey)
    for rowkey in refresh.delete_lineitems:
        relations["lineitem"].delete(rowkey)


class TestBatchEqualsSingles:
    def test_store_and_index_state_match(self):
        """A batch must leave the same logical store + index state as the
        equivalent sequence of single mutations."""
        setup_a, relations_a = _prepared()
        setup_b, relations_b = _prepared()
        refresh_a = generate_refresh_sets(setup_a.data, count=1)[0]
        refresh_b = generate_refresh_sets(setup_b.data, count=1)[0]
        assert refresh_a.insert_count == refresh_b.insert_count

        _apply_batched(relations_a, refresh_a)
        _apply_singly(relations_b, refresh_b)

        for table in ("orders", "lineitem", IJLMR_TABLE, ISL_TABLE):
            assert _logical_cells(setup_a.platform, table) == _logical_cells(
                setup_b.platform, table
            ), f"{table} state diverged"

        # BFHM blob rows carry timestamp-stamped update records, so compare
        # the replay-decoded view instead of raw cells
        for binding in (orders_binding(), lineitem_by_order_binding()):
            manager_a = relations_a["orders"].bfhm_manager
            manager_b = relations_b["orders"].bfhm_manager
            state_a = _bfhm_logical_state(
                setup_a.platform, manager_a, binding.signature
            )
            state_b = _bfhm_logical_state(
                setup_b.platform, manager_b, binding.signature
            )
            assert state_a == state_b, f"BFHM {binding.signature} diverged"

        # reverse-mapping rows must agree too (they have no records)
        bfhm_a = {
            entry
            for entry in _logical_cells(setup_a.platform, BFHM_TABLE)
            if entry[0].startswith("R")
        }
        bfhm_b = {
            entry
            for entry in _logical_cells(setup_b.platform, BFHM_TABLE)
            if entry[0].startswith("R")
        }
        assert bfhm_a == bfhm_b

        assert relations_a["orders"].inserts_applied == relations_b["orders"].inserts_applied
        assert relations_a["orders"].deletes_applied == relations_b["orders"].deletes_applied

    @pytest.mark.parametrize("algorithm", ["ijlmr", "isl", "bfhm"])
    def test_queries_after_batch_have_full_recall(self, algorithm):
        setup, relations = _prepared()
        for refresh in generate_refresh_sets(setup.data, count=2):
            _apply_batched(relations, refresh)
        query = q2(15)
        left = load_relation(setup.platform.store, query.left)
        right = load_relation(setup.platform.store, query.right)
        truth = naive_rank_join([left, right], query.function, 15)
        result = setup.engine.execute(query, algorithm=algorithm)
        assert result.recall_against(truth) == 1.0

    def test_batch_shares_one_timestamp(self):
        """§6: index mutations carry the original mutation timestamp; for
        a batch, the batch is the mutation."""
        setup, relations = _prepared()
        refresh = generate_refresh_sets(setup.data, count=1)[0]
        relations["orders"].insert_batch(
            [(order["orderkey"], order) for order in refresh.insert_orders]
        )
        inserted = {order["orderkey"] for order in refresh.insert_orders}
        stamps = {
            cell.timestamp
            for row in setup.platform.store.backing("orders").all_rows()
            if row.row in inserted
            for cell in row
        }
        assert len(stamps) == 1


class TestStatisticsInvalidation:
    def test_single_invalidation_per_batch(self):
        setup, relations = _prepared(statistics_catalog=_CountingCatalog())
        catalog = relations["orders"].statistics_catalog
        refresh = generate_refresh_sets(setup.data, count=1)[0]
        relations["orders"].insert_batch(
            [(order["orderkey"], order) for order in refresh.insert_orders]
        )
        assert catalog.invalidations == ["orders"]
        relations["orders"].delete_batch(refresh.delete_orders)
        assert catalog.invalidations == ["orders", "orders"]

    def test_duplicate_keys_in_one_delete_batch_count_once(self):
        """All existence reads precede the tombstones, so duplicates must
        be deduped or they would count (and mutate) twice."""
        setup, relations = _prepared(statistics_catalog=_CountingCatalog())
        order = setup.data.orders[0]["orderkey"]
        assert relations["orders"].delete_batch([order, order]) == 1
        assert relations["orders"].deletes_applied == 1

    def test_empty_and_missing_batches_do_not_invalidate(self):
        setup, relations = _prepared(statistics_catalog=_CountingCatalog())
        catalog = relations["orders"].statistics_catalog
        relations["orders"].insert_batch([])
        assert relations["orders"].delete_batch(["O-missing-1", "O-missing-2"]) == 0
        assert catalog.invalidations == []


class TestRetrySemantics:
    def test_flaky_first_attempts_converge(self):
        """Injected transient failures must not change the final state —
        batched writes are idempotent under the shared timestamp."""
        setup_flaky, relations_flaky = _prepared()
        calls = {"n": 0}

        def flaky(attempt):
            calls["n"] += 1
            return attempt == 0 and calls["n"] % 2 == 1

        for relation in relations_flaky.values():
            relation.failure_injector = flaky
        setup_clean, relations_clean = _prepared()

        refresh_flaky = generate_refresh_sets(setup_flaky.data, count=1)[0]
        refresh_clean = generate_refresh_sets(setup_clean.data, count=1)[0]
        _apply_batched(relations_flaky, refresh_flaky)
        _apply_batched(relations_clean, refresh_clean)

        assert calls["n"] > 0, "injector never consulted"
        for table in ("orders", "lineitem", IJLMR_TABLE, ISL_TABLE):
            assert _logical_cells(setup_flaky.platform, table) == _logical_cells(
                setup_clean.platform, table
            ), f"{table} state diverged under retries"

    def test_exhausted_budget_raises(self):
        from repro.maintenance.consistency import MutationFailedError

        setup, relations = _prepared(retry_policy=RetryPolicy(max_attempts=2))
        relations["orders"].failure_injector = lambda attempt: True
        refresh = generate_refresh_sets(setup.data, count=1)[0]
        with pytest.raises(MutationFailedError):
            relations["orders"].insert_batch(
                [(order["orderkey"], order) for order in refresh.insert_orders]
            )
