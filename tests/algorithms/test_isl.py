"""ISL: index layout (Fig. 3) and coordinator query processing (§4.2)."""

import pytest

from repro.common.serialization import decode_score_key, decode_str
from repro.core.indexes import ISL_TABLE
from repro.core.isl import ISLRankJoin
from repro.relational.binding import load_relation
from repro.tpch.queries import q1, q2


class TestIndexLayout:
    def test_keys_scan_in_descending_score_order(self, shared_setup):
        """Ascending row keys == descending scores (the §4.2.2 kink)."""
        store = shared_setup.platform.store
        signature = q1(1).left.signature
        index = store.backing(ISL_TABLE)
        scores = [
            decode_score_key(row.row)
            for row in index.all_rows(families={signature})
        ]
        assert scores == sorted(scores, reverse=True)

    def test_entries_hold_rowkey_and_join_value(self, shared_setup):
        store = shared_setup.platform.store
        query = q1(1)
        relation = {r.row_key: r for r in load_relation(store, query.left)}
        index = store.backing(ISL_TABLE)
        seen = 0
        for row in index.all_rows(families={query.left.signature}):
            for cell in row:
                expected = relation[cell.qualifier]
                assert decode_str(cell.value) == expected.join_value
                assert decode_score_key(row.row) == pytest.approx(
                    expected.score, abs=1e-6
                )
                seen += 1
        assert seen == len(relation)


class TestQueryProcessing:
    def test_no_mapreduce_in_query_path(self, shared_setup):
        """The coordinator path has no job startup: orders of magnitude
        faster than the MR approaches."""
        result = shared_setup.engine.execute(q1(10), algorithm="isl")
        model = shared_setup.platform.cost_model
        assert result.metrics.sim_time_s < model.mr_job_startup_s

    def test_early_termination_reads_fraction_of_index(self, shared_setup):
        result = shared_setup.engine.execute(q1(5), algorithm="isl")
        index_cells = shared_setup.platform.store.backing(ISL_TABLE).raw_cell_count()
        assert result.metrics.kv_reads < index_cells / 2

    def test_q2_reaches_deeper_than_q1(self, shared_setup):
        """§7.2: Q2 has fewer high-ranking tuples, so ISL must descend
        further before the HRJN threshold fires."""
        k = 10
        q1_result = shared_setup.engine.execute(q1(k), algorithm="isl")
        q2_result = shared_setup.engine.execute(q2(k), algorithm="isl")
        q1_depth = (q1_result.details["tuples_seen_0"]
                    + q1_result.details["tuples_seen_1"])
        q2_depth = (q2_result.details["tuples_seen_0"]
                    + q2_result.details["tuples_seen_1"])
        assert q2_depth > q1_depth

    def test_deeper_k_costs_more(self, shared_setup):
        small = shared_setup.engine.execute(q2(1), algorithm="isl")
        large = shared_setup.engine.execute(q2(50), algorithm="isl")
        assert large.metrics.kv_reads >= small.metrics.kv_reads


class TestBatching:
    """§4.2.3: batch size trades latency against bandwidth/dollars."""

    def test_big_batches_fewer_rpcs_more_overshoot(self, fresh_setup):
        query = q2(10)
        small = ISLRankJoin(fresh_setup.platform, batch_rows=4)
        small.prepare(query)
        small_result = small.execute(query)
        large = ISLRankJoin(fresh_setup.platform, batch_rows=200)
        large_result = large.execute(query)
        truth = fresh_setup.ground_truth(query, 10)
        assert small_result.recall_against(truth) == 1.0
        assert large_result.recall_against(truth) == 1.0
        # bigger batches read at least as many tuples (overshoot) ...
        assert large_result.metrics.kv_reads >= small_result.metrics.kv_reads
        # ... but use fewer coordinator rounds
        assert large_result.details["batches"] <= small_result.details["batches"]

    def test_batch_fraction_scales_with_relation(self, fresh_setup):
        algorithm = ISLRankJoin(fresh_setup.platform, batch_fraction=0.01)
        query = q1(5)
        algorithm.prepare(query)
        lineitem_rows = len(fresh_setup.data.lineitems)
        assert algorithm._batch_rows_for(query.right.signature) == max(
            8, int(lineitem_rows * 0.01)
        )
