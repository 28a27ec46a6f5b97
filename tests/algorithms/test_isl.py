"""ISL: index layout (Fig. 3) and coordinator query processing (§4.2)."""

from itertools import chain

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.common.serialization import decode_score_key, decode_str
from repro.common.types import ScoredRow
from repro.core import isl
from repro.core.indexes import ISL_TABLE
from repro.core.isl import ISLRankJoin
from repro.platform import Platform
from repro.relational.binding import load_relation
from repro.tpch.generator import generate
from repro.tpch.loader import load_tpch
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


class _PerRowCursor(isl._SideCursor):
    """The cursor before whole RPC batches were handed over, kept as the
    reference: it pulls index rows one at a time off the flattened scan."""

    def __init__(self, platform, signature, batch_rows):
        super().__init__(platform, signature, batch_rows)
        self._rows = chain.from_iterable(self._batches)

    def next_batch(self):
        batch = []
        for _ in range(self.batch_rows):
            row = next(self._rows, None)
            if row is None:
                self.exhausted = True
                break
            self._last_row_key = row.row
            score = decode_score_key(row.row)
            batch.extend(
                ScoredRow(cell.qualifier, decode_str(cell.value), score)
                for cell in row.cells
            )
        return batch


class TestRegionBoundary:
    """A cursor batch that ends inside the next region's first RPC batch
    keeps the rest of that RPC batch for the next cursor batch."""

    @staticmethod
    def _split_index(num_servers, query):
        """A loaded platform whose ISL index spans four regions, and a batch
        size that divides neither input's row count in the first one."""
        platform = Platform(EC2_PROFILE, num_servers=num_servers)
        load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
        algorithm = ISLRankJoin(platform)
        algorithm.prepare(query)
        index = platform.store.backing(ISL_TABLE)
        while len(index.regions) < 4:
            index._try_split(max(index.regions, key=lambda r: r.raw_cell_count()))
        first = [
            list(index.regions[0].scan_rows(families={binding.signature}))
            for binding in query.inputs
        ]
        algorithm.batch_rows = next(
            b for b in range(3, 20) if all(len(rows) % b for rows in first)
        )
        return algorithm, first

    @pytest.mark.parametrize("num_servers", [1, 4], ids=["serial", "scatter"])
    @pytest.mark.parametrize("query", [q1(40), q2(40)], ids=["q1", "q2"])
    def test_batched_cursor_matches_per_row_cursor(
        self, num_servers, query, monkeypatch
    ):
        algorithm, first = self._split_index(num_servers, query)
        batched = algorithm.execute(query)
        # a twin platform, so both runs start from the same simulated clock
        reference, _ = self._split_index(num_servers, query)
        monkeypatch.setattr(isl, "_SideCursor", _PerRowCursor)
        per_row = reference.execute(query)

        assert batched.tuples == per_row.tuples
        assert batched.details == per_row.details
        assert batched.metrics == per_row.metrics
        # some input really read past its first region
        assert any(
            batched.details[f"tuples_seen_{i}"] > sum(len(row) for row in rows)
            for i, rows in enumerate(first)
        )
