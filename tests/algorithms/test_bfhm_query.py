"""BFHM end-to-end query behaviour (§5.2–5.3)."""

import pytest

from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.indexes import BFHM_TABLE
from repro.tpch.queries import q1, q2


class TestSurgicalAccess:
    def test_reads_fraction_of_reverse_mappings(self, shared_setup):
        """BFHM's "surgical accuracy" (§7.2): it fetches candidate tuples
        only, not the dataset."""
        result = shared_setup.engine.execute(q1(10), algorithm="bfhm")
        base_cells = shared_setup.platform.store.backing("lineitem").raw_cell_count()
        assert result.metrics.kv_reads < base_cells / 10

    def test_dollar_cost_beats_isl(self, shared_setup):
        """Fig. 7(c): BFHM is the clear dollar-cost winner."""
        bfhm = shared_setup.engine.execute(q1(10), algorithm="bfhm")
        isl = shared_setup.engine.execute(q1(10), algorithm="isl")
        assert bfhm.metrics.kv_reads <= isl.metrics.kv_reads

    def test_no_mapreduce_in_query_path(self, shared_setup):
        result = shared_setup.engine.execute(q1(10), algorithm="bfhm")
        model = shared_setup.platform.cost_model
        assert result.metrics.sim_time_s < model.mr_job_startup_s


class TestEstimationBehaviour:
    def test_q2_fetches_more_buckets_than_q1(self, shared_setup):
        """Skewed Q2 scores force deeper descent into the histogram."""
        q1_result = shared_setup.engine.execute(q1(10), algorithm="bfhm")
        q2_result = shared_setup.engine.execute(q2(10), algorithm="bfhm")
        assert (q2_result.details["buckets_fetched"]
                >= q1_result.details["buckets_fetched"])

    def test_details_reported(self, shared_setup):
        result = shared_setup.engine.execute(q1(10), algorithm="bfhm")
        for key in ("buckets_fetched", "estimated_results",
                    "reverse_rows_fetched", "repair_rounds"):
            assert key in result.details

    def test_false_positives_filtered_in_phase2(self, shared_setup):
        """Results carry true join values — Bloom noise never survives the
        reverse-mapping equality check."""
        result = shared_setup.engine.execute(q1(25), algorithm="bfhm")
        for t in result.tuples:
            part_key, lineitem_key = t.keys
            assert part_key.startswith("P")
            assert lineitem_key.startswith("L")
            assert t.join_value  # a real join value, never a bit position


class TestConfiguration:
    @pytest.mark.parametrize("num_buckets", [10, 100, 500])
    def test_bucket_count_sweep_preserves_recall(self, fresh_setup, num_buckets):
        """§7.1 used 100/1000 (EC2) and 100/500 (LC) buckets."""
        query = q1(10)
        algorithm = BFHMRankJoin(fresh_setup.platform, num_buckets=num_buckets)
        algorithm.prepare(query)
        result = algorithm.execute(query)
        truth = fresh_setup.ground_truth(query, 10)
        assert result.recall_against(truth) == 1.0

    def test_more_buckets_narrower_fetches(self, fresh_setup):
        query = q2(10)
        coarse = BFHMRankJoin(fresh_setup.platform, num_buckets=10)
        coarse.prepare(query)
        coarse_result = coarse.execute(query)
        # a separate platform so the index tables do not collide
        from tests.conftest import _make_setup

        fine_setup = _make_setup()
        fine = BFHMRankJoin(fine_setup.platform, num_buckets=200)
        fine.prepare(query)
        fine_result = fine.execute(query)
        # finer histograms pull fewer irrelevant tuples
        assert (fine_result.details["reverse_rows_fetched"]
                <= coarse_result.details["reverse_rows_fetched"])

    def test_index_bytes_reported(self, fresh_setup):
        algorithm = BFHMRankJoin(fresh_setup.platform)
        reports = algorithm.prepare(q1(1))
        assert len(reports) == 2
        for report in reports:
            assert report.index_bytes > 0
            assert report.build_time_s > 0
            index = fresh_setup.platform.store.backing(BFHM_TABLE)
            assert report.index_bytes <= index.total_size + index.disk_size
