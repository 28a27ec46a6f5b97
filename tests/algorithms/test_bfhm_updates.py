"""BFHM online updates (§6): records, replay, write-back policies."""

import pytest

from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.bfhm.bucket import blob_row_key
from repro.core.bfhm.updates import (
    BFHMUpdateManager,
    WriteBackPolicy,
    parse_record_qualifier,
    record_qualifier,
)
from repro.core.indexes import BFHM_TABLE
from repro.errors import IndexError_
from repro.sketches.histogram import score_to_bucket
from repro.tpch.queries import q1


def prepared_algorithm(setup, **kwargs) -> BFHMRankJoin:
    algorithm = BFHMRankJoin(setup.platform, **kwargs)
    algorithm.prepare(q1(1))
    return algorithm


class TestRecordCodec:
    def test_roundtrip(self):
        qualifier = record_qualifier(42, "i", "row-7")
        assert parse_record_qualifier(qualifier) == (42, "i", "row-7")

    def test_rowkeys_with_pipes_survive(self):
        qualifier = record_qualifier(1, "d", "weird|row|key")
        assert parse_record_qualifier(qualifier) == (1, "d", "weird|row|key")

    def test_non_records_ignored(self):
        assert parse_record_qualifier("blob") is None
        assert parse_record_qualifier("min") is None
        assert parse_record_qualifier("uXXX|i|r") is None
        assert parse_record_qualifier("u000001|x|r") is None


class TestInsertReplay:
    def test_insert_visible_after_replay(self, fresh_setup):
        algorithm = prepared_algorithm(fresh_setup)
        manager = algorithm.update_manager
        query = q1(3)
        signature = query.left.signature

        # insert a part that will dominate the top-1 result
        manager.apply_insert(signature, "PNEW", "winner", 0.999)
        manager.apply_insert(
            query.right.signature, "LNEW", "winner", 0.999
        )
        result = algorithm.execute(query)
        assert result.tuples[0].keys == ("PNEW", "LNEW")
        assert result.tuples[0].score == pytest.approx(0.999 * 0.999)

    def test_insert_populates_empty_bucket(self, fresh_setup):
        algorithm = prepared_algorithm(fresh_setup)
        manager = algorithm.update_manager
        signature = q1(1).left.signature
        meta_before = manager.meta(signature)
        empty = next(
            b for b in range(meta_before.num_buckets)
            if b not in meta_before.buckets
        )
        from repro.sketches.histogram import bucket_bounds

        low, high = bucket_bounds(empty, meta_before.num_buckets)
        score = (low + high) / 2
        manager.apply_insert(signature, "PX", "vx", score)
        assert empty in manager.meta(signature).buckets

    def test_delete_removes_tuple_from_results(self, fresh_setup):
        algorithm = prepared_algorithm(fresh_setup)
        query = q1(1)
        before = algorithm.execute(query)
        winner = before.tuples[0]
        left = next(
            r for r in fresh_setup.ground_truth(query, 1)
            if r.keys[0] == winner.keys[0]
        )
        algorithm.update_manager.apply_delete(
            query.left.signature, winner.keys[0],
            winner.join_value, left.scores[0],
        )
        after = algorithm.execute(query)
        assert all(t.keys[0] != winner.keys[0] for t in after.tuples)


class TestWriteBackPolicies:
    def _bucket_has_records(self, setup, signature: str, bucket: int) -> bool:
        table = setup.platform.store.backing(BFHM_TABLE)
        row = table.read_row(blob_row_key(bucket), families={signature})
        return any(
            parse_record_qualifier(cell.qualifier) is not None for cell in row
        )

    def test_eager_purges_records_during_query(self, fresh_setup):
        algorithm = prepared_algorithm(
            fresh_setup, write_back=WriteBackPolicy.EAGER
        )
        manager = algorithm.update_manager
        query = q1(5)
        signature = query.left.signature
        manager.apply_insert(signature, "PNEW", "winner", 0.999)
        family = manager.meta(signature).family
        bucket = score_to_bucket(0.999, manager.meta(signature).num_buckets)
        assert self._bucket_has_records(fresh_setup, family, bucket)
        algorithm.execute(query)
        assert not self._bucket_has_records(fresh_setup, family, bucket)
        assert manager.writebacks >= 1

    def test_lazy_flushes_after_query(self, fresh_setup):
        algorithm = prepared_algorithm(
            fresh_setup, write_back=WriteBackPolicy.LAZY
        )
        manager = algorithm.update_manager
        query = q1(5)
        signature = query.left.signature
        manager.apply_insert(signature, "PNEW", "winner", 0.999)
        algorithm.execute(query)  # flush_pending runs post-result
        family = manager.meta(signature).family
        bucket = score_to_bucket(0.999, manager.meta(signature).num_buckets)
        assert not self._bucket_has_records(fresh_setup, family, bucket)

    def test_offline_sweep(self, fresh_setup):
        algorithm = prepared_algorithm(
            fresh_setup, write_back=WriteBackPolicy.OFFLINE
        )
        manager = algorithm.update_manager
        signature = q1(1).left.signature
        manager.apply_insert(signature, "PNEW", "winner", 0.999)
        swept = manager.offline_sweep(signature)
        assert swept == 1
        family = manager.meta(signature).family
        bucket = score_to_bucket(0.999, manager.meta(signature).num_buckets)
        assert not self._bucket_has_records(fresh_setup, family, bucket)

    def test_writeback_threshold_defers_small_batches(self, fresh_setup):
        algorithm = prepared_algorithm(
            fresh_setup, write_back=WriteBackPolicy.EAGER, writeback_threshold=5
        )
        manager = algorithm.update_manager
        query = q1(5)
        signature = query.left.signature
        manager.apply_insert(signature, "PNEW", "winner", 0.999)
        algorithm.execute(query)
        # below threshold: the record must still be pending
        family = manager.meta(signature).family
        bucket = score_to_bucket(0.999, manager.meta(signature).num_buckets)
        assert self._bucket_has_records(fresh_setup, family, bucket)

    def test_unregistered_signature_rejected(self, fresh_setup):
        manager = BFHMUpdateManager(fresh_setup.platform)
        with pytest.raises(IndexError_):
            manager.meta("never-built")


class TestRecallUnderUpdates:
    @pytest.mark.parametrize("policy", list(WriteBackPolicy))
    def test_recall_after_mixed_mutations(self, fresh_setup, policy):
        algorithm = prepared_algorithm(fresh_setup, write_back=policy)
        manager = algorithm.update_manager
        query = q1(10)
        left_sig = query.left.signature
        right_sig = query.right.signature

        for i in range(8):
            manager.apply_insert(left_sig, f"PN{i}", f"newv{i}", 0.999 - i / 1000)
            manager.apply_insert(right_sig, f"LN{i}", f"newv{i}", 0.999 - i / 2000)
        manager.apply_delete(left_sig, "PN3", "newv3", 0.999 - 3 / 1000)

        result = algorithm.execute(query)
        expected_pairs = {(f"PN{i}", f"LN{i}") for i in range(8) if i != 3}
        got_pairs = {t.keys for t in result.tuples}
        assert expected_pairs & got_pairs  # new high scorers surface
        assert all(t.keys[0] != "PN3" for t in result.tuples)
