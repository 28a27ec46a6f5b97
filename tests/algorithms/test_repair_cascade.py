"""The §5.3 repair cascade, end to end (ISSUE 3).

A crafted score distribution — dense, mutually non-joining high-score
fillers over small Bloom filters, with every real match buried in deep
buckets — forces the full cascade: phase-1 termination fires on
false-positive-inflated cardinality estimates, phase 2 materializes fewer
than k results, the purge bound overshoots so excluded pairs are
re-admitted, and ``run_until(k + (k - k'))`` / forced fetches repair the
recall over multiple rounds.  The tests pin the cascade's telemetry to
independently-counted store accesses and to 100% recall.
"""

from __future__ import annotations

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.common.serialization import encode_float, encode_str
from repro.core.bfhm.algorithm import BFHMRankJoin, _ReverseMappingCache
from repro.core.bfhm.bucket import encode_reverse_value, reverse_row_key
from repro.core.bfhm.estimation import BFHMEstimator
from repro.core.indexes import BFHM_TABLE
from repro.platform import Platform
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding, load_relation
from repro.relational.naive import naive_rank_join
from repro.store.client import HTable, Put

#: non-joining filler tuples per side, spread over the top score buckets
N_FILLERS = 40
#: matching pairs buried in the deep buckets
N_MATCHES = 6
CASCADE_K = 5


def _load(platform: Platform, table: str, rows) -> None:
    htable = platform.store.create_table(table, {"d"})
    htable.put_batch([
        Put(key).add("d", "j", encode_str(value)).add("d", "s", encode_float(score))
        for key, value, score in rows
    ])
    htable.flush()


def _cascade_setup():
    """Platform + prepared BFHM whose execution provably cascades.

    The top ~5 buckets hold only fillers with disjoint join values; with
    ``fp_rate=0.3`` the per-bucket filters are small enough that filler
    bucket pairs intersect spuriously, so estimation reaches k "estimated"
    tuples and terminates long before any bucket holding a real match is
    fetched — every result must then come from repair rounds.
    """
    platform = Platform(EC2_PROFILE)
    left = [(f"L{i:03d}", f"lv{i}", 0.95 - 0.012 * i) for i in range(N_FILLERS)]
    right = [(f"R{i:03d}", f"rv{i}", 0.95 - 0.012 * i) for i in range(N_FILLERS)]
    for i in range(N_MATCHES):
        left.append((f"LM{i}", f"m{i}", 0.42 - 0.01 * i))
        right.append((f"RM{i}", f"m{i}", 0.42 - 0.01 * i))
    _load(platform, "cascade_l", left)
    _load(platform, "cascade_r", right)
    query = RankJoinQuery.of(
        RelationBinding("cascade_l", "j", "s"),
        RelationBinding("cascade_r", "j", "s"),
        "sum", CASCADE_K,
    )
    algorithm = BFHMRankJoin(platform, num_buckets=10, fp_rate=0.3)
    algorithm.prepare(query)
    return platform, algorithm, query


class TestRepairCascade:
    def test_cascade_repairs_recall_over_multiple_rounds(self):
        platform, algorithm, query = _cascade_setup()
        result = algorithm.execute(query)
        truth = naive_rank_join(
            [load_relation(platform.store, b) for b in query.inputs],
            query.function, CASCADE_K,
        )
        # the crafted distribution needs ≥2 repair rounds AND phase-2
        # re-admission past an overshooting purge bound ...
        assert result.details["repair_rounds"] >= 2
        assert result.details["readmitted_pairs"] > 0
        assert result.details["purge_bound"] > truth[-1].score
        # ... and the §5.3 loop still guarantees 100% recall
        assert result.recall_against(truth) == 1.0

    def test_details_equal_independently_counted_store_accesses(self, monkeypatch):
        platform, algorithm, query = _cascade_setup()
        counted = {"reverse_rows": 0, "blob_gets": 0}
        real_multi_get = HTable.multi_get
        real_get = HTable.get

        def counting_multi_get(self, gets):
            rows = real_multi_get(self, gets)
            if self.name == BFHM_TABLE:
                counted["reverse_rows"] += sum(
                    1
                    for get, row in zip(gets, rows)
                    if get.row.startswith("R") and not row.empty
                )
            return rows

        def counting_get(self, get):
            if self.name == BFHM_TABLE and get.row.startswith("B"):
                counted["blob_gets"] += 1
            return real_get(self, get)

        monkeypatch.setattr(HTable, "multi_get", counting_multi_get)
        monkeypatch.setattr(HTable, "get", counting_get)
        result = algorithm.execute(query)
        assert result.details["reverse_rows_fetched"] == counted["reverse_rows"]
        assert result.details["buckets_fetched"] == counted["blob_gets"]

    def test_repair_trace_sums_to_details(self):
        _, algorithm, query = _cascade_setup()
        result = algorithm.execute(query)
        trace = algorithm.last_repair_trace
        assert trace[0].round == 0
        assert [entry.round for entry in trace] == list(range(len(trace)))
        assert len(trace) - 1 == result.details["repair_rounds"]
        assert (sum(entry.buckets_fetched for entry in trace)
                == result.details["buckets_fetched"])
        assert (sum(entry.reverse_rows for entry in trace)
                == result.details["reverse_rows_fetched"])
        assert (sum(entry.readmitted_pairs for entry in trace)
                == result.details["readmitted_pairs"])
        assert trace[0].purge_bound == result.details["purge_bound"]
        # every repair round made progress: fetched buckets or grew the
        # materialized result set
        for previous, entry in zip(trace, trace[1:]):
            assert (entry.buckets_fetched > 0
                    or entry.actual_results > previous.actual_results)


class TestForceFetchBothSides:
    def test_repair_advances_both_sides_per_round(self, monkeypatch):
        """Regression: `force_fetch(0) or force_fetch(1)` short-circuited,
        starving side 1 while side 0 had buckets — one-sided exhaustion
        burned one repair round per bucket instead of one per *pair*.

        With estimation stubbed out, every bucket must arrive through the
        forced-fetch path; advancing both sides per round bounds the round
        count by the deeper side, not the sum.
        """
        platform = Platform(EC2_PROFILE)
        # left spans 4 score buckets, right 8 — unequal depths
        left = [(f"L{i}", f"m{i}", 0.95 - 0.1 * i) for i in range(4)]
        right = [(f"R{i}", f"m{i}", 0.95 - 0.1 * i) for i in range(8)]
        _load(platform, "force_l", left)
        _load(platform, "force_r", right)
        query = RankJoinQuery.of(
            RelationBinding("force_l", "j", "s"),
            RelationBinding("force_r", "j", "s"),
            "sum", 100,  # > total results: stays in the k' < k branch
        )
        algorithm = BFHMRankJoin(platform, num_buckets=10)
        algorithm.prepare(query)
        monkeypatch.setattr(BFHMEstimator, "run_until", lambda self, k: None)
        result = algorithm.execute(query)
        trace = algorithm.last_repair_trace
        depths = [len(algorithm.update_manager.meta(s).buckets)
                  for s in (query.left.signature, query.right.signature)]
        assert result.details["repair_rounds"] <= max(depths) + 1
        # both sides advance while both still have buckets
        assert trace[1].buckets_fetched == 2
        # recall survives the stubbed estimation: the loop fetched everything
        truth = naive_rank_join(
            [load_relation(platform.store, b) for b in query.inputs],
            query.function, query.k,
        )
        assert result.recall_against(truth) == 1.0


class TestReverseMappingCache:
    def test_counts_only_nonempty_rows(self):
        """Regression: ``rows_fetched`` counted empty RowResults from
        missing reverse rows, inflating the `reverse_rows_fetched` detail
        the planner calibrates against."""
        platform = Platform(EC2_PROFILE)
        family = "sig"
        htable = platform.store.create_table(BFHM_TABLE, {family})
        htable.put(Put(reverse_row_key(0, 1)).add(
            family, "row1", encode_reverse_value("jv", 0.5)
        ))
        htable.flush()
        cache = _ReverseMappingCache(platform)
        rows = cache.fetch(family, [(0, 1), (0, 2), (0, 3)])
        assert len(rows) == 3
        assert rows[(0, 1)][0].join_value == "jv"
        assert rows[(0, 2)] == [] and rows[(0, 3)] == []
        assert cache.rows_fetched == 1  # only the row that exists
        # cached: repeated fetches never re-read or re-count
        cache.fetch(family, [(0, 1), (0, 2)])
        assert cache.rows_fetched == 1
