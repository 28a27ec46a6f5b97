"""Ablations of the design choices DESIGN.md calls out.

Each test isolates one mechanism of the paper's design and shows the
trade-off it buys:

* ISL scanner batching (§4.2.3): latency vs overshoot;
* BFHM histogram resolution (§7.1's 100-vs-1000-bucket configurations);
* Golomb compression of the hybrid filter (§5.1: "single hash function
  Bloom filters can grow very large in space and are thus impractical
  otherwise");
* α false-positive compensation (§5.3);
* conservative vs aggressive phase-1 termination (DESIGN.md §4).
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_setup, run_point
from repro.cluster.costmodel import EC2_PROFILE
from repro.core.bfhm.algorithm import BFHMRankJoin, TerminationPolicy
from repro.core.isl import ISLRankJoin
from repro.sketches.hybrid import HybridBloomFilter
from repro.tpch.queries import q1, q2


class TestISLBatching:
    def test_batch_size_tradeoff(self, benchmark):
        """Bigger batches amortize RPC latency but overshoot the
        termination point, paying bandwidth and dollars (§4.2.3)."""
        def measure():
            rows = {}
            for batch_rows in (4, 32, 256):
                setup = build_setup(EC2_PROFILE, micro_scale=0.5, seed=42)
                algorithm = ISLRankJoin(setup.platform, batch_rows=batch_rows)
                query = q2(20)
                algorithm.prepare(query)
                result = algorithm.execute(query)
                rows[batch_rows] = (
                    result.details["batches"],
                    result.metrics.kv_reads,
                    result.metrics.network_bytes,
                )
            return rows

        rows = benchmark.pedantic(measure, rounds=1, iterations=1)
        print("\nISL batch sweep (batches, KV reads, bytes):", rows)
        batches = [rows[b][0] for b in (4, 32, 256)]
        kv_reads = [rows[b][1] for b in (4, 32, 256)]
        assert batches[0] > batches[1] > batches[2]  # fewer rounds
        assert kv_reads[0] <= kv_reads[1] <= kv_reads[2]  # more overshoot


class TestBFHMBucketCount:
    def test_finer_histograms_fetch_fewer_tuples(self, benchmark):
        """§7.1 ran 100 and 1000 buckets on EC2: finer buckets bound the
        candidate set more tightly (fewer reverse-mapping fetches) at the
        price of more bucket-row round trips."""
        def measure():
            rows = {}
            for num_buckets in (10, 100, 400):
                setup = build_setup(EC2_PROFILE, micro_scale=0.5, seed=42)
                algorithm = BFHMRankJoin(setup.platform, num_buckets=num_buckets)
                query = q2(20)
                algorithm.prepare(query)
                result = algorithm.execute(query)
                rows[num_buckets] = (
                    result.details["buckets_fetched"],
                    result.details["reverse_rows_fetched"],
                    result.recall_against(setup.ground_truth(query, 20)),
                )
            return rows

        rows = benchmark.pedantic(measure, rounds=1, iterations=1)
        print("\nBFHM bucket sweep (buckets fetched, reverse rows, recall):",
              rows)
        assert all(recall == 1.0 for _, _, recall in rows.values())
        # coarse buckets over-fetch (wide score ranges admit losers);
        # over-fine buckets re-inflate fetches (many tiny bucket pairs must
        # be fetched to accumulate k estimated tuples) — the resolution
        # knob is U-shaped, which is why §7.1 tunes it per environment
        assert rows[10][1] > rows[100][1]
        fetched = [rows[b][0] for b in (10, 100, 400)]
        assert fetched[0] < fetched[1] < fetched[2]  # round trips grow


class TestGolombCompression:
    def test_blob_vs_raw_bitmap(self, benchmark):
        """§5.1: the compression "is an integral part of our data
        structure"; without it, a single-hash filter's bitmap is
        impractically large."""
        def measure():
            hybrid = HybridBloomFilter(1 << 20)  # 1 Mbit, 128 KiB raw
            for i in range(500):
                hybrid.insert(f"join-value-{i}")
            blob = hybrid.to_blob()
            return blob.serialized_size(), hybrid.bit_count // 8

        blob_bytes, raw_bytes = benchmark.pedantic(measure, rounds=1,
                                                   iterations=1)
        print(f"\nblob {blob_bytes:,} B vs raw bitmap {raw_bytes:,} B "
              f"({raw_bytes / blob_bytes:.0f}x saving)")
        assert blob_bytes * 20 < raw_bytes


class TestAlphaCompensation:
    def test_alpha_corrects_overestimation(self, benchmark):
        """§5.3: crowded filters overestimate join sizes via false-positive
        counter collisions; α pulls the estimate back toward the truth."""
        def measure():
            left = HybridBloomFilter(512)
            right = HybridBloomFilter(512)
            true_pairs = 0
            for i in range(180):
                left.insert(f"L{i}")
                right.insert(f"R{i}")
            for i in range(20):
                left.insert(f"common-{i}")
                right.insert(f"common-{i}")
                true_pairs += 1
            common = left.intersect_positions(right)
            raw = sum(left.counters[p] * right.counters[p] for p in common)
            compensated = left.join_cardinality(right)
            return raw, compensated, true_pairs

        raw, compensated, truth = benchmark.pedantic(measure, rounds=1,
                                                     iterations=1)
        print(f"\ntrue join pairs {truth}; raw estimate {raw}; "
              f"alpha-compensated {compensated:.1f}")
        assert raw > truth  # collisions inflate the raw counter product
        assert abs(compensated - truth) < abs(raw - truth)


class TestTerminationPolicies:
    def test_aggressive_terminates_no_later(self, benchmark):
        """The paper's narrative bound stops phase 1 earlier (or equally
        early); the §5.3 repair loop keeps recall at 100% either way."""
        def measure():
            rows = {}
            for policy in TerminationPolicy:
                setup = build_setup(EC2_PROFILE, micro_scale=0.5, seed=42)
                algorithm = BFHMRankJoin(setup.platform, policy=policy)
                query = q2(20)
                algorithm.prepare(query)
                result = algorithm.execute(query)
                rows[policy.value] = (
                    result.details["buckets_fetched"],
                    result.details["repair_rounds"],
                    result.recall_against(setup.ground_truth(query, 20)),
                )
            return rows

        rows = benchmark.pedantic(measure, rounds=1, iterations=1)
        print("\ntermination policies (buckets, repair rounds, recall):", rows)
        assert rows["aggressive"][2] == rows["conservative"][2] == 1.0
        assert rows["aggressive"][0] <= rows["conservative"][0] + 2


class TestMultiWayScaling:
    def test_three_way_isl(self, benchmark):
        """§3's n-way extension: a 3-way coordinator join stays far below
        full-scan cost (exercised end-to-end in the test suite; here we
        record its price next to the 2-way runs)."""
        from repro.core.isl import MultiWayISLRankJoin
        from repro.query.spec import RankJoinQuery
        from repro.relational.binding import RelationBinding
        from repro.relational.naive import naive_rank_join
        from repro.relational.binding import load_relation
        from repro.common.serialization import encode_float, encode_str
        from repro.store.client import Put
        import random

        def measure():
            setup = build_setup(EC2_PROFILE, micro_scale=0.05, seed=9)
            rng = random.Random(9)
            for day in ("d1", "d2", "d3"):
                htable = setup.platform.store.create_table(day, {"d"})
                for i in range(300):
                    htable.put(
                        Put(f"{day}-{i:05d}")
                        .add("d", "jv", encode_str(f"v{rng.randint(0, 99):03d}"))
                        .add("d", "sc", encode_float(round(rng.random(), 6)))
                    )
                htable.flush()
            inputs = [
                RelationBinding(day, join_column="jv", score_column="sc")
                for day in ("d1", "d2", "d3")
            ]
            query = RankJoinQuery.of(inputs, "sum", 10)
            algorithm = MultiWayISLRankJoin(setup.platform)
            result = algorithm.execute(query)
            relations = [load_relation(setup.platform.store, b) for b in inputs]
            truth = naive_rank_join(relations, query.function, 10)
            return result, result.recall_against(truth)

        result, recall = benchmark.pedantic(measure, rounds=1, iterations=1)
        print(f"\n3-way ISL: {result.metrics.kv_reads} KV reads, "
              f"{result.metrics.sim_time_s:.2f}s, recall {recall}")
        assert recall == 1.0
        assert result.metrics.kv_reads < 900  # well under the 3x300 rows
