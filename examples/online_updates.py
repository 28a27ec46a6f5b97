"""Online index maintenance under a live write stream (§6).

Builds the Q2 BFHM/ISL/IJLMR indices, then applies TPC-H refresh sets
(new orders + deletions) through the mutation interceptors while running
queries in between.  Demonstrates:

* that every algorithm keeps returning the exact top-k as data changes;
* the insertion/tombstone record mechanism and the eager write-back's
  bounded query-time overhead (< 10%, per §7.2);
* the offline write-back sweep.

Run with::

    python examples/online_updates.py
"""

from __future__ import annotations

from repro import LC_PROFILE, Platform, RankJoinEngine, WriteBackPolicy
from repro.core.bfhm.algorithm import BFHMRankJoin
from repro.core.ijlmr import IJLMRRankJoin
from repro.core.isl import ISLRankJoin
from repro.maintenance.interceptor import MaintainedRelation
from repro.relational.binding import load_relation
from repro.relational.naive import naive_rank_join
from repro.tpch import generate, load_tpch, q2
from repro.tpch.loader import lineitem_by_order_binding, orders_binding
from repro.tpch.updates import generate_refresh_sets


def main() -> None:
    platform = Platform(LC_PROFILE)
    data = generate(micro_scale=0.5, seed=3)
    load_tpch(platform.store, data)
    engine = RankJoinEngine(platform)

    query = q2(10)
    print(f"query under test: {query.description}")

    bfhm = BFHMRankJoin(platform, write_back=WriteBackPolicy.EAGER)
    algorithms = {"bfhm": bfhm, "isl": ISLRankJoin(platform),
                  "ijlmr": IJLMRRankJoin(platform)}
    for name, algorithm in algorithms.items():
        algorithm.prepare(query)
        engine.register(name, algorithm)

    relations = {
        "orders": MaintainedRelation(
            platform, orders_binding(), maintain_ijlmr=True,
            maintain_isl=True, bfhm_manager=bfhm.update_manager,
        ),
        "lineitem": MaintainedRelation(
            platform, lineitem_by_order_binding(), maintain_ijlmr=True,
            maintain_isl=True, bfhm_manager=bfhm.update_manager,
        ),
    }

    baseline = engine.execute(query, algorithm="bfhm")
    print(f"\nbaseline BFHM query: {baseline.metrics.sim_time_s:.3f}s, "
          f"top score {baseline.tuples[0].score:.4f}")

    for round_number, refresh in enumerate(
        generate_refresh_sets(data, count=3), start=1
    ):
        # the batched write path: one shared timestamp and one put_batch
        # per table per refresh half, instead of one RPC per record
        relations["orders"].insert_batch(
            [(order["orderkey"], order) for order in refresh.insert_orders]
        )
        relations["lineitem"].insert_batch(
            [(item["rowkey"], item) for item in refresh.insert_lineitems]
        )
        relations["orders"].delete_batch(refresh.delete_orders)
        relations["lineitem"].delete_batch(refresh.delete_lineitems)
        print(f"\nrefresh set {round_number}: +{refresh.insert_count} "
              f"inserts, -{refresh.delete_count} deletes")

        truth = naive_rank_join(
            [load_relation(platform.store, b) for b in query.inputs],
            query.function, query.k,
        )
        for name in algorithms:
            result = engine.execute(query, algorithm=name)
            status = "exact" if result.recall_against(truth) == 1.0 else "WRONG"
            print(f"  {name:>6}: {status}, {result.metrics.sim_time_s:.3f}s")
        loaded = engine.execute(query, algorithm="bfhm")
        overhead = loaded.metrics.sim_time_s / baseline.metrics.sim_time_s - 1
        print(f"  BFHM eager write-back overhead vs baseline: {overhead:+.1%} "
              f"(replays so far: {bfhm.update_manager.replays}, "
              f"write-backs: {bfhm.update_manager.writebacks})")

    swept = bfhm.update_manager.offline_sweep(query.left.signature)
    swept += bfhm.update_manager.offline_sweep(query.right.signature)
    print(f"\noffline sweep folded {swept} remaining bucket(s) back into blobs")


if __name__ == "__main__":
    main()
