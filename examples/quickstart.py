"""Quickstart: top-k joins over TPC-H with every algorithm.

Loads a miniature TPC-H dataset into the simulated NoSQL store, runs the
paper's Q1 (``Part ⋈ Lineitem`` ranked by price product) with all six
algorithms, and prints each one's answers and bill (simulated time, network
bytes, KV read units / dollars).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import EC2_PROFILE, Platform, RankJoinEngine
from repro.tpch import generate, load_tpch, q1

ALGORITHMS = ["hive", "pig", "ijlmr", "isl", "bfhm", "drjn"]


def main() -> None:
    platform = Platform(EC2_PROFILE)
    data = generate(micro_scale=0.3, seed=7)
    load_tpch(platform.store, data)
    print(f"loaded TPC-H micro dataset: {data.table_counts}")

    engine = RankJoinEngine(platform)
    query = q1(5)
    print(f"\nquery: {query.description}\n")

    print(f"{'algorithm':>10} {'time (s)':>12} {'net bytes':>12} "
          f"{'KV reads':>10} {'dollars':>10}")
    reference_scores = None
    for name in ALGORITHMS:
        result = engine.execute(query, algorithm=name)
        metrics = result.metrics
        print(f"{result.algorithm:>10} {metrics.sim_time_s:>12.3f} "
              f"{metrics.network_bytes:>12,} {metrics.kv_reads:>10,} "
              f"{metrics.dollars:>10.5f}")
        scores = [round(score, 9) for score in result.scores()]
        if reference_scores is None:
            reference_scores = scores
        assert scores == reference_scores, f"{name} disagrees on the top-k!"

    print("\ntop-5 join results (identical across algorithms):")
    result = engine.execute(query, algorithm="bfhm")
    for rank, t in enumerate(result.tuples, start=1):
        part_key, lineitem_key = t.keys
        print(f"  {rank}. part={part_key} lineitem={lineitem_key} "
              f"score={t.score:.4f}")

    print("\nSQL path gives the same answer:")
    sql = ("SELECT * FROM part P, lineitem L WHERE P.partkey = L.partkey "
           "ORDER BY P.retailprice * L.extendedprice STOP AFTER 5")
    via_sql = engine.sql(sql, algorithm="bfhm")
    print(f"  {sql}")
    print(f"  -> {[round(t.score, 4) for t in via_sql.tuples]}")

    print("\n... and with no algorithm given, the cost-based planner picks:")
    auto = engine.sql(sql)
    print(f"  planner chose {auto.algorithm} "
          f"(see examples/explain_plan.py for the full EXPLAIN tour)")


if __name__ == "__main__":
    main()
