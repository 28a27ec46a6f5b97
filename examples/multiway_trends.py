"""N-way rank joins: phrases trending across a whole week (§1 + §3).

The paper's per-day log scenario generalizes past two days: "finding the
k most popular phrases appearing in several of these days" is an n-way
rank join on the phrase, with total popularity aggregated over all days.
§3 notes the algorithms extend to multi-way joins directly; this example
runs the n-way ISL rank join over five day-tables and compares its cost
with the naive full join.

Run with::

    python examples/multiway_trends.py
"""

from __future__ import annotations

import random

from repro import LC_PROFILE, Platform, RelationBinding
from repro.common.serialization import encode_float, encode_str
from repro.core.isl import MultiWayISLRankJoin
from repro.query.spec import RankJoinQuery
from repro.relational.binding import load_relation
from repro.relational.multiway import full_join_multi
from repro.relational.naive import naive_rank_join
from repro.store.client import Put

DAYS = ["mon", "tue", "wed", "thu", "fri"]
PHRASE_COUNT = 400


def load_week(platform: Platform) -> list[RelationBinding]:
    rng = random.Random(14)
    phrases = [f"phrase-{i:04d}" for i in range(PHRASE_COUNT)]
    bindings = []
    for day in DAYS:
        table = f"log_{day}"
        htable = platform.store.create_table(table, {"d"})
        for i, phrase in enumerate(phrases):
            if i >= 5 and rng.random() < 0.2:
                continue  # the long tail doesn't trend every day
            # a handful of phrases dominate every day while the tail stays
            # far below — the steep profile the n-way HRJN threshold needs:
            # with n inputs, S = (n-1 top scores) + the scan frontier, so
            # termination requires the frontier to fall well under the
            # k-th result's margin over the tops
            if i < 5:
                popularity = rng.uniform(0.9, 1.0)
            else:
                popularity = rng.uniform(0.01, 0.15)
            htable.put(
                Put(f"{day}-{i:05d}")
                .add("d", "phrase", encode_str(phrase))
                .add("d", "freq", encode_float(round(popularity, 6)))
            )
        htable.flush()
        bindings.append(
            RelationBinding(table, join_column="phrase", score_column="freq",
                            alias=day)
        )
    return bindings


def main() -> None:
    platform = Platform(LC_PROFILE)
    bindings = load_week(platform)
    query = RankJoinQuery.of(bindings, "sum", k=5)

    algorithm = MultiWayISLRankJoin(platform, batch_rows=20)
    result = algorithm.execute(query)

    relations = [load_relation(platform.store, b) for b in bindings]
    truth = naive_rank_join(relations, query.function, query.k)
    full_size = len(full_join_multi(relations, query.function))
    total_rows = sum(len(r) for r in relations)

    print(f"5-way rank join over {total_rows} log rows "
          f"(full join would materialize {full_size} combinations)\n")
    print(f"top-{query.k} phrases of the week (recall "
          f"{result.recall_against(truth):.0%}):")
    store = platform.store.backing(bindings[0].table)
    for rank, t in enumerate(result.tuples, start=1):
        print(f"  {rank}. {t.join_value}  weekly popularity {t.score:.3f} "
              f"(per-day: {', '.join(f'{s:.2f}' for s in t.scores)})")

    seen = sum(v for name, v in result.details.items()
               if name.startswith("tuples_seen_"))
    print(f"\nISL touched {result.metrics.kv_reads} KV pairs "
          f"({seen} tuples of {total_rows}; "
          f"{result.metrics.network_bytes:,} bytes, "
          f"{result.metrics.sim_time_s:.2f}s simulated)")


if __name__ == "__main__":
    main()
