"""The paper's first motivating scenario (§1): per-day search-engine logs.

"Take for example a collection of per-day search engine logs, consisting of
phrases and their frequency of appearance in user inputs, with a separate
table or file per day.  Now imagine we wish to find the k most popular
phrases appearing in several of these days.  This would be formulated as a
rank-join query, where the phrase text is the join attribute, and the total
popularity of each phrase is computed as an aggregate over the per-day
frequencies."

This example builds two day-tables of phrase frequencies (Zipf-like
popularity), indexes them with BFHM, and finds the phrases most popular on
*both* days without ever materializing the full join.

Run with::

    python examples/search_engine_logs.py
"""

from __future__ import annotations

import random

from repro import LC_PROFILE, Platform, RankJoinEngine, RankJoinQuery, RelationBinding
from repro.common.serialization import encode_float, encode_str
from repro.store.client import Put

HEAD_PHRASES = [
    "weather tomorrow", "breaking news", "cheap flights", "pizza near me",
    "how to tie a tie", "movie times", "currency converter", "translate",
    "stock prices", "football scores", "recipe pasta", "bus schedule",
    "lottery numbers", "tv guide", "horoscope", "traffic update",
    "unit conversion", "world map", "calorie counter", "password generator",
]

_TOPICS = ("news", "weather", "flights", "recipes", "scores", "maps",
           "prices", "reviews", "lyrics", "jobs")
_MODIFIERS = ("best", "cheap", "local", "today", "free", "top", "near me",
              "2014", "how to", "live")

#: a long Zipf tail of machine-generated phrases (full daily log)
PHRASES = HEAD_PHRASES + [
    f"{modifier} {topic} {i}"
    for i in range(75)
    for topic in _TOPICS
    for modifier in _MODIFIERS[:2]
]


def log_table_for_day(platform: Platform, day: str, seed: int) -> None:
    """One day's log: every phrase with a normalized query frequency."""
    rng = random.Random(seed)
    htable = platform.store.create_table(day, {"d"})
    for rank, phrase in enumerate(PHRASES):
        # Zipf-flavoured popularity with per-day jitter
        base = 1.0 / (rank + 1)
        frequency = min(1.0, base * rng.uniform(0.6, 1.4))
        row_key = f"{day}-{rank:04d}"
        htable.put(
            Put(row_key)
            .add("d", "phrase", encode_str(phrase))
            .add("d", "freq", encode_float(round(frequency, 6)))
        )
    htable.flush()


def main() -> None:
    platform = Platform(LC_PROFILE)
    log_table_for_day(platform, "log_2014_03_01", seed=1)
    log_table_for_day(platform, "log_2014_03_02", seed=2)

    query = RankJoinQuery.of(
        RelationBinding("log_2014_03_01", join_column="phrase",
                        score_column="freq", alias="D1"),
        RelationBinding("log_2014_03_02", join_column="phrase",
                        score_column="freq", alias="D2"),
        "sum",  # total popularity = sum of per-day frequencies
        k=5,
    )

    engine = RankJoinEngine(platform)
    print("building BFHM indices over the two day-tables ...")
    for report in engine.algorithm("bfhm").prepare(query):
        print(f"  {report.signature}: {report.index_bytes:,} bytes, "
              f"{report.build_time_s:.2f}s simulated build")

    result = engine.execute(query, algorithm="bfhm")
    print(f"\ntop-{query.k} phrases across both days "
          f"(BFHM; {result.metrics.kv_reads} KV reads, "
          f"{result.metrics.network_bytes:,} bytes):")
    store = platform.store.backing("log_2014_03_01")
    for rank, t in enumerate(result.tuples, start=1):
        phrase = store.read_row(t.keys[0]).value("d", "phrase").decode()
        print(f"  {rank}. {phrase!r:28} combined popularity {t.score:.3f} "
              f"({t.scores[0]:.3f} + {t.scores[1]:.3f})")

    # contrast with the naive full-join cost through Hive
    hive = engine.execute(query, algorithm="hive")
    print(f"\nsame answer via Hive-style full join: "
          f"{hive.metrics.kv_reads} KV reads, "
          f"{hive.metrics.network_bytes:,} bytes, "
          f"{hive.metrics.sim_time_s:.1f}s — "
          f"{hive.metrics.network_bytes / max(1, result.metrics.network_bytes):.0f}x "
          "the bandwidth of BFHM")
    assert [round(t.score, 9) for t in hive.tuples] == [
        round(t.score, 9) for t in result.tuples
    ]


if __name__ == "__main__":
    main()
