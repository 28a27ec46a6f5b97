"""N-way ISL and HRJN on four region servers, pinned bit-for-bit.

``golden_four_server.json`` pins only two-way queries and
``BENCH_multiway.json`` only one server, so nothing else covers the n-way
ISL scatter drain (every round fetches the next batch of each live
cursor as one scatter/gather).  This suite runs the 3-way and 4-way
queries of ``benchmarks/test_multiway.py`` at k in {1, 10, 25} with the
ISL and HRJN n-way strategies on a four-server topology and compares, per
cell, the simulated time, network bytes, KV reads, every metrics counter
and every scan-depth detail (``batches``, ``scatter_rounds``,
``tuples_seen_<i>``) against ``golden_multiway_four_server.json``.

The golden was captured before the binary and n-way HRJN operators and
ISL drains were merged into one, so it pins that the merge moved nothing.
Floats compare exactly (JSON round-trips them losslessly).

Regenerate (only for an intentional metering change)::

    GOLDEN_MULTIWAY_FOUR_SERVER_OUT=tests/integration/golden_multiway_four_server.json \
        python -m pytest tests/integration/test_multiway_four_server.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding

GOLDEN_PATH = Path(__file__).parent / "golden_multiway_four_server.json"

KS = [1, 10, 25]
ALGORITHMS = ["isl", "hrjn"]
ARITIES = [3, 4]

#: the n-way inputs of benchmarks/test_multiway.py (first ``arity`` used)
BINDINGS = [
    RelationBinding("part", join_column="partkey",
                    score_column="retailprice", alias="P"),
    RelationBinding("lineitem", join_column="partkey",
                    score_column="extendedprice", alias="L1"),
    RelationBinding("lineitem", join_column="partkey",
                    score_column="discount", alias="L2"),
    RelationBinding("lineitem", join_column="partkey",
                    score_column="tax", alias="L3"),
]

#: result details that describe scan depth (other details are not pinned)
DEPTH_DETAILS = ("batches", "scatter_rounds")


def _run_grid() -> "dict[str, dict[str, object]]":
    setup = build_setup(EC2_PROFILE, micro_scale=0.3, seed=42, num_servers=4)
    setup.engine.prepare(
        RankJoinQuery.of(BINDINGS, "sum", 1), algorithms=["isl"]
    )
    cells: "dict[str, dict[str, object]]" = {}
    for arity in ARITIES:
        for k in KS:
            query = RankJoinQuery.of(BINDINGS[:arity], "sum", k)
            for name in ALGORITHMS:
                result = setup.engine.execute(query, algorithm=name)
                metrics = result.metrics
                cells[f"{arity}way_k{k}_{name}"] = {
                    "time_s": metrics.sim_time_s,
                    "network_bytes": metrics.network_bytes,
                    "kv_reads": metrics.kv_reads,
                    "counters": dict(metrics.counters),
                    "scores": result.scores(),
                    "details": {
                        key: value
                        for key, value in result.details.items()
                        if key in DEPTH_DETAILS
                        or key.startswith("tuples_seen_")
                    },
                }
    return cells


def test_multiway_four_server_grid_is_bit_identical():
    cells = _run_grid()

    out = os.environ.get("GOLDEN_MULTIWAY_FOUR_SERVER_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(cells, fh, indent=1, sort_keys=True)
            fh.write("\n")
        pytest.skip(f"golden regenerated at {out}")

    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    drifted = sorted(
        name for name in golden if cells.get(name) != golden[name]
    )
    assert not drifted, (
        "n-way four-server metrics drifted from the golden in: "
        + ", ".join(drifted)
    )
    assert set(cells) == set(golden)
