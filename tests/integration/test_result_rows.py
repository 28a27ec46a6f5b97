"""Which rows come back is pinned, not only what they cost.

``golden_single_server.json`` and the ``BENCH_*`` baselines pin simulated
metrics and at most scores; a change to the result tuple or to a sort or
cut could swap one tied row for another and leave them all green.  This
suite pins every returned tuple — row keys, join value, aggregate score
and component scores, in result order — for

* the six two-way algorithms x Q1/Q2 x k in {1, 10} on one EC2 server;
* the three n-way strategies x the 3-way and 4-way queries of
  ``benchmarks/test_multiway.py`` x k in {1, 10}.

Floats are compared exactly (JSON round-trips them losslessly).

Regenerate (only when a change is meant to alter result rows)::

    PYTHONPATH=src python tests/integration/test_result_rows.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.query.spec import RankJoinQuery
from repro.relational.binding import RelationBinding
from repro.tpch.queries import q1, q2

GOLDEN_PATH = Path(__file__).parent / "golden_results.json"

KS = [1, 10]
TWO_WAY_ALGORITHMS = ["hive", "pig", "ijlmr", "isl", "bfhm", "drjn"]
TWO_WAY_QUERIES = [("Q1", q1), ("Q2", q2)]
MULTIWAY_ALGORITHMS = ["isl", "hrjn", "bfhm"]

#: the benchmarks/test_multiway.py inputs; arity n uses the first n
MULTIWAY_INPUTS = [
    RelationBinding("part", join_column="partkey",
                    score_column="retailprice", alias="P"),
    RelationBinding("lineitem", join_column="partkey",
                    score_column="extendedprice", alias="L1"),
    RelationBinding("lineitem", join_column="partkey",
                    score_column="discount", alias="L2"),
    RelationBinding("lineitem", join_column="partkey",
                    score_column="tax", alias="L3"),
]


def _rows(result) -> "dict[str, object]":
    return {
        "algorithm": result.algorithm,
        "tuples": [
            [list(t.keys), t.join_value, t.score, list(t.scores)]
            for t in result.tuples
        ],
    }


def _two_way_cells() -> "dict[str, object]":
    setup = build_setup(EC2_PROFILE, micro_scale=0.2, seed=42)
    for name in ("ijlmr", "isl", "bfhm", "drjn"):
        setup.engine.algorithm(name).prepare(q1(1))
        setup.engine.algorithm(name).prepare(q2(1))
    cells: "dict[str, object]" = {}
    for qname, factory in TWO_WAY_QUERIES:
        for k in KS:
            query = factory(k)
            for algorithm in TWO_WAY_ALGORITHMS:
                result = setup.engine.execute(query, algorithm=algorithm)
                cells[f"{qname}_k{k}_{algorithm}"] = _rows(result)
    return cells


def _multiway_cells() -> "dict[str, object]":
    setup = build_setup(EC2_PROFILE, micro_scale=0.3, seed=42)
    for arity in (3, 4):
        query = RankJoinQuery.of(MULTIWAY_INPUTS[:arity], "sum", 1)
        setup.engine.prepare(query, algorithms=["isl", "bfhm"])
    cells: "dict[str, object]" = {}
    for arity in (3, 4):
        for k in KS:
            query = RankJoinQuery.of(MULTIWAY_INPUTS[:arity], "sum", k)
            for algorithm in MULTIWAY_ALGORITHMS:
                result = setup.engine.execute(query, algorithm=algorithm)
                cells[f"{arity}way_k{k}_{algorithm}"] = _rows(result)
    return cells


GRIDS = {"two_way": _two_way_cells, "multiway": _multiway_cells}


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_result_rows_match_golden(grid):
    """Every cell returns exactly the pinned tuples, in the pinned order."""
    cells = GRIDS[grid]()
    golden = json.loads(GOLDEN_PATH.read_text())[grid]
    assert sorted(cells) == sorted(golden)
    drifted = [name for name in sorted(golden) if cells[name] != golden[name]]
    assert not drifted, f"result rows drifted in: {drifted}"


if __name__ == "__main__":
    golden = {grid: run() for grid, run in GRIDS.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
