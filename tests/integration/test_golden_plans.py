"""Every number the planner produces is pinned, field for field.

``BENCH_planner.json`` records only which algorithm each plan picked, so a
change that shifts an estimate by one float ulp — a re-ordered sum in a
memoised helper, a profile built from a different grid — would pass every
other test.  This suite plans a fixed grid and compares every
:class:`~repro.query.planner.CostEstimate` field (``time_s``,
``network_bytes``, ``kv_reads``, ``dollars``, the ``breakdown`` with its
component order, the ``notes``) and the ranking order of the estimates
against ``golden_plans.json``:

* EC2 and LC cost profiles, on 1 and on 4 region servers;
* indexes unbuilt (statistics histograms re-projected) and built (blob-row
  facts), the two sources ``_bfhm_profile`` reads a side profile from;
* Q1/Q2 x k in {1, 10, 20, 50, 100}, the weighted-sum Q2 variant with
  w in {2, 5}, and the 3-way ``part ⋈ lineitem ⋈ lineitem``.

Floats are compared exactly (JSON round-trips Python floats losslessly).
The golden was captured on the last commit whose planner rebuilt all of
its inputs for every plan, and must survive any change to *how* those
inputs are built or reused.

Regenerate (only when an intentional cost-model change lands)::

    GOLDEN_PLANS_OUT=tests/integration/golden_plans.json \
        python -m pytest tests/integration/test_golden_plans.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE, LC_PROFILE
from repro.query.parser import parse_rank_join
from repro.tpch.queries import Q2_SQL, q1, q2

GOLDEN_PATH = Path(__file__).parent / "golden_plans.json"

PROFILES = {"ec2": EC2_PROFILE, "lc": LC_PROFILE}
SERVERS = (1, 4)
KS = (1, 10, 20, 50, 100)
WEIGHTS = (2, 5)
WEIGHTED_KS = (10, 50)
THREE_WAY_KS = (10, 50)

WEIGHTED_Q2_SQL = Q2_SQL.replace("O.totalprice +", "{w} * O.totalprice +")
THREE_WAY_SQL = (
    "SELECT * FROM part P, lineitem L1, lineitem L2 "
    "WHERE P.partkey = L1.partkey AND L1.partkey = L2.partkey "
    "ORDER BY P.retailprice + L1.extendedprice + L2.extendedprice "
    "STOP AFTER {k}"
)


def _queries():
    """``label -> query`` of the pinned grid, in a fixed order."""
    queries = {}
    for k in KS:
        queries[f"Q1_k{k}"] = q1(k)
        queries[f"Q2_k{k}"] = q2(k)
    for w in WEIGHTS:
        for k in WEIGHTED_KS:
            queries[f"Q2w{w}_k{k}"] = parse_rank_join(
                WEIGHTED_Q2_SQL.format(w=w, k=k)
            )
    for k in THREE_WAY_KS:
        queries[f"Q3_k{k}"] = parse_rank_join(THREE_WAY_SQL.format(k=k))
    return queries


def _pinned(plan) -> "list[dict[str, object]]":
    """The plan's estimates in ranked order; ``breakdown`` as a list of
    pairs so the component order is pinned too."""
    return [
        {
            "algorithm": estimate.algorithm,
            "time_s": estimate.time_s,
            "network_bytes": estimate.network_bytes,
            "kv_reads": estimate.kv_reads,
            "dollars": estimate.dollars,
            "breakdown": [list(item) for item in estimate.breakdown.items()],
            "notes": list(estimate.notes),
        }
        for estimate in plan.estimates
    ]


def _observe(profile: str, servers: int) -> "dict[str, object]":
    """The grid planned twice on one store: before any index exists, then
    with every two-way index (and so the n-way ones that adopt them) built.
    Keys are ``<profile>_<servers>srv/<built|unbuilt>/<query>``."""
    setup = build_setup(
        PROFILES[profile], micro_scale=0.2, seed=42, num_servers=servers
    )
    observed = {}
    for state in ("unbuilt", "built"):
        if state == "built":
            setup.engine.prepare(q1(1))
            setup.engine.prepare(q2(1))
        for label, query in _queries().items():
            observed[f"{profile}_{servers}srv/{state}/{label}"] = _pinned(
                setup.engine.plan(query)
            )
    return observed


def _mismatches(golden, actual, path="") -> "list[str]":
    if isinstance(golden, dict) and isinstance(actual, dict):
        found = [
            f"{path}.{key}: only in one side"
            for key in sorted(set(golden) ^ set(actual))
        ]
        for key in sorted(set(golden) & set(actual)):
            found.extend(_mismatches(golden[key], actual[key], f"{path}.{key}"))
        return found
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            return [f"{path}: {len(golden)} -> {len(actual)} entries"]
        found = []
        for index, (want, got) in enumerate(zip(golden, actual)):
            found.extend(_mismatches(want, got, f"{path}[{index}]"))
        return found
    return [] if golden == actual else [f"{path}: {golden!r} -> {actual!r}"]


def test_every_estimate_field_matches_the_golden():
    observed = {}
    for profile in PROFILES:
        for servers in SERVERS:
            observed.update(_observe(profile, servers))
    # what the golden holds is what JSON holds (tuples become lists)
    observed = json.loads(json.dumps(observed))

    out = os.environ.get("GOLDEN_PLANS_OUT")
    if out:
        # one plan per line: a regenerated golden diffs plan by plan
        with open(out, "w") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(observed[key])}"
                for key in sorted(observed)
            ) + "\n}\n")
        pytest.skip(f"golden regenerated at {out}")

    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    mismatches = _mismatches(golden, observed)
    assert not mismatches, (
        f"{len(mismatches)} plan fields drifted from golden_plans.json:\n  "
        + "\n  ".join(mismatches[:40])
    )
