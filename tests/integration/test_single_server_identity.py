"""Simulated metrics are pinned bit-for-bit, per topology.

The scatter/gather layer must leave the default (one region server)
configuration's fig7/8-style simulated metrics untouched — the PR-2/PR-5
methodology.  This suite replays a compact grid (Q1/Q2 x k x algorithm on
the shared EC2-profile setup) and compares every cell's simulated time,
network bytes, and KV reads against ``golden_single_server.json``,
captured on the commit *before* the scatter/gather layer landed.

The same grid on four region servers (round-robin and
:class:`~repro.cluster.topology.LocalityBalancer` layouts) is pinned by
``golden_four_server.json``: per layout the post-``prepare`` build
snapshot (time, bytes, reads, disk bytes, every counter) and every cell
including its counters (``fanout_rounds*``, ``fanout_overlap_saved_s``).
A round's price is a function of its task list alone, so this file must
survive any change to how rounds are physically executed.  It was captured
on the last commit that ran rounds on a thread pool.

Floats are compared exactly: JSON round-trips Python floats losslessly
(repr-shortest), so any drift — even one reordered floating-point add in a
charging path — fails here.

Regenerate (only when an intentional metering change lands, with the same
justification discipline as the Golomb golden vectors)::

    GOLDEN_SINGLE_SERVER_OUT=tests/integration/golden_single_server.json \
    GOLDEN_FOUR_SERVER_OUT=tests/integration/golden_four_server.json \
        python -m pytest tests/integration/test_single_server_identity.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.bench.harness import build_setup
from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.topology import LocalityBalancer
from repro.tpch.queries import q1, q2

GOLDEN_PATH = Path(__file__).parent / "golden_single_server.json"
GOLDEN_FOUR_PATH = Path(__file__).parent / "golden_four_server.json"

#: the pinned grid — small enough to stay cheap in tier-1, wide enough to
#: cross every charging path the fan-out layer touches (batched scans for
#: ISL, point gets + multi-gets for BFHM, a full MapReduce job for IJLMR,
#: filtered scans + scratch tables for DRJN)
KS = [1, 10, 50]
ALGORITHMS = ["isl", "bfhm", "ijlmr", "drjn"]
QUERIES = [("Q1", q1), ("Q2", q2)]

#: four-server layouts: golden key -> balancer factory (None = round-robin)
FOUR_SERVER_LAYOUTS = {"round_robin": lambda: None, "locality": LocalityBalancer}


def _pinned_setup(num_servers=1, balancer=None):
    """A private setup, NOT the session-shared one.

    ``shared_setup`` accumulates deterministic-but-order-dependent state
    as other read-only tests execute queries against it (MapReduce
    placement cursors, timestamp counters), so grid metrics there depend
    on which tests ran first.  The golden is pinned against a fresh
    setup prepared exactly like ``shared_setup``'s construction.
    """
    setup = build_setup(
        EC2_PROFILE,
        micro_scale=0.2,
        seed=42,
        num_servers=num_servers,
        balancer=balancer,
    )
    for name in ("ijlmr", "isl", "bfhm", "drjn"):
        setup.engine.algorithm(name).prepare(q1(1))
        setup.engine.algorithm(name).prepare(q2(1))
    return setup


def _pinned(snapshot) -> "dict[str, object]":
    return {
        "time_s": snapshot.sim_time_s,
        "network_bytes": snapshot.network_bytes,
        "kv_reads": snapshot.kv_reads,
        "disk_bytes_read": snapshot.disk_bytes_read,
        "counters": dict(snapshot.counters),
    }


def _run_grid(setup) -> "dict[str, dict[str, object]]":
    cells: "dict[str, dict[str, object]]" = {}
    for qname, factory in QUERIES:
        for k in KS:
            query = factory(k)
            for algorithm in ALGORITHMS:
                result = setup.engine.execute(query, algorithm=algorithm)
                cells[f"{qname}_k{k}_{algorithm}"] = _pinned(result.metrics)
    return cells


def _mismatches(golden, actual, path="") -> "list[str]":
    """Every leaf of ``golden`` that ``actual`` does not reproduce exactly
    (``actual`` may carry fields an older golden never pinned)."""
    if not isinstance(golden, dict):
        return [] if actual == golden else [f"{path}: {golden!r} -> {actual!r}"]
    if not isinstance(actual, dict):
        return [f"{path}: {golden!r} -> {actual!r}"]
    found = []
    for key in sorted(golden):
        where = f"{path}.{key}" if path else key
        if key not in actual:
            found.append(f"{where}: missing")
        else:
            found.extend(_mismatches(golden[key], actual[key], where))
    return found


def test_single_server_grid_is_bit_identical():
    """Every grid cell's simulated metrics equal the pre-PR golden exactly."""
    cells = _run_grid(_pinned_setup())

    out = os.environ.get("GOLDEN_SINGLE_SERVER_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(cells, fh, indent=1, sort_keys=True)
        pytest.skip(f"golden regenerated at {out}")

    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert set(cells) == set(golden)
    mismatches = _mismatches(golden, cells)
    assert not mismatches, (
        "single-server simulated metrics drifted from the pre-scatter "
        "golden:\n  " + "\n  ".join(mismatches)
    )


@pytest.mark.parametrize("layout", sorted(FOUR_SERVER_LAYOUTS))
def test_four_server_grid_is_bit_identical(layout):
    """Build snapshot and every grid cell (counters included) on four
    region servers equal the committed golden exactly."""
    setup = _pinned_setup(num_servers=4, balancer=FOUR_SERVER_LAYOUTS[layout]())
    observed = {
        "build": _pinned(setup.platform.metrics.snapshot()),
        "cells": _run_grid(setup),
    }

    out = os.environ.get("GOLDEN_FOUR_SERVER_OUT")
    if out:
        # each layout rewrites only its own key of the shared file
        path = Path(out)
        golden = json.loads(path.read_text()) if path.exists() else {}
        golden[layout] = observed
        path.write_text(json.dumps(golden, indent=1, sort_keys=True))
        pytest.skip(f"golden[{layout}] regenerated at {out}")

    with open(GOLDEN_FOUR_PATH) as fh:
        golden = json.load(fh)[layout]
    mismatches = _mismatches(golden, observed)
    assert not mismatches, (
        f"four-server ({layout}) simulated metrics drifted from the "
        "golden:\n  " + "\n  ".join(mismatches)
    )
    # nothing beyond the golden either (a new cell or counter is drift too)
    assert observed == golden
