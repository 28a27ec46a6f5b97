"""The one exact gate for committed artefacts (``tests/committed.py``)."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from tests.committed import assert_matches_committed

REPO_ROOT = Path(__file__).resolve().parents[2]

OBSERVED = {"cells": {"Q1_k1_isl": {"time_s": 0.1, "kv_reads": 7}}, "hits": [1, 2]}


def _committed(tmp_path) -> Path:
    path = tmp_path / "golden.json"
    assert_matches_committed(path, OBSERVED, regenerate=True)
    return path


def test_regenerated_file_then_checks_clean(tmp_path):
    path = tmp_path / "golden.json"
    assert_matches_committed(path, {**OBSERVED, "pair": (1, 2)}, regenerate=True)
    assert path.read_text() == json.dumps(
        {**OBSERVED, "pair": [1, 2]}, indent=1, sort_keys=True
    ) + "\n"
    assert_matches_committed(path, {**OBSERVED, "pair": (1, 2)}, regenerate=False)


@pytest.mark.parametrize("drift, where", [
    ({"time_s": math.nextafter(0.1, 1.0), "kv_reads": 7},
     "$.cells.Q1_k1_isl.time_s: 0.1 -> 0.10000000000000002"),
    ({"time_s": 0.1, "kv_reads": 7.0}, "$.cells.Q1_k1_isl.kv_reads: 7 -> 7.0"),
    ({"time_s": 0.1}, "$.cells.Q1_k1_isl.kv_reads: missing"),
    ({"time_s": 0.1, "kv_reads": 7, "new": 0}, "$.cells.Q1_k1_isl.new: unexpected"),
])
def test_a_drifted_leaf_fails_naming_its_path(tmp_path, drift, where):
    """A one-ulp float, a changed type, a missing or an extra key."""
    path = _committed(tmp_path)
    with pytest.raises(AssertionError) as failure:
        assert_matches_committed(
            path, {**OBSERVED, "cells": {"Q1_k1_isl": drift}}, regenerate=False
        )
    assert "1 place(s)" in str(failure.value)
    assert where in str(failure.value)


def test_per_key_write_leaves_other_keys_untouched(tmp_path):
    path = tmp_path / "golden.json"
    for build, layout in ((1, "round_robin"), (2, "locality"), (3, "round_robin")):
        assert_matches_committed(path, {"build": build}, key=layout, regenerate=True)
    assert json.loads(path.read_text()) == {
        "locality": {"build": 2}, "round_robin": {"build": 3},
    }
    assert_matches_committed(path, {"build": 2}, key="locality", regenerate=False)
    with pytest.raises(AssertionError, match=r"\$\.round_robin\.build: 3 -> 4"):
        assert_matches_committed(path, {"build": 4}, key="round_robin", regenerate=False)
    with pytest.raises(AssertionError, match=r"\$\.mixed: missing"):
        assert_matches_committed(path, {"build": 4}, key="mixed", regenerate=False)


def test_a_missing_file_fails(tmp_path):
    with pytest.raises(AssertionError, match="make regen"):
        assert_matches_committed(tmp_path / "absent.json", OBSERVED, regenerate=False)


def test_make_regen_runs_every_suite_that_gates_an_artefact():
    """A suite that calls the gate but is missing from ``make regen``
    would never have its artefact rewritten."""
    makefile = (REPO_ROOT / "Makefile").read_text()
    listed = set(re.findall(r"^\t((?:benchmarks|tests)/\S+\.py)", makefile, re.MULTILINE))
    callers = {
        str(path.relative_to(REPO_ROOT))
        for tree in ("benchmarks", "tests")
        for path in (REPO_ROOT / tree).rglob("test_*.py")
        if "assert_matches_committed(" in path.read_text()
        and path.name != "test_committed.py"
    }
    assert callers == listed
