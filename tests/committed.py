"""One exact gate, and one way to regenerate it, for every committed artefact.

Every ``golden_*.json`` and simulated ``BENCH_*.json`` in the repository
is a pure function of the code: the simulated clock is deterministic, so
any drift is a bug or an intentional change that must re-commit the file.
Each suite hands what it observed to :func:`assert_matches_committed`:

* plain ``pytest`` compares it with the committed file and fails with the
  JSON path of every leaf that moved, appeared or went missing;
* ``pytest --regenerate`` (``make regen``; the root ``conftest.py`` hands
  the switch to tests as the ``regenerate`` fixture) writes it instead, in
  the one layout below, so ``git diff`` shows what moved.

Floats compare exactly: JSON round-trips Python floats losslessly, so a
one-ulp drift fails.  ``tests/unit/golden_golomb.json`` is the frozen wire
format and never goes through here.
"""

from __future__ import annotations

import json
from pathlib import Path

#: mismatch lines shown before the rest are counted
SHOWN = 40


def assert_matches_committed(
    path: Path, observed, key: "str | None" = None, *, regenerate: bool
) -> None:
    """Check ``observed`` against the JSON file at ``path``, or rewrite the
    file when ``regenerate``.  With ``key``, ``observed`` is that one
    top-level entry of the file, and a rewrite leaves every other entry as
    it is (suites that fill one file per parametrised case)."""
    # what the file holds is what JSON holds: tuples become lists
    observed = json.loads(json.dumps(observed))
    committed = json.loads(path.read_text()) if path.exists() else None
    if regenerate:
        if key is not None:
            observed = {**(committed or {}), key: observed}
        path.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
        return
    assert committed is not None, f"{path} is missing; run `make regen`"
    root = "$"
    if key is not None:
        root = f"$.{key}"
        assert key in committed, f"{path}: {root}: missing"
        committed = committed[key]
    drift = _mismatches(committed, observed, root)
    assert not drift, (
        f"{path} does not match this run in {len(drift)} place(s) "
        "(`make regen` rewrites it if the change is intended):\n  "
        + "\n  ".join(drift[:SHOWN])
        + (f"\n  ... and {len(drift) - SHOWN} more" if len(drift) > SHOWN else "")
    )


def _mismatches(want, got, path: str = "$") -> "list[str]":
    """The JSON path of every place ``got`` differs from ``want``."""
    if isinstance(want, dict) and isinstance(got, dict):
        found = [f"{path}.{key}: missing" for key in sorted(want.keys() - got.keys())]
        found += [f"{path}.{key}: unexpected" for key in sorted(got.keys() - want.keys())]
        for key in sorted(want.keys() & got.keys()):
            found += _mismatches(want[key], got[key], f"{path}.{key}")
        return found
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: {len(want)} -> {len(got)} entries"]
        found = []
        for index, (item, other) in enumerate(zip(want, got)):
            found += _mismatches(item, other, f"{path}[{index}]")
        return found
    # compare as the file would spell them: 1 and 1.0 or True differ
    if json.dumps(want) == json.dumps(got):
        return []
    return [f"{path}: {want!r} -> {got!r}"]
