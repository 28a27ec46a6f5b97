"""repro-lint rule tests over the fixture corpus, plus the src gate.

Each ``<family>_bad.py`` fixture must produce *exactly* its expected
(rule, line) pairs — no more, no fewer — and each ``<family>_good.py``
twin must be clean, so both false negatives and false positives fail
here.  ``test_src_tree_is_lint_clean`` is the enforcement test: the lint
contract on ``src/repro`` holds at every commit.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from tools.analyze import analyze_paths
from tools.analyze.config import GUARDED_REGISTRY
from tools.analyze.rules import RULES

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = FIXTURES.parent.parent.parent

#: fixture file -> exact expected (rule_id, line) pairs, in location order
EXPECTED: "dict[str, list[tuple[str, int]]]" = {
    "locks_bad.py": [
        ("RL101", 13),
        ("RL102", 15),
        ("RL102", 19),
        ("RL102", 22),
    ],
    "determinism_bad.py": [
        ("RL201", 10),
        ("RL202", 11),
        ("RL202", 12),
        ("RL202", 13),
        ("RL203", 18),
        ("RL203", 20),
        ("RL203", 21),
    ],
    "metering_bad.py": [
        ("RL301", 8),
        ("RL301", 10),
        ("RL302", 15),
        ("RL302", 16),
        ("RL302", 17),
    ],
    "exceptions_bad.py": [
        ("RL401", 6),
        ("RL402", 8),
        ("RL401", 12),
        ("RL402", 16),
        ("RL403", 22),
    ],
    "pragmas_bad.py": [
        ("RL001", 8),
        ("RL002", 12),
    ],
    "unreferenced_bad.py": [
        ("RL501", 7),
        ("RL501", 11),
        ("RL501", 15),
        ("RL501", 19),
        ("RL501", 35),
        ("RL501", 39),
    ],
}

GOOD_FIXTURES = [
    "locks_good.py",
    "determinism_good.py",
    "metering_good.py",
    "exceptions_good.py",
    "pragmas_good.py",
    "unreferenced_good.py",
]


def _findings(name: str) -> "list[tuple[str, int]]":
    found = analyze_paths([FIXTURES / name])
    return [(finding.rule_id, finding.line) for finding in found]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bad_fixture_reports_exact_rule_ids_and_lines(name: str) -> None:
    assert _findings(name) == sorted(EXPECTED[name], key=lambda p: p[1])


@pytest.mark.parametrize("name", GOOD_FIXTURES)
def test_good_fixture_is_clean(name: str) -> None:
    assert _findings(name) == []


def test_every_rule_family_is_covered_by_a_bad_fixture() -> None:
    """A rule in the catalog nobody can trip is dead weight — every rule
    ID must appear in at least one bad fixture's expectations."""
    covered = {rule_id for pairs in EXPECTED.values() for rule_id, _ in pairs}
    assert covered == set(RULES)


def test_src_tree_is_lint_clean() -> None:
    findings = analyze_paths([REPO_ROOT / "src" / "repro"])
    rendered = "\n".join(finding.render() for finding in findings)
    assert not findings, f"repro-lint findings on src/repro:\n{rendered}"


@pytest.mark.parametrize("key", sorted(GUARDED_REGISTRY))
def test_guarded_registry_key_names_a_live_class(key: str) -> None:
    """The lock checker silently skips a ``path:Class`` key that matches
    nothing, so a renamed or deleted class would drop its guard policy
    without a finding — every key must resolve."""
    relpath, class_name = key.split(":")
    path = REPO_ROOT / relpath
    assert path.is_file(), f"GUARDED_REGISTRY names a missing file: {relpath}"
    defined = {
        node.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert class_name in defined, f"{relpath} defines no class {class_name}"


def test_changed_mode_builds_references_from_the_full_trees(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    """``--changed`` lints a subset of files, but RL501's reference set
    still comes from the full trees: ``golomb.py``'s coders and
    ``SSTable.iter_range`` are called only from other modules, so linting
    their files alone as the changed files must report nothing."""
    import json

    from tools.analyze import reachability, runner
    from tools.analyze.base import load_module

    golomb = REPO_ROOT / "src" / "repro" / "sketches" / "golomb.py"
    sstable = REPO_ROOT / "src" / "repro" / "store" / "sstable.py"
    # their own references alone would leave a top-level coder and a
    # method (whose only caller, region.py, is unchanged) unreferenced
    alone = {
        finding.message.split("'")[1]
        for target in (golomb, sstable)
        for finding in reachability.check(load_module(target, REPO_ROOT), {})
    }
    assert {"golomb_encode", "iter_range"} <= alone
    monkeypatch.setattr(runner, "changed_files", lambda roots: [golomb, sstable])
    assert runner.main(["--changed", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cli_exit_codes_and_json() -> None:
    import json
    import subprocess
    import sys

    bad = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "--json",
         str(FIXTURES / "locks_bad.py")],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )
    assert bad.returncode == 1
    payload = json.loads(bad.stdout)
    assert [(f["rule"], f["line"]) for f in payload] == EXPECTED["locks_bad.py"]

    clean = subprocess.run(
        [sys.executable, "-m", "tools.analyze", str(FIXTURES / "locks_good.py")],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )
    assert clean.returncode == 0
    assert "clean" in clean.stdout

    rules = subprocess.run(
        [sys.executable, "-m", "tools.analyze", "--list-rules"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
    )
    assert rules.returncode == 0
    for rule_id in RULES:
        assert rule_id in rules.stdout
