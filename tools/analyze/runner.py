"""Discovery, orchestration, suppression, and output of repro-lint.

Programmatic entry points (used by ``tests/lint``):

* :func:`analyze_paths` — lint files/directories, returning findings
  after pragma suppression;
* :func:`analyze_module` — lint one pre-loaded :class:`ModuleInfo`.

``main`` implements the CLI (see ``python -m tools.analyze --help``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tools.analyze import determinism, exceptions, locks, metering, reachability
from tools.analyze.base import Finding, GuardDecl, ModuleInfo, load_module
from tools.analyze.rules import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def analyze_module(
    info: ModuleInfo,
    registry: "dict[str, dict[str, GuardDecl]] | None" = None,
    references: "dict[str, set[str]] | None" = None,
) -> "list[Finding]":
    """All findings for one module, after inline-pragma suppression.

    ``references`` is the whole-program reference index RL501 checks
    against; it is built from the full trees when not given."""
    if references is None:
        references = reachability.build_index(REPO_ROOT)
    raw: "list[Finding]" = list(info.pragma_findings())
    raw.extend(locks.check(info, registry=registry))
    raw.extend(determinism.check(info))
    raw.extend(metering.check(info))
    raw.extend(exceptions.check(info))
    raw.extend(reachability.check(info, references))
    kept = [
        finding
        for finding in raw
        if finding.rule_id in ("RL001", "RL002")
        or finding.rule_id not in info.disabled_rules(finding.line)
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept


def discover(paths: "list[Path]") -> "list[Path]":
    """The .py files named by ``paths`` (directories recurse, sorted)."""
    files: "list[Path]" = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def analyze_paths(
    paths: "list[Path]",
    registry: "dict[str, dict[str, GuardDecl]] | None" = None,
) -> "list[Finding]":
    """Lint every file under ``paths``; findings sorted by location.

    RL501's reference index always comes from the full trees, however
    few files ``paths`` names."""
    references = reachability.build_index(REPO_ROOT)
    findings: "list[Finding]" = []
    for file in discover(paths):
        info = load_module(file, REPO_ROOT)
        findings.extend(analyze_module(info, registry=registry, references=references))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def changed_files(roots: "list[Path]") -> "list[Path]":
    """Python files under ``roots`` that differ from HEAD (staged,
    unstaged, or untracked) — the ``--changed`` fast path."""
    names: "set[str]" = set()
    for args in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        result = subprocess.run(
            args, cwd=REPO_ROOT, capture_output=True, text=True, check=False
        )
        names.update(line.strip() for line in result.stdout.splitlines() if line.strip())
    resolved_roots = [root.resolve() for root in roots]
    selected: "list[Path]" = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        path = (REPO_ROOT / name).resolve()
        if not path.exists():
            continue
        if any(root == path or root in path.parents for root in resolved_roots):
            selected.append(path)
    return selected


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Invariant-enforcing static analysis for this repo: "
        "lock discipline, determinism, metering, exception safety, "
        "unreferenced definitions.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array (CI annotation format)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files in the working diff vs HEAD (fast local runs)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.rule_id}  {rule.name:24s} {rule.summary}")
        return 0

    roots = [
        path if path.is_absolute() else REPO_ROOT / path
        for path in map(Path, args.paths)
    ]
    if args.changed:
        files: "list[Path]" = changed_files(roots)
        if not files:
            if not args.json:
                print("repro-lint: no changed python files in scope")
            else:
                print("[]")
            return 0
        findings = analyze_paths(files)
    else:
        findings = analyze_paths(roots)

    if args.json:
        print(json.dumps([finding.as_json() for finding in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        checked = len(discover(files if args.changed else roots))
        status = "clean" if not findings else f"{len(findings)} finding(s)"
        print(f"repro-lint: {checked} file(s) checked, {status}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
