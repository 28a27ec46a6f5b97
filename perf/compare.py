"""Compare two result files of the suite against the benchmark's bounds.

    python3 perf/compare.py A.json B.json

``A`` is the parent, ``B`` the change.  One row per workload x end-to-end
metric, judged by ``BENCHMARK.json``'s bound for the metric:

* ``REGRESSION`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — no regression, but the spread across repeats (IQR over
  median) of either side exceeds the bound, so "unchanged" cannot be
  claimed; unless every run of B reads better than every run of A, which
  is reported as ``improved``;
* ``ok`` — within the bound, with spreads that can resolve it.

The three simulated metrics are pure functions of seed and op list: any
difference between A and B (or between two runs of one side) is ``DIFF``.
More failed operations in B than in A is a regression too.  The exit code
is non-zero on any ``REGRESSION`` or ``DIFF``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[:0] = [str(ROOT)]

from perf.suite import SIMULATED, spread


def _untraced(results: dict, workload: str) -> "list[dict]":
    return [
        run for run in results["runs"]
        if run["workload"] == workload and not run["trace"]
    ]


def _judge(metric: dict, a: "list[float]", b: "list[float]", same_seed: bool):
    """``(status, worse_by)`` of one workload x metric pairing."""
    name, bound = metric["name"], metric["bound"]
    lower_is_better = metric["better"] == "lower"
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = (median_b - median_a) / median_a if median_a else 0.0
    if not lower_is_better:
        worse_by = -worse_by
    if name in SIMULATED:
        if not same_seed:
            return "n/a (seeds differ)", worse_by
        return ("same" if len(set(a) | set(b)) == 1 else "DIFF"), worse_by
    if worse_by > bound:
        return "REGRESSION", worse_by
    if max(spread(a), spread(b)) > bound:
        if lower_is_better:
            separated = max(b) < min(a)
        else:
            separated = min(b) > max(a)
        return ("improved" if separated else "unresolved"), worse_by
    return "ok", worse_by


def compare(a: dict, b: dict, contract: dict) -> "tuple[list[tuple], bool]":
    """Rows of the comparison and whether any of them fails it."""
    same_seed = a["stamp"]["seed"] == b["stamp"]["seed"]
    rows = []
    bad = False
    # every workload both files hold: the contract's, and serve_open when
    # it was run by hand
    for workload in dict.fromkeys(run["workload"] for run in a["runs"]):
        runs_a, runs_b = _untraced(a, workload), _untraced(b, workload)
        if not runs_a or not runs_b:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values_a = [run["end_to_end"][name] for run in runs_a]
            values_b = [run["end_to_end"][name] for run in runs_b]
            status, worse_by = _judge(metric, values_a, values_b, same_seed)
            bad = bad or status in ("REGRESSION", "DIFF")
            rows.append((
                workload, name,
                statistics.median(values_a), statistics.median(values_b),
                worse_by, metric["bound"], spread(values_a), spread(values_b),
                status,
            ))
        failed_a, failed_b = (
            sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
            for runs in (runs_a, runs_b)
        )
        status = "REGRESSION" if failed_b > failed_a else "ok"
        bad = bad or status == "REGRESSION"
        rows.append((
            workload, "failed_frac", failed_a, failed_b,
            failed_b - failed_a, 0.0, 0.0, 0.0, status,
        ))
    return rows, bad


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    rows, bad = compare(a, b, contract)
    print(f"{'workload':14s} {'metric':16s} {'A median':>14s} {'B median':>14s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread A':>8s} {'spread B':>8s}  status")
    for workload, name, median_a, median_b, worse_by, bound, sa, sb, status in rows:
        print(f"{workload:14s} {name:16s} {median_a:14.4f} {median_b:14.4f} "
              f"{worse_by:+9.3f} {bound:6.2f} {sa:8.3f} {sb:8.3f}  {status}")
    unresolved = {}
    for workload, name, *_, status in rows:
        if status == "unresolved":
            unresolved.setdefault(name, []).append(workload)
    for name, workloads in unresolved.items():
        print(f"unresolved: {name} on {', '.join(workloads)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
