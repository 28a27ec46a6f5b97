"""Run the whole benchmark: every workload, several times, each run in a
fresh subprocess.

    PYTHONPATH=src python -m perf.run [--workload W] [--seed S] [--repeats R] [--trace]

A fresh process per run gives every run its own peak RSS and cold
process-wide caches (``blob_cache``, the ``ScatterPool``).  ``--trace``
adds one traced run per workload after the untraced ones; end-to-end
numbers are only ever taken from the untraced runs.  Everything is
written to ``perf/out/results.json`` (input of ``perf/compare.py``) and
summarised on standard output.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: untraced runs per workload unless ``--repeats`` says otherwise
DEFAULT_REPEATS = 3

#: the three end-to-end metrics that are pure functions of the seed and
#: the op list: under one seed they must repeat exactly
SIMULATED = ("sim_s_per_op", "kv_reads_per_op", "net_kb_per_op")


def spread(values: "list[float]") -> float:
    """Interquartile range over the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in its own interpreter; returns its full record."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        detail = Path(scratch) / "detail.json"
        done = subprocess.run(
            [
                sys.executable, str(RUN),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
                "--detail", str(detail),
            ],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        # exit code 1 is "ops failed": the record still says how many
        if done.returncode not in (0, 1) or not detail.is_file():
            raise RuntimeError(
                f"{workload} (seed {seed}, trace {trace}) exited with "
                f"{done.returncode} and no result"
            )
        with open(detail) as handle:
            return json.load(handle)


def _summarise(contract: dict, runs: "list[dict]") -> None:
    units = {metric["name"]: metric["unit"] for metric in contract["end_to_end"]}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        untraced = [
            run for run in runs if run["workload"] == workload and not run["trace"]
        ]
        traced = [run for run in runs if run["workload"] == workload and run["trace"]]
        attempted = sum(run["attempted"] for run in untraced)
        failed = sum(run["failed"] for run in untraced)
        print(f"\n== {workload}: {len(untraced)} runs, ops "
              f"{[run['attempted'] for run in untraced]}, "
              f"failed_frac {failed / max(1, attempted):.6f}")
        for name, unit in units.items():
            values = [run["end_to_end"][name] for run in untraced]
            if not values:
                continue
            print(
                f"  {name:18s} median {statistics.median(values):14.4f} {unit:6s}"
                f" min {min(values):12.4f} max {max(values):12.4f}"
                f" spread {spread(values):6.3f}"
            )
        for run in untraced + traced:
            for flag in run["flags"]:
                print(f"  FLAG (seed {run['seed']}, trace {int(run['trace'])}): {flag}")
        for run in traced:
            print("  per layer (traced run; zeros omitted):")
            for name, value in run["per_layer"].items():
                if value:
                    print(f"    {name:40s} {value:16.4f}")
            shares = ", ".join(
                f"{layer} {share:.1%}"
                for layer, share in run["layer_shares"].items()
                if share >= 0.005
            )
            print(f"  self-time share of the measured wall: {shares}")
            if untraced:
                base = statistics.median(
                    run["end_to_end"]["ops_per_s"] for run in untraced
                )
                observed = 1.0 - run["end_to_end"]["ops_per_s"] / base
                print(f"  observed tracing overhead (ops_per_s vs untraced median): "
                      f"{observed:.1%}")


def run_suite(args, contract: dict) -> int:
    """Run the workloads ``args`` selects; returns the exit code."""
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None:
        names = [args.workload]
    repeats = args.repeats if args.repeats is not None else DEFAULT_REPEATS
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    runs = []
    for name in names:
        for repeat in range(repeats):
            print(f"{name}: run {repeat + 1}/{repeats}", file=sys.stderr)
            runs.append(_run_once(name, args.seed, args.seconds, trace=0))
        if args.trace:
            print(f"{name}: traced run", file=sys.stderr)
            runs.append(_run_once(name, args.seed, args.seconds, trace=1))

    results = {
        "stamp": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.platform(),
            "commit": _commit(),
            "seed": args.seed,
            "scale": runs[0]["scale"] if runs else None,
            "seconds": args.seconds,
            "repeats": repeats,
        },
        "runs": runs,
    }
    with open(OUT_DIR / "results.json", "w") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(json.dumps(results["stamp"]))
    _summarise(contract, runs)

    # no operation of a closed-loop workload may fail
    broken = [
        run["workload"] for run in runs if run["failed"] and not run["open_loop"]
    ]
    if broken:
        print(f"failed ops on closed-loop workloads: {sorted(set(broken))}",
              file=sys.stderr)
        return 1
    return 0
