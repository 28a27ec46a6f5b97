"""Aggregate every committed ``BENCH_*.json`` into one trajectory table.

Usage: python tools/bench_summary.py [DIR]

Perf history lives in one baseline file per bench suite (read path,
sketch, serving, ingest, multi-way, planner accuracy,
scatter/gather).  This tool flattens them all into a single
greppable table — one line per ``suite/workload`` with its headline
number — plus each suite's meta headline facts, so "what did X cost at
this commit" is one grep away:

    python tools/bench_summary.py | grep serving

The two clocks in this repo measure different things and must never be
conflated: **wall-clock** suites time the Python implementation on the
machine that ran them, **simulated** suites price work on the cost-model
clock that Figs. 7/8 plot.  Every row therefore carries a unit column —
taken from the suite's ``meta.unit`` when present, else from a per-suite
fallback map — and the closing totals are kept separate per unit (a sum
across clocks would be meaningless).

Reads only committed baselines (``*.candidate.json`` intermediates are
skipped); exit code is 2 when no baseline files are found, 0 otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import sys

#: meta keys worth a summary line of their own (headline derived metrics)
META_HIGHLIGHTS = (
    "speedup",
    "qps",
    "hit_rate",
    "blob_speedup_vs_seed",
    "coder_speedup_vs_seed",
    "result_mismatches",
)

WALL_UNIT = "wall s"
SIM_UNIT = "sim s"

#: suites predating the ``meta.unit`` convention, classified by whether
#: their seconds came from ``time.perf_counter`` or the simulated clock
FALLBACK_UNITS = {
    "ingest": WALL_UNIT,
    "read_path": WALL_UNIT,
    "serving": WALL_UNIT,
    "sketch": WALL_UNIT,
    "multiway": SIM_UNIT,
    "planner": SIM_UNIT,
    "scatter": SIM_UNIT,
}


def _suite_name(path: str) -> str:
    base = os.path.basename(path)
    return base[len("BENCH_"):-len(".json")]


def _unit_label(suite: str, meta: dict) -> str:
    """Normalise a suite's clock to a short unit-column label."""
    unit = str(meta.get("unit", ""))
    if "wall" in unit:
        return WALL_UNIT
    if "sim" in unit:
        return SIM_UNIT
    return FALLBACK_UNITS.get(suite, "s?")


def _flatten_meta(meta: dict, prefix: str = "") -> "list[tuple[str, float]]":
    rows = []
    for key, value in sorted(meta.items()):
        if isinstance(value, dict):
            rows.extend(_flatten_meta(value, prefix=f"{prefix}{key}."))
        elif f"{prefix}{key}".split(".")[-1] in META_HIGHLIGHTS and isinstance(
            value, (int, float)
        ):
            rows.append((f"{prefix}{key}", float(value)))
    return rows


def summarize(directory: str) -> "list[str]":
    """The trajectory table as a list of printable lines."""
    paths = sorted(
        path
        for path in glob.glob(os.path.join(directory, "BENCH_*.json"))
        if not path.endswith(".candidate.json")
    )
    if not paths:
        return []
    lines = []
    header = (
        f"{'suite':<10} {'workload':<28} {'seconds':>12} {'unit':<7} {'extra':<24}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    totals: "dict[str, tuple[float, int]]" = {}
    for path in paths:
        suite = _suite_name(path)
        with open(path) as fh:
            data = json.load(fh)
        unit = _unit_label(suite, data.get("meta", {}))
        for name, cell in sorted(data.get("workloads", {}).items()):
            seconds = cell.get("seconds")
            extras = []
            for key in ("ops", "per_op_us", "kv_reads", "network_bytes",
                        "chosen", "fastest"):
                if key in cell:
                    extras.append(f"{key}={cell[key]}")
            if seconds is not None:
                total, count = totals.get(unit, (0.0, 0))
                totals[unit] = (total + seconds, count + 1)
            lines.append(
                f"{suite:<10} {name:<28} "
                + (f"{seconds:>12.6f} " if seconds is not None else f"{'—':>12} ")
                + f"{unit:<7} "
                + f"{' '.join(extras):<24}"
            )
        for key, value in _flatten_meta(data.get("meta", {})):
            lines.append(
                f"{suite:<10} {'meta:' + key:<28} {'':>12} {'':<7} {value:<24g}"
            )
    lines.append("-" * len(header))
    for unit in sorted(totals):
        total, count = totals[unit]
        lines.append(
            f"{'total':<10} {f'{count} workloads':<28} {total:>12.6f} {unit:<7}"
        )
    return lines


def main(argv: "list[str]") -> int:
    directory = argv[1] if len(argv) > 1 else "."
    lines = summarize(directory)
    if not lines:
        print(f"no BENCH_*.json baselines under {directory}")
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
