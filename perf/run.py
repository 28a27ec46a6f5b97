"""Run one benchmark workload once and print its metrics.

This is the command ``BENCHMARK.json`` names::

    python3 perf/run.py --workload W --seed S --seconds T --trace 0|1

One run = three times (set-up -> untimed warm-up -> a third of the
measured seconds), then result checks against the brute-force oracle;
``setup_s`` is the median set-up, and the timings are taken over the pass
as it runs while the box is quiet (``quiet_pass``).  Every metric is
printed by name with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``; spans also go to ``perf/out/trace-<workload>.json``).
End-to-end numbers never come from a traced run.

Without ``--workload``, or with ``--repeats``, the command runs the whole
suite instead — see :mod:`perf.suite`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # run as a script: make ``perf`` and the program under test importable
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit("perf/run.py: the program under test (src/repro) is not in this checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse
import gc
import json
import math
import os
import resource
import statistics
import time
import traceback
from functools import partial

from repro.core.bfhm.blobcache import blob_cache
from repro.errors import ReproError

from perf.layers import (
    PER_LAYER_UNITS,
    layer_shares,
    median_phases,
    per_layer_metrics,
    percentile,
)
from perf.oracle import same_scores
from perf.suite import OUT_DIR, run_suite
from perf.tracer import Tracer, span_cost_s
from perf.workloads import WORKLOADS

#: end-to-end metric -> unit (names and order as in BENCHMARK.json)
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "sim_s_per_op": "sim_s",
    "kv_reads_per_op": "count",
    "net_kb_per_op": "kB",
    "peak_rss_mb": "MB",
}

SCALE = 1.0
DEFAULT_SEED = 42
#: set-ups per run; ``setup_s`` is their median, and each is followed by
#: a warm-up and its share of the measured seconds
SETUPS = 3
#: the quantile ``quiet_pass`` keeps of an op's repeats
QUIET = 0.25
#: a run is flagged when the calibration loop drifts by more than this
MAX_CALIB_DRIFT = 0.10
#: ... or when the open-loop generator runs later than this share of the
#: mean gap between arrivals (p95)
MAX_LATE_SHARE = 0.25
#: tracebacks of failed ops shown per run
MAX_TRACEBACKS = 3


def benchmark_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def quiet_pass(records: "list[dict]") -> "list[float]":
    """Per position of the pass, the quiet-quartile latency in ms.

    A run repeats one pass — the same ops in the same order — after every
    set-up and, where the workload cycles, many times per set-up.  The box
    is a shared one that drops to about 0.7 of its speed for a fraction of
    a second up to tens of seconds at a time, and interference only ever
    slows an op down; so of all the times the op at one position ran, the
    run keeps the one a quarter of the way in from the fastest (the
    fastest itself when there are only three).  The result is the pass as
    it runs while the box is left alone; throughput and the latency
    percentiles are taken over it.  The whole-run figures are kept beside
    it in the run's record.
    """
    by_position: "dict[int, list[float]]" = {}
    for record in records:
        by_position.setdefault(record["pos"], []).append(1000.0 * record["latency_s"])
    return [percentile(by_position[pos], QUIET) for pos in sorted(by_position)]


def calibrate() -> float:
    """Best-of-five wall time of a fixed pure-Python loop: a probe of
    how fast this box runs Python right now."""
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# measured phases
# ---------------------------------------------------------------------------


def _record(index, where, op, latency_s, outcome, late_s=None) -> dict:
    segment, pass_no, pos = where
    record = {
        "index": index,
        "segment": segment,
        "pass": pass_no,
        "pos": pos,
        "cls": op.cls,
        "key": op.key,
        "latency_s": latency_s,
        "late_s": late_s,
        "raised": outcome is None,
        "wrong": False,
    }
    for name in (
        "sim_s", "kv_reads", "net_bytes", "tuples", "bfhm_queries",
        "repair_rounds", "query_s",
    ):
        record[name] = getattr(outcome, name, 0)
    record["waited_s"] = getattr(outcome, "waited_s", None)
    record["exec_s"] = getattr(outcome, "exec_s", None)
    return record


class _Checker:
    """Result checks, all outside the timed region.

    A keyed op is compared with the first result of its shape as it
    arrives; each distinct shape is compared with the oracle once, when
    the run ends.  A key-less op is compared with the oracle straight
    away if the workload asks for it.  ``workload`` is the set-up being
    measured; every set-up of a run holds the same database, so a shape's
    first result may come from an earlier one.
    """

    def __init__(self) -> None:
        self.workload = None
        self.first: "dict[str, tuple]" = {}

    def check(self, op, outcome) -> bool:
        workload = self.workload
        if not workload.consistent(outcome):
            return False
        if op.key is not None:
            _, scores = self.first.setdefault(op.key, (op, outcome.scores))
            return scores is outcome.scores or _all_same(scores, outcome.scores)
        if workload.wants_check(op):
            return _all_same(workload.expected(op), outcome.scores)
        return True

    def wrong_keys(self) -> "set[str]":
        return {
            key
            for key, (op, scores) in self.first.items()
            if not _all_same(self.workload.expected(op), scores)
        }


def _all_same(want, got) -> bool:
    return len(want) == len(got) and all(
        same_scores(g, w) for g, w in zip(got, want)
    )


def _report_failure(failures: int) -> None:
    """Show the exception being handled (the first few per run)."""
    if failures <= MAX_TRACEBACKS:
        traceback.print_exc(file=sys.stderr)


def measure_closed(workload, ops, passes, segment, first_index, tracer, checker):
    """One client; the next op starts when the previous one returned.

    Runs the pass ``ops`` ``passes`` times.  Returns the records, each
    tagged with its segment, pass and position in the pass, and the wall
    seconds spent inside ops."""
    clock = time.perf_counter
    records = []
    busy = 0.0
    failures = 0
    for pass_no in range(passes):
        for pos, op in enumerate(ops):
            index = first_index + len(records)
            if tracer is not None:
                tracer.set_op(index)
            start = clock()
            try:
                outcome = workload.execute(op)
            except Exception:
                # an op that raises is a failed op, not the end of the run
                outcome = None
                failures += 1
                _report_failure(failures)
            latency = clock() - start
            busy += latency
            if tracer is not None:
                tracer.set_op(None)
            record = _record(index, (segment, pass_no, pos), op, latency, outcome)
            if outcome is not None:
                record["wrong"] = not checker.check(op, outcome)
            records.append(record)
    return records, busy


def measure_open(workload, ops, passes, segment, first_index, tracer, checker):
    """Arrivals on a schedule, whatever the server does; each op is timed
    from when it was *due*, so a stall also counts against the arrivals
    it delays.  Serves the block ``ops`` ``passes`` times over.  Returns
    the records and the wall seconds from the start to the last completion."""
    clock = time.perf_counter
    size = len(ops)
    schedule = list(zip(workload.arrival_times(size, passes), ops * passes))
    finished: "dict[int, float]" = {}

    def done(number, future) -> None:
        finished[number] = clock()

    in_flight = []
    records: "list[dict | None]" = [None] * len(schedule)
    failures = 0
    start = clock()
    for number, (due, op) in enumerate(schedule):
        where = (segment, *divmod(number, size))
        delay = due - (clock() - start)
        if delay > 0:
            time.sleep(delay)
        late = clock() - start - due
        if tracer is not None:
            tracer.set_op(first_index + number)
        try:
            future = workload.server.submit(op.payload[0])
        except ReproError:
            # shed or refused at admission: a failed op, charged the time
            # it took to be refused
            failures += 1
            _report_failure(failures)
            records[number] = _record(
                first_index + number, where, op, clock() - start - due, None, late
            )
            continue
        future.add_done_callback(partial(done, number))
        in_flight.append((number, where, due, op, late, future))
    if tracer is not None:
        tracer.set_op(None)
    end = clock()
    for number, where, due, op, late, future in in_flight:
        served = future.result()
        # result() can return a moment before the callback has run; then
        # "now" is the completion time
        done_at = finished.get(number) or clock()
        end = max(end, done_at)
        latency = done_at - start - due
        outcome = None
        if served.error is None:
            outcome = workload.outcome(served)
        else:
            failures += 1
            if failures <= MAX_TRACEBACKS:
                print(f"op {number} failed: {served.error!r}", file=sys.stderr)
        record = _record(first_index + number, where, op, latency, outcome, late)
        if outcome is not None:
            record["wrong"] = not checker.check(op, outcome)
        records[number] = record
    return records, end - start


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    seconds: "float | None" = None,
    ops: "int | None" = None,
    trace: bool = False,
    scale: float = SCALE,
    setups: int = SETUPS,
    trace_path: "Path | None" = None,
) -> dict:
    """Run workload ``name`` once; returns the full record of the run.

    Give ``seconds`` (as the driver does: each set-up measures the passes
    that ``seconds / setups`` hold on the reference box, so the work is
    the same in every run) or ``ops`` (exactly that many measured ops per
    set-up, for the smoke test).
    """
    if (seconds is None) == (ops is None):
        raise ValueError("give exactly one of seconds and ops")
    calib_before = calibrate()

    records: "list[dict]" = []
    wall_s = 0.0
    setup_times = []
    setup_phases = []
    delta: "dict[str, float]" = {}
    capacity_qps = 0.0
    passes = 0
    tracer = Tracer() if trace else None
    checker = _Checker()
    workload = None
    try:
        # -- set-up, several times; each is warmed up and measured ---------------
        for segment in range(setups):
            if workload is not None:
                workload.close()
                workload = None
            gc.unfreeze()
            gc.collect()
            # the decoded-blob cache is process-wide and keyed by blob bytes:
            # an earlier set-up from the same seed would have pre-warmed it
            blob_cache.clear()
            start = time.perf_counter()
            workload = WORKLOADS[name](
                seed, scale,
                seconds=None if seconds is None else seconds / setups,
                max_ops=ops,
            )
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            setup_phases.append(dict(workload.phases))

            for op in workload.warmup():
                workload.execute(op)
            if trace and workload.open_loop and segment == 0:
                capacity_qps = workload.capacity_qps()
            pass_ops, repeats = workload.segment()
            # The simulated store is ~100 MB of objects on this process's
            # heap.  Every full collection walks them (~33 ms here) and
            # lands on whichever op crosses the allocation threshold: 13 %
            # of q_auto_adhoc's time, and a jump of one to five times an
            # op's own latency that moves with the op order.  That cost
            # belongs to the simulation (the paper's data sits in region
            # servers, not in the client's heap), so what set-up built is
            # put out of the collector's reach, as a long-running service
            # does after start-up; what the ops allocate is collected as usual.
            gc.collect()
            gc.freeze()

            checker.workload = workload
            measure = measure_open if workload.open_loop else measure_closed
            counters_before = workload.counters()
            if tracer is not None:
                tracer.install()
            try:
                measured, spent = measure(
                    workload, pass_ops, repeats, segment, len(records), tracer, checker
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            for key, value in workload.counters().items():
                delta[key] = delta.get(key, 0) + value - counters_before[key]
            records.extend(measured)
            wall_s += spent
            passes += repeats

        wrong_keys = checker.wrong_keys()
        for record in records:
            if record["key"] in wrong_keys:
                record["wrong"] = True
        base_bytes = workload.base_bytes()
        builds = workload.builds
        open_loop = workload.open_loop
        rate_qps = getattr(workload, "RATE_QPS", None)
    finally:
        if workload is not None:
            workload.close()
        gc.unfreeze()
    calib_after = calibrate()

    attempted = len(records)
    raised = sum(record["raised"] for record in records)
    wrong = sum(record["wrong"] for record in records)
    end_to_end, whole_run = _end_to_end(records, wall_s, setup_times, open_loop)

    # -- validity of the run ----------------------------------------------------
    calib_drift = abs(calib_after - calib_before) / calib_before
    late_p95 = percentile(
        [r["late_s"] for r in records if r["late_s"] is not None], 0.95
    )
    flags = []
    if calib_drift > MAX_CALIB_DRIFT:
        flags.append(f"calibration loop drifted {calib_drift:.1%} over the run")
    if open_loop and late_p95 > MAX_LATE_SHARE / rate_qps:
        flags.append(
            f"load generator ran {1000 * late_p95:.2f} ms late at p95 "
            f"(> {MAX_LATE_SHARE:.0%} of the mean gap)"
        )

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": trace,
        "open_loop": open_loop,
        "attempted": attempted,
        "failed": raised + wrong,
        "correct": wrong == 0,
        "wall_s": wall_s,
        "setup_times_s": setup_times,
        "passes": passes,
        "end_to_end": end_to_end,
        "whole_run": whole_run,
        "per_layer": None,
        "per_class": _per_class(records),
        "ops": [
            [r["cls"], r["segment"], r["pass"], r["pos"], 1000.0 * r["latency_s"]]
            for r in records
        ],
        "percentile_classes": _percentile_classes(records),
        "calib_drift_frac": calib_drift,
        "late_ms_p95": 1000.0 * late_p95,
        "flags": flags,
    }

    if tracer is not None:
        traced = {
            "records": records,
            "wall_s": wall_s,
            "spans": tracer.spans,
            "phases": median_phases(setup_phases),
            "builds": builds,
            "base_bytes": base_bytes,
            "delta": delta,
            "open_loop": open_loop,
            "capacity_qps": capacity_qps,
            "calib_drift_frac": calib_drift,
            "span_cost_s": span_cost_s(),
        }
        result["per_layer"] = per_layer_metrics(traced)
        result["layer_shares"] = layer_shares(traced)
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(
                trace_path,
                meta={"workload": name, "seed": seed, "ops": attempted, "wall_s": wall_s},
            )
    return result


def _end_to_end(records, wall_s, setup_times, open_loop):
    """The end-to-end metrics of a run and the whole-run figures kept
    beside them."""
    completed = sum(not record["raised"] for record in records)
    quiet = quiet_pass(records)
    if open_loop:
        # the schedule fixes the offered load; what can fall is completions
        ops_per_s = completed / wall_s
    else:
        ops_per_s = 1000.0 * len(quiet) / sum(quiet)
    # the simulated metrics are taken over the first pass, so they are a
    # function of the seed and of nothing else
    reference = [r for r in records if r["segment"] == 0 and r["pass"] == 0]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s,
        "latency_ms_p50": percentile(quiet, 0.50),
        "latency_ms_p90": percentile(quiet, 0.90),
        "sim_s_per_op": math.fsum(r["sim_s"] for r in reference) / len(reference),
        "kv_reads_per_op": sum(r["kv_reads"] for r in reference) / len(reference),
        "net_kb_per_op": sum(r["net_bytes"] for r in reference) / len(reference) / 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    latencies_ms = [1000.0 * record["latency_s"] for record in records]
    whole_run = {
        "ops_per_s": completed / wall_s,
        "latency_ms_p50": percentile(latencies_ms, 0.50),
        "latency_ms_p90": percentile(latencies_ms, 0.90),
        "latency_ms_p99": percentile(latencies_ms, 0.99),
        "latency_ms_max": max(latencies_ms),
    }
    return end_to_end, whole_run


def _per_class(records) -> "dict[str, dict]":
    """Op count and latency per operation class."""
    by_class: "dict[str, list[float]]" = {}
    for record in records:
        by_class.setdefault(record["cls"], []).append(1000.0 * record["latency_s"])
    return {
        cls: {
            "ops": len(values),
            "share": len(values) / len(records),
            "latency_ms_p50": percentile(values, 0.5),
        }
        for cls, values in sorted(by_class.items())
    }


def _percentile_classes(records) -> "dict[str, str]":
    """Which class holds the order statistic at and five points around
    the p50 and the p90 — the check behind the op-mix rule."""
    ordered = sorted(records, key=lambda record: record["latency_s"])
    picks = {}
    for point in (45, 50, 55, 85, 90, 95):
        rank = max(1, math.ceil(point / 100.0 * len(ordered)))
        picks[f"p{point}"] = ordered[rank - 1]["cls"]
    return picks


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def result_line(result: dict) -> str:
    """The contract's last line of standard output."""
    if result["trace"]:
        values, units = result["per_layer"], PER_LAYER_UNITS
    else:
        values, units = result["end_to_end"], E2E_UNITS
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def pin_to_one_cpu() -> None:
    """Keep this process and its threads on one of the CPUs it may use.

    The program under test is pure Python: the GIL lets one of its threads
    run at a time, so a second core adds no speed, only wake-ups across
    cores — and on a shared virtual machine what those cost is up to the
    hypervisor (``q_scatter4`` ran at 95 or at 60 ops/s for tens of
    seconds at a time until it was pinned; see the README)."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as error:
        # a sandbox may refuse; the run is still valid, only less steady
        print(f"perf/run.py: not pinned to one CPU ({error})", file=sys.stderr)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", help="a workload of BENCHMARK.json, or serve_open (see the README)"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, help="measured seconds (default: run_seconds)"
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: traced run, per-layer metrics",
    )
    parser.add_argument(
        "--repeats", type=int, help="suite mode: untraced runs per workload"
    )
    parser.add_argument("--detail", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    contract = benchmark_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    if args.workload is None or args.repeats is not None:
        return run_suite(args, contract)

    pin_to_one_cpu()
    result = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        trace_path=OUT_DIR / f"trace-{args.workload}.json",
    )
    for flag in result["flags"]:
        print(f"FLAG {args.workload}: {flag}", file=sys.stderr)
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        with open(args.detail, "w") as handle:
            json.dump(result, handle)
    line = result_line(result)
    for name, metric in json.loads(line)["metrics"].items():
        print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}")
    print(line)
    # no operation of a closed-loop workload may fail
    return 1 if result["failed"] and not result["open_loop"] else 0


if __name__ == "__main__":
    sys.exit(main())
