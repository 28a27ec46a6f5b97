"""Scatter/gather execution over the simulated region servers.

This is the execution half of the multi-server topology: callers split a
batched store operation into one :class:`ScatterTask` per region server
and hand the batch to :func:`scatter_gather`, which

1. runs every task **inline, in task order, on the caller's thread** —
   fan-out exists on the simulated clock only (the program is pure Python
   under one GIL; ``docs/ARCHITECTURE.md`` "Execution model" records the
   measurements behind that);
2. charges each task's work straight to the caller's collector, on a
   clock zeroed for that task (:meth:`MetricsCollector.run_timed`):
   byte / KV-read counters land unchanged (the work happened, wherever
   it ran), while each task's simulated time is read off and the clock
   restored;
3. re-prices the round's time as one *parallel round* —

       round = max over servers of (sum of that server's task times)
               + fanout_dispatch_s x (servers - 1)

   the per-server queueing model (:meth:`CostModel.scatter_round_time`).
   Tasks on the same server queue behind each other; distinct servers
   overlap; each extra server costs a fixed dispatch overhead.

Determinism: tasks run and their times are summed in task order, so the
resulting simulated metrics are a pure function of the store state and
the task list.  A task that raises leaves the collector as it was before
the round.  ``tests/cluster/test_executor.py`` pins both.

Fallbacks run the tasks with charges flowing through untouched (exactly
the seed behaviour, no round priced): single-server topologies, batches
whose tasks all land on one server, and *nested* scatters — a task that
itself calls :func:`scatter_gather` (detected with a thread-local flag)
is already inside a priced round, so its inner batch is priced flat.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.simulation import SimContext


@dataclass(frozen=True)
class ScatterTask:
    """One server's share of a scatter round.

    ``run`` executes that server's slice of the batched operation and
    charges its work through the ambient context metrics.
    """

    server_id: int
    run: Callable[[], Any]


_scatter_state = threading.local()


def in_scatter() -> bool:
    """Whether the calling thread is executing inside a scatter task."""
    return bool(getattr(_scatter_state, "active", False))


def scatter_gather(
    ctx: SimContext,
    tasks: list[ScatterTask],
    label: "str | None" = None,
) -> list[Any]:
    """Run ``tasks`` as one parallel round; return results in task order.

    Charges the caller one per-server-queue round (module docstring) and
    bumps ``fanout_rounds`` / ``fanout_tasks`` / ``fanout_overlap_saved_s``
    (plus ``fanout_rounds_<label>``) on the caller's collector.  Falls
    back to unpriced execution — charges untouched — when the topology is
    single-server, all tasks share a server, or the caller is itself a
    scatter task.
    """
    if (
        len(tasks) < 2
        or not ctx.topology.parallel
        or in_scatter()
        or len({task.server_id for task in tasks}) == 1
    ):
        return [task.run() for task in tasks]

    metrics = ctx.metrics
    _scatter_state.active = True
    try:
        timed = metrics.run_timed([task.run for task in tasks])
    finally:
        _scatter_state.active = False

    per_server: "dict[int, float]" = {}
    for task, (_, seconds) in zip(tasks, timed):
        per_server[task.server_id] = per_server.get(task.server_id, 0.0) + seconds
    queue_times = list(per_server.values())
    metrics.advance_time(ctx.cost_model.scatter_round_time(queue_times))
    metrics.bump("fanout_rounds")
    metrics.bump("fanout_tasks", len(tasks))
    metrics.bump("fanout_overlap_saved_s", sum(queue_times) - max(queue_times))
    if label is not None:
        metrics.bump(f"fanout_rounds_{label}")
    return [result for result, _ in timed]
