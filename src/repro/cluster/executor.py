"""Scatter/gather execution over the simulated region servers.

This is the execution half of the multi-server topology: callers split a
batched store operation into one :class:`ScatterTask` per region server
and hand the batch to :func:`scatter_gather`, which

1. runs every task **inline, in task order, on the caller's thread** —
   fan-out exists on the simulated clock only (the program is pure Python
   under one GIL; ``docs/ARCHITECTURE.md`` "Execution model" records the
   measurements behind that);
2. captures each task's simulated charges on a private per-task
   :class:`~repro.cluster.metrics.MetricsCollector` via the serving
   layer's :class:`~repro.serving.metrics.ThreadLocalMetricsRouter`;
3. folds the captured charges back into the caller's collector in task
   order: byte / KV-read counters are absorbed unchanged (the work
   happened, wherever it ran), while simulated time is re-priced as one
   *parallel round* —

       round = max over servers of (sum of that server's task times)
               + fanout_dispatch_s x (servers - 1)

   the per-server queueing model (:meth:`CostModel.scatter_round_time`).
   Tasks on the same server queue behind each other; distinct servers
   overlap; each extra server costs a fixed dispatch overhead.

Determinism: charges are captured per task and combined in task order, so
the resulting simulated metrics are a pure function of the store state and
the task list.  ``tests/cluster/test_executor.py`` pins this.

Fallbacks run the tasks with charges flowing through untouched (exactly
the seed behaviour, no round priced): single-server topologies, batches
whose tasks all land on one server, and *nested* scatters — a task that
itself calls :func:`scatter_gather` (detected with a thread-local flag)
is already inside a priced round, so its inner batch is priced flat.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
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
    return getattr(_scatter_state, "active", False)


def scatter_gather(
    ctx: "SimContext",
    tasks: "list[ScatterTask]",
    label: "str | None" = None,
) -> "list[Any]":
    """Run ``tasks`` as one parallel round; return results in task order.

    Charges the caller one per-server-queue round (module docstring) and
    bumps ``fanout_rounds`` / ``fanout_tasks`` / ``fanout_overlap_saved_s``
    (plus ``fanout_rounds_<label>``) on the caller's collector.  Falls
    back to unpriced execution — charges untouched — when the topology is
    single-server, all tasks share a server, or the caller is itself a
    scatter task.
    """
    if not tasks:
        return []
    server_ids = {task.server_id for task in tasks}
    if not ctx.topology.parallel or len(server_ids) <= 1 or in_scatter():
        return [task.run() for task in tasks]

    # imported here: serving builds on cluster, not the other way around
    from repro.serving.metrics import install_router

    router = install_router(ctx)
    collectors = []
    results = []
    _scatter_state.active = True
    try:
        for task in tasks:
            with router.scoped() as collector:
                collectors.append(collector)
                results.append(task.run())
    finally:
        _scatter_state.active = False

    # fold captured charges back in task order
    per_server: "dict[int, float]" = {}
    for task, collector in zip(tasks, collectors):
        captured = collector.snapshot()
        router.active.absorb_counts(captured)
        per_server[task.server_id] = (
            per_server.get(task.server_id, 0.0) + captured.sim_time_s
        )
    queue_times = list(per_server.values())
    metrics = ctx.metrics
    metrics.advance_time(ctx.cost_model.scatter_round_time(queue_times))
    metrics.bump("fanout_rounds")
    metrics.bump("fanout_tasks", len(tasks))
    metrics.bump("fanout_overlap_saved_s", sum(queue_times) - max(queue_times))
    if label is not None:
        metrics.bump(f"fanout_rounds_{label}")
    return results
