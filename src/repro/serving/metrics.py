"""Per-thread metric isolation for concurrent query serving.

Every simulated charge in the system lands on ``SimContext.metrics``, and a
query's bill is the *delta* between two snapshots of that collector
(:meth:`repro.core.base.RankJoinAlgorithm.execute`).  With many in-flight
queries on one platform, interleaved charges would corrupt every delta —
so the serving layer swaps the context's collector for a
:class:`ThreadLocalMetricsRouter` that forwards each charge to the active
thread's scoped collector (one fresh collector per served query), falling
back to the original shared collector outside any scope.

Charges are deterministic functions of the store state and the query, so a
query executed inside a scope produces exactly the metrics it would have
produced running alone — the property the concurrency test suite pins.

Only :class:`~repro.serving.server.QueryServer` installs the router; a
platform no server has touched keeps its plain collector.  Scatter rounds
need no router either: they charge whichever collector ``ctx.metrics``
resolves to on the calling thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.cluster.metrics import MetricsCollector


class ThreadLocalMetricsRouter:
    """Duck-typed stand-in for a :class:`MetricsCollector` that routes every
    attribute access to the calling thread's scoped collector (or to the
    shared base collector when no scope is active)."""

    def __init__(self, base: MetricsCollector) -> None:
        self._base = base
        self._local = threading.local()

    @property
    def active(self) -> MetricsCollector:
        """The collector charges from the calling thread currently land on."""
        scoped = getattr(self._local, "collector", None)
        return scoped if scoped is not None else self._base

    def __getattr__(self, name: str):
        # all MetricsCollector methods and fields (advance_time, snapshot,
        # counters, ...) resolve against the thread's active collector
        return getattr(self.active, name)

    @contextmanager
    def scoped(self, collector: "MetricsCollector | None" = None):
        """Route this thread's charges to ``collector`` (default: a fresh
        zeroed one) for the duration of the ``with`` block."""
        previous = getattr(self._local, "collector", None)
        if collector is None:
            # inherit the $/read rate so scoped dollar totals stay
            # comparable with shared-collector deltas
            collector = MetricsCollector(
                dollars_per_kv_read=self._base.dollars_per_kv_read
            )
        self._local.collector = collector
        try:
            yield self._local.collector
        finally:
            self._local.collector = previous


def install_router(ctx) -> ThreadLocalMetricsRouter:
    """Idempotently wrap ``ctx.metrics`` in a router and return it."""
    if not isinstance(ctx.metrics, ThreadLocalMetricsRouter):
        ctx.metrics = ThreadLocalMetricsRouter(ctx.metrics)
    return ctx.metrics
