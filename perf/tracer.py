"""In-memory span tracer for the benchmark's traced run.

The program under test has no spans of its own, so the traced run wraps
its *public entry points* at run time, at the name where each one is
looked up (a class attribute, or the importing module's global for
functions imported by name), and restores every original on
:meth:`Tracer.uninstall`.  End-to-end numbers never come from a traced
run; the tracer exists to say *where* an end-to-end number went.

A span is ``(id, name, start, end, parent, op, thread, busy, n)``:

* ``parent`` is the span that was open on the same thread when this one
  started (scatter tasks inherit the ``scatter_gather`` span that
  dispatched them, across the pool's threads);
* ``op`` is the benchmark operation the work belongs to — all spans of
  one request share it.  Work the serving layer moves to its worker
  threads carries the thread name but no op id: the hand-off happens
  inside ``QueryServer.submit`` and is not a public seam;
* ``busy`` is set only for scan iterators, whose work is spread over
  many ``next()`` calls: it is the time spent inside those calls, while
  ``start``/``end`` bracket the first and the last.  A scan emits one
  span per run of consecutive ``next()`` calls made under the same
  parent (the first named ``store.read.scan``, the rest
  ``store.read.scan+``), so a scanner shared between scatter rounds is
  attributed to each round separately;
* ``n`` is the work count of the call (rows read, cells written, tasks
  in a round, rows in a maintenance batch), recorded at the boundary
  where the work happens.

Self time of a span is its own time minus the part its children cover
(union of child intervals; ``busy`` for iterator children).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import replace

SPAN_COLUMNS = (
    "id", "name", "start", "end", "parent", "op", "thread", "busy", "n",
)

#: algorithm display name (``RankJoinAlgorithm.name``) -> layer prefix
ALGORITHM_LAYERS = {
    "ISL": "core.isl",
    "BFHM": "core.bfhm",
    "IJLMR": "core.ijlmr",
    "HIVE": "baselines.hive",
    "PIG": "baselines.pig",
    "DRJN": "baselines.drjn",
    "ISL-nway": "core.nway.isl",
    "HRJN-nway": "core.nway.hrjn",
    "BFHM-cascade": "core.nway.bfhm",
}


class Tracer:
    """Records spans around the program's public entry points."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []

    # -- per-thread context ---------------------------------------------------

    def _state(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.op = None
            tls.inherited = None
            tls.thread = threading.current_thread().name
        return tls

    def set_op(self, op_id: "int | None") -> None:
        """Tag every span the calling thread opens from now on."""
        self._state().op = op_id

    def _inherit(self, run, parent: int, op: "int | None"):
        """``run`` bound to the dispatching span, for pool threads."""

        def bound():
            tls = self._state()
            saved = (tls.inherited, tls.op)
            tls.inherited, tls.op = parent, op
            try:
                return run()
            finally:
                tls.inherited, tls.op = saved

        return bound

    # -- wrappers ------------------------------------------------------------

    def _traced(self, original, name, count=None, rebind=None):
        """Wrap ``original`` in a span.

        ``name`` is a string or ``f(args) -> str``; ``count`` is
        ``f(args, result) -> int``; ``rebind`` is
        ``f(args, kwargs, span_id, op) -> (args, kwargs)`` and lets the
        scatter wrapper hand its span to the tasks it dispatches.
        """
        spans = self.spans
        ids = self._ids
        state = self._state
        clock = time.perf_counter
        fixed_name = name if isinstance(name, str) else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tls = state()
            stack = tls.stack
            span_id = next(ids)
            parent = stack[-1] if stack else tls.inherited
            if rebind is not None:
                args, kwargs = rebind(args, kwargs, span_id, tls.op)
            n = 0
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    n = count(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((
                    span_id,
                    fixed_name or name(args),
                    start, end, parent, tls.op, tls.thread, None, n,
                ))

        return traced

    def _traced_scan(self, original, name):
        """Wrap a method returning a row iterator (``HTable.scan``)."""
        spans = self.spans
        ids = self._ids
        state = self._state
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rows = original(*args, **kwargs)

            def segments():
                # one open segment: [id, parent, op, thread, start, end, busy, n]
                segment = None
                # the first segment carries the scan's name (so scans can be
                # counted); continuations under another parent get a "+"
                label = name

                def flush():
                    nonlocal label
                    if segment is not None:
                        spans.append((
                            segment[0], label, segment[4], segment[5],
                            segment[1], segment[2], segment[3],
                            segment[6], segment[7],
                        ))
                        label = name + "+"

                try:
                    while True:
                        tls = state()
                        stack = tls.stack
                        parent = stack[-1] if stack else tls.inherited
                        if (
                            segment is None
                            or segment[1] != parent
                            or segment[3] != tls.thread
                        ):
                            flush()
                            segment = [
                                next(ids), parent, tls.op, tls.thread,
                                None, None, 0.0, 0,
                            ]
                        stack.append(segment[0])
                        start = clock()
                        try:
                            row = next(rows)
                        except StopIteration:
                            return
                        finally:
                            end = clock()
                            stack.pop()
                            if segment[4] is None:
                                segment[4] = start
                            segment[5] = end
                            segment[6] += end - start
                        segment[7] += 1
                        yield row
                finally:
                    flush()
                    close = getattr(rows, "close", None)
                    if close is not None:
                        close()

            return segments()

        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attribute: str, build) -> None:
        """Replace ``owner.attribute`` with ``build(original)``."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        if isinstance(raw, classmethod):
            replacement = classmethod(build(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(build(raw.__func__))
        else:
            replacement = build(raw)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def _span(self, owner, attribute: str, name, count=None, rebind=None) -> None:
        self._patch(
            owner, attribute,
            lambda original: self._traced(original, name, count, rebind),
        )

    def install(self) -> "Tracer":
        """Wrap every traced entry point; idempotence is the caller's job
        (one tracer, one install, one uninstall)."""
        module = importlib.import_module

        # query.parser: imported by name into its two callers
        for importer in ("repro.query.engine", "repro.serving.server"):
            self._span(
                module(importer), "parse_rank_join", "query.parser.parse_rank_join"
            )

        # query.statistics
        statistics = module("repro.query.statistics")
        self._span(
            statistics.StatisticsCatalog, "stats_for", "query.statistics.stats_for"
        )
        self._span(statistics, "gather_statistics", "query.statistics.gather")

        # query.planner
        planner = module("repro.query.planner")
        self._span(
            planner.QueryPlanner, "plan",
            lambda args: (
                "query.planner.plan_nway"
                if args[1].arity > 2
                else "query.planner.plan"
            ),
        )

        # core + baselines: every registered algorithm's prepare/execute,
        # wrapped where each class defines it
        engine = module("repro.query.engine")
        base = module("repro.core.base").RankJoinAlgorithm
        classes = {base}
        classes.update(engine.ALGORITHM_FACTORIES.values())
        classes.update(engine.MULTIWAY_FACTORIES.values())
        for cls in sorted(classes, key=lambda c: c.__qualname__):
            for method in ("execute", "prepare"):
                if method in cls.__dict__:
                    self._span(
                        cls, method,
                        lambda args, method=method: (
                            ALGORITHM_LAYERS.get(args[0].name, "core.other")
                            + "." + method
                        ),
                        count=(
                            (lambda args, result: len(result.tuples))
                            if method == "execute"
                            else None
                        ),
                    )

        # sketches
        for importer in ("repro.core.bfhm.estimation", "repro.core.bfhm.updates"):
            self._span(module(importer), "decode_cached", "sketches.decode_cached")
        hybrid = module("repro.sketches.hybrid").HybridBloomFilter
        for method in ("from_blob", "to_blob", "intersect_positions", "join_cardinality"):
            self._span(hybrid, method, f"sketches.{method}")

        # store
        client = module("repro.store.client")
        htable = client.HTable
        self._span(htable, "get", "store.read.get", count=lambda args, result: 1)
        self._span(
            htable, "multi_get", "store.read.multi_get",
            count=lambda args, result: len(result),
        )
        self._patch(
            htable, "scan",
            lambda original: self._traced_scan(original, "store.read.scan"),
        )
        self._span(htable, "scan_all", "store.read.scan_all")
        self._span(
            htable, "put_batch", "store.write.put_batch",
            count=lambda args, result: sum(len(put.cells) for put in args[1]),
        )
        self._span(
            htable, "delete_batch", "store.write.delete_batch",
            count=lambda args, result: len(args[1]),
        )
        self._span(htable, "flush", "store.write.flush")
        region = module("repro.store.region").Region

        def traced_flush(original):
            persisted = self._traced(
                original, "store.write.region_flush",
                count=lambda args, result: 1,
            )

            @functools.wraps(original)
            def flush(region):
                # an empty memtable makes flush a no-op: no span, no count
                if region.memtable.empty:
                    return original(region)
                return persisted(region)

            return flush

        self._patch(region, "flush", traced_flush)

        # cluster.executor: looked up in its own module at every call
        executor = module("repro.cluster.executor")

        def hand_span_to_tasks(args, kwargs, span_id, op):
            ctx, tasks, *rest = args
            tasks = [
                replace(task, run=self._inherit(task.run, span_id, op))
                for task in tasks
            ]
            return (ctx, tasks, *rest), kwargs

        self._span(
            executor, "scatter_gather", "cluster.executor.scatter_gather",
            count=lambda args, result: len(args[1]),
            rebind=hand_span_to_tasks,
        )

        # mapreduce
        runtime = module("repro.mapreduce.runtime")
        self._span(
            runtime.JobRunner, "run", "mapreduce.run",
            count=lambda args, result: result.map_tasks,
        )

        # serving
        server = module("repro.serving.server").QueryServer
        self._span(server, "submit", "serving.submit")

        # maintenance
        worker = module("repro.maintenance.worker").MaintenancePipeline
        for method in ("submit_insert_batch", "submit_delete_batch"):
            self._span(
                worker, method, "maintenance.submit",
                count=lambda args, result: len(args[2]),
            )
        self._span(
            worker, "drain_batch", "maintenance.drain_batch",
            count=lambda args, result: result,
        )
        relation = module("repro.maintenance.interceptor").MaintainedRelation
        for method in ("insert_batch", "delete_batch", "apply_resolved_deletes"):
            self._span(
                relation, method, f"maintenance.relation.{method}",
                count=lambda args, result: len(args[1]),
            )
        return self

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- output ----------------------------------------------------------------

    def dump(self, path, meta: "dict | None" = None) -> None:
        """Write the spans as one JSON document (column-major header,
        row-major spans)."""
        with open(path, "w") as handle:
            json.dump(
                {"meta": meta or {}, "columns": SPAN_COLUMNS, "spans": self.spans},
                handle,
            )
            handle.write("\n")


def span_cost_s(samples: int = 20000) -> float:
    """Wall seconds one recorded span adds to a call, measured on a no-op
    (the traced run reports ``spans x this / wall`` as its overhead)."""

    def noop() -> None:
        return None

    traced = Tracer()._traced(noop, "calibration")
    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(samples):
        traced()
    return max(0.0, (clock() - start - bare) / samples)
