"""Concurrent query serving: admission control, scheduling, shared caches.

The paper's deployment story (§1, §7) is a shared HBase/Hadoop cluster
answering many clients' rank-join queries at once.  :class:`QueryServer`
reproduces that shape over the simulated platform:

* **admission control** — a bounded in-flight counter sheds queries with
  :class:`~repro.errors.ServerOverloadedError` once ``max_pending`` is
  reached, and per-query deadlines/budgets reject work that waited too
  long or is priced above a cost ceiling *before* it touches the cluster;
* **shared planning state** — all worker threads price queries against one
  :class:`~repro.query.statistics.StatisticsCatalog` and reuse plans from
  one :class:`~repro.serving.plan_cache.PlanCache`, keyed by canonical
  query shape and invalidated by the statistics version counters that
  online maintenance already bumps;
* **deterministic metering** — each served query runs under a fresh
  per-thread :class:`~repro.serving.metrics.ThreadLocalMetricsRouter`
  scope, so its simulated cost is byte-identical to the same query
  executed alone (concurrency must not change the paper's Fig. 7/8
  numbers);
* **read/write scheduling** — algorithms whose execution only *reads* the
  store (ISL, BFHM with offline write-back, the index-free n-way HRJN
  pipeline) run concurrently on a pool of ``workers`` threads, while
  algorithms that mutate shared simulator state (MapReduce jobs writing
  HDFS blocks or temp tables: Hive, Pig, IJLMR, DRJN, the BFHM cascade)
  and any query that must first *build* an index are serialized FIFO on a
  dedicated writer thread behind a write-preferring read/write lock.  The
  FIFO order matters: MapReduce jobs consume the cluster's round-robin
  placement cursor, so exclusive queries must replay in submission order
  to stay bit-identical with a serialized run.

Python's GIL means the thread pool buys no simulated-CPU parallelism; the
throughput win comes from amortizing parsing and planning across queries
(the statement cache and plan cache) and from overlapping coordinator
bookkeeping — exactly the caching a real deployment would do.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as _wait_futures
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.base import RankJoinAlgorithm
from repro.core.bfhm.updates import WriteBackPolicy
from repro.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    PlanningError,
    ServerClosedError,
    ServerOverloadedError,
    StalenessBoundExceededError,
)
from repro.maintenance.consistency import MutationFailedError
from repro.platform import Platform
from repro.query.engine import AUTO, MULTIWAY_ALIASES, RankJoinEngine
from repro.query.parser import parse_rank_join
from repro.query.planner import OBJECTIVES, QueryPlan
from repro.query.spec import RankJoinQuery
from repro.query.statistics import StatisticsCatalog
from repro.serving.metrics import install_router
from repro.serving.plan_cache import PlanCache

#: two-way algorithms whose query phase runs MapReduce jobs (HDFS block
#: placement, temp tables) and therefore mutates shared simulator state
EXCLUSIVE_TWO_WAY = frozenset({"hive", "pig", "ijlmr", "drjn"})

#: arity >= 3 strategies that build temporary intermediate indexes
EXCLUSIVE_MULTIWAY = frozenset({"bfhm"})

DEFAULT_WORKERS = 4
DEFAULT_MAX_PENDING = 64
DEFAULT_STATEMENT_CACHE = 256

#: bounded-staleness serving policies (see :meth:`QueryServer.attach_maintenance`):
#: ``stale_ok`` serves whatever is applied; ``wait`` drains to the query's
#: submit-time watermark first (read-your-writes); ``bounded`` drains just
#: enough to bring every input table within ``max_lag``; ``shed`` rejects
#: queries whose inputs lag beyond ``max_lag`` (graceful degradation)
STALENESS_POLICIES = ("stale_ok", "wait", "bounded", "shed")


def _percentile(sorted_values: "list[float]", fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = int(fraction * len(sorted_values) + 0.999999)
    index = min(len(sorted_values) - 1, max(0, rank - 1))
    return sorted_values[index]


class _ReadWriteLock:
    """Write-preferring readers/writer lock.

    Queries that only read the store share the lock; maintenance and
    exclusive (MapReduce / index-building) queries take it exclusively.
    New readers queue behind a waiting writer so a steady query stream
    cannot starve maintenance.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # guarded-by: _cond
        self._writer_active = False  # guarded-by: _cond
        self._writers_waiting = 0  # guarded-by: _cond

    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then join readers."""
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        """Leave the reader group, waking writers when it empties."""
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock is free of readers and writers, then own it."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        """Release exclusive ownership and wake everyone waiting."""
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def read(self):
        """``with lock.read():`` — shared (query) critical section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """``with lock.write():`` — exclusive (maintenance) section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class ServedQuery:
    """Outcome of one query admitted by :class:`QueryServer`.

    Carries the executed result (or the error that stopped it) together
    with serving-side accounting: queue wait, total latency, whether the
    query ran on the exclusive writer thread, and the plan that routed it.
    """

    index: int
    sql: "str | None"
    query: RankJoinQuery
    algorithm: str
    exclusive: bool
    plan: "QueryPlan | None" = None
    result: object = None
    error: "Exception | None" = None
    waited_s: float = 0.0
    latency_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the query executed without an error."""
        return self.error is None

    @property
    def metrics(self):
        """The result's simulated-cost snapshot (None on failure)."""
        return getattr(self.result, "metrics", None)


@dataclass
class _Counters:
    """Internal mutable serving counters (guarded by the server's lock)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    deadline_rejects: int = 0
    budget_rejects: int = 0
    staleness_rejects: int = 0
    backpressure_shed: int = 0
    drains_triggered: int = 0
    maintenance_failures: int = 0
    reader_served: int = 0
    exclusive_served: int = 0
    statement_hits: int = 0
    statement_misses: int = 0
    latencies: "list[float]" = field(default_factory=list)


class QueryServer:
    """Concurrent rank-join query serving over one shared platform.

    Usage::

        server = QueryServer(platform, workers=4)
        served = server.execute("SELECT * FROM R, S WHERE R.a = S.a "
                                "ORDER BY R.s + S.s STOP AFTER 10")
        print(served.result.tuples, served.metrics.sim_time_s)
        server.close()

    Every worker thread owns a private :class:`RankJoinEngine` (algorithm
    instances are not thread-safe) but all engines share this server's
    :class:`StatisticsCatalog` and :class:`PlanCache`, so planning work is
    done once per query shape per statistics version.  BFHM engines are
    configured with :class:`WriteBackPolicy.OFFLINE` so their query phase
    never writes repaired blobs back — the serving invariant is that
    reader-pool queries are store-read-only.
    """

    def __init__(
        self,
        platform: Platform,
        workers: int = DEFAULT_WORKERS,
        max_pending: int = DEFAULT_MAX_PENDING,
        plan_cache_capacity: "int | None" = None,
        statement_cache_capacity: int = DEFAULT_STATEMENT_CACHE,
        default_deadline_s: "float | None" = None,
        family: str = "d",
        **engine_kwargs,
    ) -> None:
        self.platform = platform
        self.workers = max(1, int(workers))
        self.max_pending = max(1, int(max_pending))
        self.default_deadline_s = default_deadline_s
        self.family = family

        #: per-query metrics isolation: every served query runs in a fresh
        #: scoped collector so its cost snapshot matches solo execution
        self.router = install_router(platform.ctx)
        #: shared across all worker engines; versions drive cache validity
        self.statistics = StatisticsCatalog(platform)
        if plan_cache_capacity is None:
            self.plan_cache = PlanCache(self.statistics)
        else:
            self.plan_cache = PlanCache(
                self.statistics, capacity=plan_cache_capacity
            )

        merged = {name: dict(value) for name, value in engine_kwargs.items()}
        merged.setdefault("bfhm", {}).setdefault(
            "write_back", WriteBackPolicy.OFFLINE
        )
        self._engine_kwargs = merged

        self._tls = threading.local()
        self._rwlock = _ReadWriteLock()
        self._reader_pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-read"
        )
        # MapReduce queries consume the cluster's round-robin placement
        # cursor; one FIFO thread keeps their order identical to a
        # serialized run (bit-identical simulated costs)
        self._exclusive_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-excl"
        )

        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._pending = 0  # guarded-by: _lock
        self._counters = _Counters()  # guarded-by: _lock

        self._statement_capacity = max(0, int(statement_cache_capacity))
        self._statements: "OrderedDict[tuple[str, str], RankJoinQuery]" = (
            OrderedDict()
        )  # guarded-by: _lock

        # async-maintenance hookup (attach_maintenance)
        self._pipeline = None
        self._staleness_policy = "stale_ok"
        self._max_lag = 0
        self._max_backlog: "int | None" = None

    # -- async maintenance -----------------------------------------------------

    def attach_maintenance(  # lint: disable=RL501 (serving-with-maintenance entry point)
        self,
        pipeline,
        policy: str = "stale_ok",
        max_lag: int = 0,
        max_backlog: "int | None" = None,
    ) -> None:
        """Wire an async :class:`~repro.maintenance.worker.
        MaintenancePipeline` into admission control and planning.

        ``policy`` picks the bounded-staleness contract
        (:data:`STALENESS_POLICIES`); ``max_lag`` is the per-table pending
        bound the ``bounded``/``shed`` policies enforce; ``max_backlog``
        sheds *new queries* (backpressure) once the pipeline's total
        backlog passes it, pushing load away from a cluster that cannot
        keep its indexes fresh.  The shared statistics catalog also learns
        the pipeline's watermarks, so EXPLAIN reports index staleness and
        cached plans revalidate when drains move the watermark.
        """
        if policy not in STALENESS_POLICIES:
            raise ValueError(
                f"unknown staleness policy {policy!r}; choose from "
                f"{STALENESS_POLICIES}"
            )
        self._pipeline = pipeline
        self._staleness_policy = policy
        self._max_lag = max(0, int(max_lag))
        self._max_backlog = max_backlog
        self.statistics.set_staleness_provider(
            None if pipeline is None else pipeline.staleness
        )

    def _check_staleness_admission(self, query: RankJoinQuery) -> int:
        """Backpressure + shed-policy checks at submit time; returns the
        read-your-writes drain target (0 when no draining is needed)."""
        pipeline = self._pipeline
        if pipeline is None:
            return 0
        if self._max_backlog is not None and pipeline.lag() > self._max_backlog:
            with self._lock:
                self._counters.backpressure_shed += 1
            raise ServerOverloadedError(pipeline.lag(), self._max_backlog)
        policy = self._staleness_policy
        if policy == "shed":
            for binding in query.inputs:
                lag = pipeline.lag(binding.table)
                if lag > self._max_lag:
                    with self._lock:
                        self._counters.staleness_rejects += 1
                    raise StalenessBoundExceededError(
                        binding.table, lag, self._max_lag
                    )
            return 0
        if policy == "wait":
            return pipeline.log.last_sequence
        return 0

    def _drain_for_query(self, query: RankJoinQuery, drain_target: int) -> None:
        """Drain the pipeline far enough for this query's policy, under
        the exclusive (maintenance) lock."""
        pipeline = self._pipeline
        if pipeline is None:
            return
        policy = self._staleness_policy
        if policy == "wait":
            if pipeline.applied_sequence >= drain_target:
                return
            with self._lock:
                self._counters.drains_triggered += 1
            with self.maintenance(*pipeline.tables):
                pipeline.drain_until(drain_target)
        elif policy == "bounded":
            tables = [binding.table for binding in query.inputs]
            if all(pipeline.lag(table) <= self._max_lag for table in tables):
                return
            with self._lock:
                self._counters.drains_triggered += 1
            with self.maintenance(*pipeline.tables):
                while any(
                    pipeline.lag(table) > self._max_lag for table in tables
                ):
                    if pipeline.drain_batch() == 0:
                        break

    # -- engines -------------------------------------------------------------

    def engine(self) -> RankJoinEngine:
        """The calling thread's engine (lazily built, shares the caches)."""
        engine = getattr(self._tls, "engine", None)
        if engine is None:
            engine = RankJoinEngine(
                self.platform,
                statistics_catalog=self.statistics,
                plan_cache=self.plan_cache,
                **self._engine_kwargs,
            )
            self._tls.engine = engine
        return engine

    # -- parsing -------------------------------------------------------------

    def _parse(self, text: str) -> RankJoinQuery:
        """Parse SQL text through the LRU statement cache."""
        if self._statement_capacity <= 0:
            with self._lock:
                self._counters.statement_misses += 1
            return parse_rank_join(text, family=self.family)
        key = (text, self.family)
        with self._lock:
            query = self._statements.get(key)
            if query is not None:
                self._statements.move_to_end(key)
                self._counters.statement_hits += 1
                return query
            self._counters.statement_misses += 1
        query = parse_rank_join(text, family=self.family)
        with self._lock:
            self._statements[key] = query
            self._statements.move_to_end(key)
            while len(self._statements) > self._statement_capacity:
                self._statements.popitem(last=False)
        return query

    def _resolve(self, text_or_query) -> "tuple[str | None, RankJoinQuery]":
        if isinstance(text_or_query, str):
            return text_or_query, self._parse(text_or_query)
        return None, text_or_query

    # -- routing -------------------------------------------------------------

    @staticmethod
    def _estimate_for(plan: QueryPlan, name: str, multiway: bool):
        """The plan's estimate for ``name``, accepting registry keys for
        multi-way display names (``bfhm`` matches ``BFHM-cascade``)."""
        try:
            return plan.estimate(name)
        except PlanningError:
            if multiway:
                for display, key in MULTIWAY_ALIASES.items():
                    if key == name.lower():
                        try:
                            return plan.estimate(display)
                        except PlanningError:
                            continue
            raise

    def _choose(
        self,
        engine: RankJoinEngine,
        query: RankJoinQuery,
        algorithm: str,
        objective: str,
        budget: "float | None",
    ) -> "tuple[str, QueryPlan | None]":
        """Resolve ``auto`` through the (cached) planner; enforce budgets."""
        name = algorithm.lower()
        plan = None
        if name == AUTO:
            try:
                plan = engine.planner.plan(query, objective=objective)
                name = plan.chosen
            except PlanningError:
                plan = None
                name = (
                    engine.MULTIWAY_FALLBACK_ALGORITHM
                    if query.arity > 2
                    else engine.FALLBACK_ALGORITHM
                )
        if budget is not None:
            if plan is None:
                plan = engine.planner.plan(query, objective=objective)
            estimate = self._estimate_for(plan, name, query.arity > 2)
            attribute = (
                "dollars" if objective == "dollars" else OBJECTIVES[objective]
            )
            predicted = float(getattr(estimate, attribute))
            if predicted > float(budget):
                with self._lock:
                    self._counters.budget_rejects += 1
                raise BudgetExceededError(predicted, float(budget), objective)
        return name, plan

    @staticmethod
    def _needs_index_build(
        instance: RankJoinAlgorithm, query: RankJoinQuery
    ) -> bool:
        """True when executing would first build an index (a write)."""
        if type(instance)._build_index is RankJoinAlgorithm._build_index:
            return False  # index-free strategy (e.g. the n-way HRJN pipeline)
        try:
            return any(not instance._index_exists(binding) for binding in query.inputs)
        except Exception:
            return True  # cannot prove the indexes exist: serialize it

    def _is_exclusive(
        self, engine: RankJoinEngine, query: RankJoinQuery, name: str
    ) -> bool:
        """Route MapReduce-running or index-building queries to the writer."""
        key = name.lower()
        if query.arity > 2:
            key = MULTIWAY_ALIASES.get(key, key)
            if key in EXCLUSIVE_MULTIWAY:
                return True
            instance = engine.multiway_algorithm(key)
        else:
            if key in EXCLUSIVE_TWO_WAY:
                return True
            instance = engine.algorithm(key)
        return self._needs_index_build(instance, query)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        text_or_query,
        algorithm: str = AUTO,
        objective: str = "time",
        budget: "float | None" = None,
        deadline_s: "float | None" = None,
    ) -> "Future[ServedQuery]":
        """Admit a query (SQL text or bound spec); returns a future.

        Raises :class:`ServerClosedError` after :meth:`close`,
        :class:`ServerOverloadedError` when ``max_pending`` queries are
        already in flight, and :class:`BudgetExceededError` when a budget
        is given and the plan prices the query above it.  Deadline misses
        surface on the returned :class:`ServedQuery` instead (the queue
        wait that causes them happens after admission).
        """
        with self._lock:
            if self._closed:
                raise ServerClosedError("query submitted to a closed server")
            if self._pending >= self.max_pending:
                self._counters.shed += 1
                raise ServerOverloadedError(self._pending, self.max_pending)
            self._pending += 1
            self._counters.submitted += 1
            index = self._counters.submitted
        try:
            sql, query = self._resolve(text_or_query)
            drain_target = self._check_staleness_admission(query)
            engine = self.engine()
            name, plan = self._choose(
                engine, query, algorithm, objective, budget
            )
            exclusive = self._is_exclusive(engine, query, name)
            if deadline_s is None:
                deadline_s = self.default_deadline_s
            pool = self._exclusive_pool if exclusive else self._reader_pool
            future = pool.submit(
                self._serve,
                index,
                sql,
                query,
                name,
                plan,
                exclusive,
                deadline_s,
                time.monotonic(),
                drain_target,
            )
        except BaseException:
            with self._lock:
                self._pending -= 1
            raise
        return future

    def _check_deadline(
        self, waited: float, deadline_s: "float | None"
    ) -> None:
        """Raise :class:`DeadlineExceededError` once queueing ate the
        query's deadline (checked before any cluster work is metered)."""
        if deadline_s is not None and waited > deadline_s:
            with self._lock:
                self._counters.deadline_rejects += 1
            raise DeadlineExceededError(waited, deadline_s)

    def _serve(
        self,
        index: int,
        sql: "str | None",
        query: RankJoinQuery,
        name: str,
        plan: "QueryPlan | None",
        exclusive: bool,
        deadline_s: "float | None",
        submitted_at: float,
        drain_target: int = 0,
    ) -> ServedQuery:
        waited = time.monotonic() - submitted_at
        served = ServedQuery(
            index=index,
            sql=sql,
            query=query,
            algorithm=name,
            exclusive=exclusive,
            plan=plan,
            waited_s=waited,
        )
        try:
            self._check_deadline(waited, deadline_s)
            # bounded-staleness drains happen before the query's own lock
            # acquisition: the wait/bounded policies catch the indexes up
            # (exclusively) and the drain time counts as queue wait below
            self._drain_for_query(query, drain_target)
            guard = self._rwlock.write if exclusive else self._rwlock.read
            with guard():
                # the read/write lock wait is queue time too: a query that
                # sat out a long maintenance window can still miss its
                # deadline even though a pool thread picked it up at once
                waited = time.monotonic() - submitted_at
                served.waited_s = waited
                self._check_deadline(waited, deadline_s)
                engine = self.engine()
                with self.router.scoped():
                    started = time.perf_counter()
                    served.result = engine.execute(query, algorithm=name)
                    elapsed = time.perf_counter() - started
            served.latency_s = waited + elapsed
            with self._lock:
                self._counters.latencies.append(served.latency_s)
                if exclusive:
                    self._counters.exclusive_served += 1
                else:
                    self._counters.reader_served += 1
        except Exception as error:
            served.error = error
            with self._lock:
                self._counters.failed += 1
        finally:
            with self._lock:
                self._pending -= 1
                self._counters.completed += 1
        return served

    # -- synchronous conveniences -------------------------------------------

    def execute(
        self,
        text_or_query,
        algorithm: str = AUTO,
        objective: str = "time",
        budget: "float | None" = None,
        deadline_s: "float | None" = None,
    ) -> ServedQuery:
        """Submit one query and wait; re-raises its execution error."""
        served = self.submit(
            text_or_query,
            algorithm,
            objective=objective,
            budget=budget,
            deadline_s=deadline_s,
        ).result()
        if served.error is not None:
            raise served.error
        return served

    def execute_many(
        self,
        texts_or_queries,
        algorithm: str = AUTO,
        objective: str = "time",
        deadline_s: "float | None" = None,
    ) -> "list[ServedQuery]":
        """Serve a workload, preserving order; overload applies backpressure
        (submission waits for capacity instead of shedding)."""
        futures: "list[Future[ServedQuery]]" = []
        for item in texts_or_queries:
            while True:
                try:
                    futures.append(
                        self.submit(
                            item,
                            algorithm,
                            objective=objective,
                            deadline_s=deadline_s,
                        )
                    )
                    break
                except ServerOverloadedError:
                    outstanding = [f for f in futures if not f.done()]
                    if not outstanding:
                        raise
                    _wait_futures(outstanding, return_when=FIRST_COMPLETED)
        return [future.result() for future in futures]

    def explain(self, text_or_query, objective: str = "time") -> QueryPlan:
        """Plan a query (through the shared plan cache) without running it."""
        _, query = self._resolve(text_or_query)
        with self._rwlock.read():
            return self.engine().planner.plan(query, objective=objective)

    def prepare(self, text_or_query, algorithms: "list[str] | None" = None):
        """Pre-build indexes for a query shape (exclusive); returns the
        build reports.  Warming indexes before serving keeps the reader
        pool free of index-build serialization."""
        _, query = self._resolve(text_or_query)
        engine = self.engine()
        with self._rwlock.write():
            return engine.prepare(query, algorithms=algorithms)

    # -- maintenance ---------------------------------------------------------

    @contextmanager
    def maintenance(self, *tables: str):
        """Exclusive access for online maintenance::

            with server.maintenance("R") as platform:
                relation.insert_batch(rows)

        Queries drain first (write-preferring lock), none run during the
        block, and the named tables' statistics versions are bumped on
        exit — invalidating every cached plan that priced them.

        A :class:`~repro.maintenance.consistency.MutationFailedError`
        escaping the block is counted (``stats()["maintenance_failures"]``)
        before re-raising, so operators see stuck maintenance instead of
        silent index lag.
        """
        self._rwlock.acquire_write()
        try:
            yield self.platform
        except MutationFailedError:
            with self._lock:
                self._counters.maintenance_failures += 1
            raise
        finally:
            try:
                for table in tables:
                    self.statistics.invalidate(table)
            finally:
                self._rwlock.release_write()

    # -- introspection -------------------------------------------------------

    def latency_percentiles(
        self, points: "tuple[float, ...]" = (0.5, 0.9, 0.99)
    ) -> "dict[str, float]":
        """Nearest-rank latency percentiles (seconds) of served queries."""
        with self._lock:
            values = sorted(self._counters.latencies)
        return {
            f"p{round(point * 100):d}": _percentile(values, point)
            for point in points
        }

    def stats(self) -> "dict[str, object]":
        """Serving counters plus plan/statement-cache accounting."""
        with self._lock:
            counters = self._counters
            snapshot = {
                "submitted": counters.submitted,
                "completed": counters.completed,
                "failed": counters.failed,
                "shed": counters.shed,
                "deadline_rejects": counters.deadline_rejects,
                "budget_rejects": counters.budget_rejects,
                "staleness_rejects": counters.staleness_rejects,
                "backpressure_shed": counters.backpressure_shed,
                "drains_triggered": counters.drains_triggered,
                "maintenance_failures": counters.maintenance_failures,
                "reader_served": counters.reader_served,
                "exclusive_served": counters.exclusive_served,
                "pending": self._pending,
                "statement_hits": counters.statement_hits,
                "statement_misses": counters.statement_misses,
            }
        snapshot["plan_cache"] = self.plan_cache.stats()
        snapshot["latency"] = self.latency_percentiles()
        if self._pipeline is not None:
            # dead-letter / mutation-failure visibility: a stuck pipeline
            # shows up here rather than as silently stale indexes
            snapshot["maintenance"] = self._pipeline.stats()
        return snapshot

    # -- lifecycle -----------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop admitting queries and shut the pools down.

        ``drain=True`` (default) waits for in-flight queries to finish;
        already-submitted futures complete either way.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._reader_pool.shutdown(wait=drain)
        self._exclusive_pool.shutdown(wait=drain)

    def __enter__(self) -> "QueryServer":
        """Context-manager entry (the server is usable immediately)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: drain and close."""
        self.close()
