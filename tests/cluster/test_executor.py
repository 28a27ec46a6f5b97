"""scatter_gather: queue-model pricing, determinism, fallbacks, failures.

The contract pinned here (see the module docstring of
``repro.cluster.executor``): tasks run inline on the caller's thread and
results gather in task order; counters are absorbed unchanged; round time
= max over per-server queues plus dispatch overhead; the resulting metrics
are a pure function of store state and task list; and a task that raises
leaves the thread and its collector exactly as a round that never started.
"""

import threading

import pytest

from repro.cluster.costmodel import EC2_PROFILE
from repro.cluster.executor import ScatterTask, in_scatter, scatter_gather
from repro.cluster.metrics import MetricsCollector
from repro.platform import Platform
from repro.store.client import Get, Put


def _loaded(num_servers):
    platform = Platform(EC2_PROFILE, num_servers=num_servers)
    htable = platform.store.create_table(
        "t", {"d"}, split_keys=[f"r{i}" for i in range(1, 8)]
    )
    for i in range(32):
        put = Put(f"r{i % 8}x{i:02d}")
        put.add("d", "q", b"v" * 16)
        htable.put(put)
    htable.flush()
    return platform, htable


class TestFallbacks:
    def test_empty_round(self):
        platform, _ = _loaded(num_servers=4)
        assert scatter_gather(platform.ctx, []) == []

    def test_single_server_runs_inline(self):
        platform, _ = _loaded(num_servers=1)
        seen = []
        tasks = [ScatterTask(0, lambda i=i: seen.append(i) or i) for i in range(3)]
        assert scatter_gather(platform.ctx, tasks) == [0, 1, 2]
        assert seen == [0, 1, 2]  # serial, in task order, caller's thread
        assert "fanout_rounds" not in platform.metrics.counters

    def test_same_server_tasks_run_inline(self):
        platform, _ = _loaded(num_servers=4)
        tasks = [ScatterTask(2, lambda i=i: i) for i in range(3)]
        assert scatter_gather(platform.ctx, tasks) == [0, 1, 2]
        assert "fanout_rounds" not in platform.metrics.counters

    def test_nested_scatter_runs_inline(self):
        platform, _ = _loaded(num_servers=4)
        ctx = platform.ctx

        caller = threading.get_ident()

        def inner(value):
            assert in_scatter()
            assert threading.get_ident() == caller
            return value * 10

        def outer(server_id):
            nested = [ScatterTask(s, lambda s=s: inner(s)) for s in range(4)]
            return scatter_gather(ctx, nested)

        tasks = [ScatterTask(s, lambda s=s: outer(s)) for s in range(4)]
        results = scatter_gather(ctx, tasks)
        assert results == [[0, 10, 20, 30]] * 4
        # only the outer round is priced; inner rounds ran flat
        assert platform.metrics.counters["fanout_rounds"] == 1
        assert not in_scatter()


class TestQueueModel:
    def test_round_costs_max_queue_plus_dispatch(self):
        platform, _ = _loaded(num_servers=4)
        ctx, model = platform.ctx, platform.cost_model
        times = {0: 0.3, 1: 0.1, 2: 0.2}
        tasks = [
            ScatterTask(server, lambda t=t: ctx.metrics.advance_time(t))
            for server, t in times.items()
        ]
        before = platform.metrics.snapshot().sim_time_s
        scatter_gather(ctx, tasks)
        delta = platform.metrics.snapshot().sim_time_s - before
        expected = max(times.values()) + model.fanout_dispatch_s * 2
        assert delta == pytest.approx(expected)

    def test_same_server_tasks_queue_behind_each_other(self):
        platform, _ = _loaded(num_servers=4)
        ctx, model = platform.ctx, platform.cost_model
        tasks = [
            ScatterTask(0, lambda: ctx.metrics.advance_time(0.2)),
            ScatterTask(0, lambda: ctx.metrics.advance_time(0.2)),
            ScatterTask(1, lambda: ctx.metrics.advance_time(0.3)),
        ]
        before = platform.metrics.snapshot().sim_time_s
        scatter_gather(ctx, tasks)
        delta = platform.metrics.snapshot().sim_time_s - before
        # server 0's queue is 0.4 (two tasks back to back) > server 1's 0.3
        assert delta == pytest.approx(0.4 + model.fanout_dispatch_s)

    def test_counters_absorbed_and_round_bumped(self):
        platform, _ = _loaded(num_servers=4)
        ctx = platform.ctx

        def charge(server_id):
            ctx.metrics.add_network(100)
            ctx.metrics.add_kv_reads(5)
            return server_id

        before = platform.metrics.snapshot()
        tasks = [ScatterTask(s, lambda s=s: charge(s)) for s in range(4)]
        assert scatter_gather(ctx, tasks, label="unit") == [0, 1, 2, 3]
        delta = platform.metrics.snapshot() - before
        assert delta.network_bytes == 400
        assert delta.kv_reads == 20
        assert delta.counters["fanout_rounds"] == 1
        assert delta.counters["fanout_tasks"] == 4
        assert delta.counters["fanout_rounds_unit"] == 1
        assert delta.counters["fanout_overlap_saved_s"] >= 0


class TestCollector:
    def test_priced_round_keeps_the_plain_collector(self):
        platform, htable = _loaded(num_servers=4)
        collector = platform.ctx.metrics
        gets = [Get(f"r{i % 8}x{i:02d}", families={"d"}) for i in range(32)]
        htable.multi_get(gets)
        assert platform.metrics.counters["fanout_rounds"] == 1
        assert platform.ctx.metrics is collector
        assert type(platform.ctx.metrics) is MetricsCollector


class TestDeterminism:
    def test_repeated_rounds_identical(self):
        platform, htable = _loaded(num_servers=4)
        gets = [Get(f"r{i % 8}x{i:02d}", families={"d"}) for i in range(32)]
        deltas = []
        for _ in range(3):
            before = platform.metrics.snapshot()
            htable.multi_get(gets)
            deltas.append(platform.metrics.snapshot() - before)
        for delta in deltas[1:]:
            # time via approx: deltas subtract growing float totals, so
            # the last ulp wobbles even though every charge is identical
            assert delta.sim_time_s == pytest.approx(deltas[0].sim_time_s)
            assert delta.network_bytes == deltas[0].network_bytes
            assert delta.kv_reads == deltas[0].kv_reads
            assert delta.counters == pytest.approx(deltas[0].counters)


class TestFailurePath:
    def test_raising_task_leaves_no_trace(self):
        platform, _ = _loaded(num_servers=4)
        ctx = platform.ctx
        mine = ctx.metrics
        mine.reset()

        def charge(seconds):
            ctx.metrics.advance_time(seconds)
            ctx.metrics.add_kv_reads(3)

        def boom():
            charge(0.5)
            raise RuntimeError("server 1 fell over")

        before = mine.snapshot()
        failing = [
            ScatterTask(0, lambda: charge(0.2)),
            ScatterTask(1, boom),
            ScatterTask(2, lambda: charge(0.1)),
        ]
        with pytest.raises(RuntimeError, match="server 1 fell over"):
            scatter_gather(ctx, failing)
        assert not in_scatter()
        assert ctx.metrics is mine
        # nothing absorbed, no round charged, no counter bumped
        assert mine.snapshot() == before

        # the next round prices like one on a freshly reset collector
        tasks = [
            ScatterTask(0, lambda: charge(0.2)),
            ScatterTask(2, lambda: charge(0.1)),
        ]
        scatter_gather(ctx, tasks)
        after_failure = mine.snapshot() - before

        mine.reset()
        scatter_gather(ctx, tasks)
        assert mine.snapshot() == after_failure
        assert mine.kv_reads == 6
        assert mine.counters["fanout_rounds"] == 1
