"""Tests for the runtime lock-order tracker (``repro.common.locktrace``).

The unit tests drive :class:`TracedLock` directly with fabricated
creation sites (the ``install()`` site filter only traces locks created
under ``src/repro``), so edge recording and cycle detection are exercised
deterministically.  The integration test installs the tracer for real and
runs a small concurrent serving workload, asserting the acquisition-order
graph stays acyclic — the same check the autouse conftest fixture applies
to every stress/chaos test.
"""

from __future__ import annotations

import threading

from repro.common.locktrace import LockTracer, TracedLock

SITE_A = ("src/repro/fake/a.py", 10)
SITE_B = ("src/repro/fake/b.py", 20)
SITE_C = ("src/repro/fake/c.py", 30)


def _traced(tracer: LockTracer, site: "tuple[str, int]") -> TracedLock:
    return TracedLock(threading.Lock(), tracer, site)


class TestEdgeRecording:
    def test_nested_acquisition_records_edge(self):
        tracer = LockTracer()
        outer, inner = _traced(tracer, SITE_A), _traced(tracer, SITE_B)
        with outer:
            with inner:
                pass
        assert tracer.edges() == [(SITE_A, SITE_B)]
        assert tracer.find_cycle() is None

    def test_sequential_acquisition_records_nothing(self):
        tracer = LockTracer()
        first, second = _traced(tracer, SITE_A), _traced(tracer, SITE_B)
        with first:
            pass
        with second:
            pass
        assert tracer.edges() == []

    def test_same_site_reentry_is_not_an_edge(self):
        tracer = LockTracer()
        sibling_one = _traced(tracer, SITE_A)
        sibling_two = _traced(tracer, SITE_A)
        with sibling_one:
            with sibling_two:
                pass
        assert tracer.edges() == []

    def test_non_lifo_release_keeps_stack_consistent(self):
        tracer = LockTracer()
        first, second = _traced(tracer, SITE_A), _traced(tracer, SITE_B)
        third = _traced(tracer, SITE_C)
        first.acquire()
        second.acquire()
        first.release()  # release the outer lock first
        third.acquire()
        third.release()
        second.release()
        # B was held (A was not) when C was acquired
        assert tracer.edges() == [(SITE_A, SITE_B), (SITE_B, SITE_C)]


class TestCycleDetection:
    def test_opposite_orders_from_two_threads_form_a_cycle(self):
        tracer = LockTracer()
        lock_a, lock_b = _traced(tracer, SITE_A), _traced(tracer, SITE_B)
        with lock_a:
            with lock_b:
                pass

        def reversed_order() -> None:
            with lock_b:
                with lock_a:
                    pass

        worker = threading.Thread(target=reversed_order)
        worker.start()
        worker.join()

        cycle = tracer.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {SITE_A, SITE_B}
        report = tracer.explain(cycle)
        assert "cycle" in report and "a.py:10" in report and "b.py:20" in report

    def test_three_lock_ring_is_detected(self):
        tracer = LockTracer()
        locks = {
            site: _traced(tracer, site) for site in (SITE_A, SITE_B, SITE_C)
        }
        ring = [(SITE_A, SITE_B), (SITE_B, SITE_C), (SITE_C, SITE_A)]

        def take(order: "tuple[tuple[str, int], tuple[str, int]]") -> None:
            with locks[order[0]]:
                with locks[order[1]]:
                    pass

        for order in ring:
            worker = threading.Thread(target=take, args=(order,))
            worker.start()
            worker.join()

        cycle = tracer.find_cycle()
        assert cycle is not None
        assert set(cycle) == {SITE_A, SITE_B, SITE_C}

    def test_acyclic_graph_reports_clean(self):
        tracer = LockTracer()
        assert tracer.find_cycle() is None
        assert "acyclic" in tracer.explain(None)


class TestInstallation:
    def test_install_wraps_only_repro_created_locks(self):
        from repro.serving.plan_cache import PlanCache

        class _Catalog:
            def table_version(self, name: str) -> int:
                return 0

        tracer = LockTracer()
        with tracer:
            cache = PlanCache(_Catalog(), capacity=4)
            local = threading.Lock()  # created in tests/ -> passthrough
        assert isinstance(cache._lock, TracedLock)
        assert not isinstance(local, TracedLock)
        # the factories are restored after uninstall
        assert threading.Lock is type(local) or threading.Lock().__class__ is type(local)

    def test_traced_plan_cache_still_works_and_stays_acyclic(self):
        from repro.serving.plan_cache import PlanCache

        class _Catalog:
            def table_version(self, name: str) -> int:
                return 0

        tracer = LockTracer()
        with tracer:
            cache = PlanCache(_Catalog(), capacity=8)
        workers = []

        def churn(worker: int) -> None:
            for index in range(200):
                key = (worker * 7 + index) % 12
                if cache.lookup(key) is None:
                    cache.store(key, f"plan-{key}", ())
                cache.stats()

        for worker in range(4):
            thread = threading.Thread(target=churn, args=(worker,))
            workers.append(thread)
            thread.start()
        for thread in workers:
            thread.join()
        assert cache.hits + cache.misses == 4 * 200
        assert tracer.find_cycle() is None, tracer.explain(tracer.find_cycle())


class TestServingIntegration:
    def test_concurrent_server_run_has_acyclic_lock_graph(self):
        """A miniature of the stress suite's serving scenario, run under
        the tracer in tier-1: queries + maintenance + cache churn across
        the server's locks must keep the acquisition-order graph acyclic."""
        from repro.cluster.costmodel import EC2_PROFILE
        from repro.platform import Platform
        from repro.query.engine import RankJoinEngine
        from repro.serving import QueryServer
        from repro.tpch.generator import generate
        from repro.tpch.loader import load_tpch
        from repro.tpch.queries import Q1_SQL, Q2_SQL, q1, q2

        tracer = LockTracer()
        with tracer:
            platform = Platform(EC2_PROFILE)
            load_tpch(platform.store, generate(micro_scale=0.05, seed=7))
            engine = RankJoinEngine(platform)
            engine.algorithm("isl").prepare(q1(1))
            engine.algorithm("isl").prepare(q2(1))
            server = QueryServer(platform, max_pending=64)
            try:
                futures = [
                    server.submit(
                        (Q1_SQL if index % 2 == 0 else Q2_SQL).format(k=5),
                        "isl",
                    )
                    for index in range(12)
                ]
                for future in futures:
                    served = future.result(timeout=60)
                    assert served.error is None, served.error
                    assert served.result.tuples
            finally:
                server.close()
        assert tracer.find_cycle() is None, tracer.explain(tracer.find_cycle())
