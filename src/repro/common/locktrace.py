"""Runtime lock-order tracking — the dynamic half of repro-lint's RL1xx.

The static checker proves *which lock* guards each attribute; it cannot
prove that two locks are always taken in the same order.  This module
instruments ``threading.Lock`` / ``RLock`` / ``Condition`` so concurrency
tests record the *acquisition-order graph*: a directed edge ``A -> B``
means some thread acquired ``B`` while holding ``A``.  A cycle in that
graph is a latent deadlock — two threads can interleave the two orders —
even if the test run itself never hung.

Locks are identified by **creation site** (``file:line`` of the
constructor call), not by instance: every ``PlanCache`` owns its own
``_lock`` object, but they all play the same role in the hierarchy, so
they share one node.  Self-edges (re-acquiring the same role, e.g. two
sibling instances, or an ``RLock`` re-entered) are ignored.  Only locks
created inside ``src/repro`` are traced; stdlib/third-party locks created
while the tracer is installed pass straight through.

Usage (what the stress/chaos conftest fixture does)::

    tracer = LockTracer()
    tracer.install()
    try:
        ...  # run the concurrent scenario
    finally:
        tracer.uninstall()
    cycle = tracer.find_cycle()
    assert cycle is None, tracer.explain(cycle)

``install``/``uninstall`` patch the ``threading`` factories, so only
locks *created* inside the window are traced.  The documented lock
hierarchy lives in ``docs/ARCHITECTURE.md``; this tracer is how the
stress and chaos suites enforce it.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any, Callable, Iterable

_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition

#: path fragment that marks a creation site as "ours" (worth tracing)
_TRACED_FRAGMENT = "repro"

#: the tracer currently patching the ``threading`` factories (at most one)
_INSTALLED: "LockTracer | None" = None
_AT_FORK_REGISTERED = False


def _uninstall_in_forked_child() -> None:
    """Drop inherited tracer state after ``fork()``.

    A forked child inherits the patched factories and the tracer object,
    but none of the parent's threads — a thread that died mid-update may
    have left ``_graph_lock`` held forever, and every recorded edge
    belongs to the parent's run.  Restore the real factories and reset
    the tracer to a fresh, unlocked state so the child can never block on
    (or report from) a tracer it does not own.
    """
    global _INSTALLED
    tracer = _INSTALLED
    if tracer is None:
        return
    threading.Lock = _REAL_LOCK  # type: ignore[misc]
    threading.RLock = _REAL_RLOCK  # type: ignore[misc]
    threading.Condition = _REAL_CONDITION  # type: ignore[misc]
    tracer._installed = False
    tracer._graph_lock = _REAL_LOCK()
    tracer._edges = {}
    tracer._held = threading.local()
    _INSTALLED = None


def _ensure_at_fork_hook() -> None:
    global _AT_FORK_REGISTERED
    if _AT_FORK_REGISTERED or not hasattr(os, "register_at_fork"):
        return  # pragma: no cover - platforms without fork
    os.register_at_fork(after_in_child=_uninstall_in_forked_child)
    _AT_FORK_REGISTERED = True


def _creation_site(skip: int = 2) -> "tuple[str, int]":
    """(filename, lineno) of the frame that called the lock factory."""
    frame = sys._getframe(skip)
    return (frame.f_code.co_filename, frame.f_lineno)


def _is_traced_site(site: "tuple[str, int]") -> bool:
    filename = site[0].replace("\\", "/")
    return f"/{_TRACED_FRAGMENT}/" in filename and "/src/" in filename


class TracedLock:
    """A lock/condition proxy that reports acquisitions to its tracer.

    Delegates everything to the wrapped primitive; only ``acquire`` /
    ``release`` / ``__enter__`` / ``__exit__`` are intercepted.  Blocking
    ``Condition.wait`` keeps the node on the held stack: the thread is
    asleep while the lock is out of its hands, so no spurious edges can
    be recorded, and the stack is correct again the moment ``wait``
    returns (lock re-acquired).
    """

    def __init__(self, inner: Any, tracer: "LockTracer", site: "tuple[str, int]") -> None:
        self._inner = inner
        self._tracer = tracer
        self._site = site

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self._tracer._on_acquire(self._site)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._tracer._on_release(self._site)

    def __enter__(self) -> "TracedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class LockTracer:
    """Collects the lock acquisition-order graph of a test run."""

    def __init__(self) -> None:
        # bookkeeping uses untraced primitives (the tracer must not trace
        # itself into its own graph)
        self._graph_lock = _REAL_LOCK()
        #: directed edges held-site -> acquired-site, with one witness
        #: (thread name) per edge for the failure message
        self._edges: "dict[tuple[tuple[str, int], tuple[str, int]], str]" = {}
        self._held = threading.local()
        self._installed = False

    # -- event hooks (called by TracedLock) -----------------------------------

    def _stack(self) -> "list[tuple[str, int]]":
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _on_acquire(self, site: "tuple[str, int]") -> None:
        stack = self._stack()
        with self._graph_lock:
            for held in stack:
                if held != site:
                    self._edges.setdefault(
                        (held, site), threading.current_thread().name
                    )
        stack.append(site)

    def _on_release(self, site: "tuple[str, int]") -> None:
        stack = self._stack()
        # locks are almost always released LIFO, but nothing requires it;
        # remove the innermost matching entry
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == site:
                del stack[index]
                return

    # -- installation ---------------------------------------------------------

    def _factory(self, real: "Callable[..., Any]") -> "Callable[..., Any]":
        def make(*args: Any, **kwargs: Any) -> Any:
            inner = real(*args, **kwargs)
            site = _creation_site()
            if not _is_traced_site(site):
                return inner
            return TracedLock(inner, self, site)

        return make

    def install(self) -> "LockTracer":
        """Patch the ``threading`` lock factories; returns self."""
        global _INSTALLED
        if self._installed:
            return self
        _ensure_at_fork_hook()
        threading.Lock = self._factory(_REAL_LOCK)  # type: ignore[misc]
        threading.RLock = self._factory(_REAL_RLOCK)  # type: ignore[misc]
        threading.Condition = self._factory(_REAL_CONDITION)  # type: ignore[misc,assignment]
        self._installed = True
        _INSTALLED = self
        return self

    def uninstall(self) -> None:
        """Restore the real ``threading`` lock factories."""
        global _INSTALLED
        if not self._installed:
            return
        threading.Lock = _REAL_LOCK  # type: ignore[misc]
        threading.RLock = _REAL_RLOCK  # type: ignore[misc]
        threading.Condition = _REAL_CONDITION  # type: ignore[misc]
        self._installed = False
        if _INSTALLED is self:
            _INSTALLED = None

    def __enter__(self) -> "LockTracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- graph queries --------------------------------------------------------

    def edges(  # lint: disable=RL501 (lock-order graph the tests read)
        self,
    ) -> "list[tuple[tuple[str, int], tuple[str, int]]]":
        """The recorded held-site -> acquired-site edges (sorted)."""
        with self._graph_lock:
            return sorted(self._edges)

    def find_cycle(  # lint: disable=RL501 (the tracer fixture's check)
        self,
    ) -> "list[tuple[str, int]] | None":
        """A list of sites forming an acquisition-order cycle, or None."""
        with self._graph_lock:
            adjacency: "dict[tuple[str, int], list[tuple[str, int]]]" = {}
            for source, target in self._edges:
                adjacency.setdefault(source, []).append(target)
                adjacency.setdefault(target, [])
        state: "dict[tuple[str, int], int]" = {}  # 1 = on path, 2 = done
        path: "list[tuple[str, int]]" = []

        def visit(node: "tuple[str, int]") -> "list[tuple[str, int]] | None":
            state[node] = 1
            path.append(node)
            for succ in adjacency[node]:
                mark = state.get(succ)
                if mark == 1:
                    return path[path.index(succ):] + [succ]
                if mark is None:
                    found = visit(succ)
                    if found is not None:
                        return found
            path.pop()
            state[node] = 2
            return None

        for node in sorted(adjacency):
            if node not in state:
                found = visit(node)
                if found is not None:
                    return found
        return None

    def explain(self, cycle: "Iterable[tuple[str, int]] | None") -> str:
        """Human-readable deadlock report for a :meth:`find_cycle` result."""
        if not cycle:
            return "lock acquisition-order graph is acyclic"
        with self._graph_lock:
            witnesses = dict(self._edges)
        steps = list(cycle)
        lines = ["lock acquisition-order cycle (latent deadlock):"]
        for source, target in zip(steps, steps[1:]):
            thread = witnesses.get((source, target), "?")
            lines.append(
                f"  {source[0]}:{source[1]} held while acquiring "
                f"{target[0]}:{target[1]} (thread {thread})"
            )
        return "\n".join(lines)
