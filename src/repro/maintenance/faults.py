"""Fault injection for the asynchronous maintenance pipeline.

Chaos testing the §6 eventual-consistency story needs three failure
families, each modelled by a pluggable injector:

* :class:`StoreFaultInjector` — transient store RPC failures.  Plugs into
  :func:`~repro.maintenance.consistency.with_retries` as a
  ``failure_injector`` and fails a configured number of attempts per
  mutation (or every attempt, to poison an entry into the dead-letter
  queue).
* :class:`CrashInjector` — hard worker crashes.  The drain loop announces
  every :class:`DrainPoint` it passes through; the injector raises
  :class:`~repro.errors.WorkerCrashError` at the n-th occurrence of its
  target point, wiping the worker's in-memory state mid-drain.  Recovery
  must then replay the WAL from the last checkpoint.
* :class:`SlowDrainInjector` — a lagging worker.  Caps how many entries a
  drain call may apply, so the backlog (and the staleness the planner
  reports) grows under sustained ingest.

A :class:`FaultPlan` composes any number of injectors and is handed to
:class:`~repro.maintenance.worker.MaintenancePipeline`.  All injectors are
deterministic — a chaos test that fails replays identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkerCrashError


class DrainPoint:
    """Named positions inside one drain batch where a crash can land.

    The worker passes through them in order: ``BATCH_START`` (batch
    dequeued, nothing applied), ``AFTER_RESOLVE`` (delete targets resolved
    and persisted to the WAL record), ``AFTER_APPLY`` (base + index
    mutations applied, checkpoint not yet advanced), and
    ``AFTER_CHECKPOINT`` (checkpoint durable, truncation pending).
    """

    BATCH_START = "batch_start"
    AFTER_RESOLVE = "after_resolve"
    AFTER_APPLY = "after_apply"
    AFTER_CHECKPOINT = "after_checkpoint"

    #: every point, in drain order (chaos suites sweep this list)
    ALL = (BATCH_START, AFTER_RESOLVE, AFTER_APPLY, AFTER_CHECKPOINT)


class Injector:
    """Base injector: no-op hooks the concrete fault families override."""

    def on_drain_point(self, point: str, batch_index: int) -> None:
        """Called at every drain point; may raise to crash the worker."""

    def store_failure(self, attempt: int) -> bool:
        """Return True to fail store-mutation ``attempt`` (0-based)."""
        return False

    def drain_allowance(self, requested: int) -> int:
        """Entries the drain call may apply (default: all requested)."""
        return requested

    def reset(self) -> None:
        """Forget occurrence counters (a recovered worker starts clean)."""


@dataclass
class StoreFaultInjector(Injector):  # lint: disable=RL501 (test double the chaos suite installs)
    """Fail the first ``failures_per_mutation`` attempts of every store
    mutation — and *every* attempt of the first ``poison_mutations``
    mutations, which therefore exhaust their retries and dead-letter.

    ``with_retries`` calls :meth:`store_failure` once per attempt; attempt
    numbers restart at 0 for each mutation, which is how the injector
    tells mutations apart without any shared clock.  A "mutation" here is
    one retried store call (the interceptor issues one per table touched
    by a batch).
    """

    failures_per_mutation: int = 0
    poison_mutations: int = 0
    #: total injected failures (for assertions on retry accounting)
    injected: int = field(default=0, init=False)
    _mutation_index: int = field(default=-1, init=False, repr=False)

    def store_failure(self, attempt: int) -> bool:
        """Inject a failure according to the configured pattern."""
        if attempt == 0:
            self._mutation_index += 1
        fail = (
            self._mutation_index < self.poison_mutations
            or attempt < self.failures_per_mutation
        )
        if fail:
            self.injected += 1
        return fail


@dataclass
class CrashInjector(Injector):  # lint: disable=RL501 (test double the chaos suite installs)
    """Raise :class:`WorkerCrashError` at the ``occurrence``-th time the
    drain loop reaches ``point`` (1-based; occurrence 1 = first time)."""

    point: str
    occurrence: int = 1
    fired: bool = field(default=False, init=False)
    _seen: int = field(default=0, init=False, repr=False)

    def on_drain_point(self, point: str, batch_index: int) -> None:
        """Count occurrences of the target point; crash on the n-th."""
        if self.fired or point != self.point:
            return
        self._seen += 1
        if self._seen >= self.occurrence:
            self.fired = True
            raise WorkerCrashError(point, self._seen)

    def reset(self) -> None:
        """A recovered worker must not immediately re-crash."""
        self._seen = 0


@dataclass
class SlowDrainInjector(Injector):  # lint: disable=RL501 (test double the chaos suite installs)
    """Throttle each drain call to ``max_entries_per_drain`` entries,
    simulating a worker that cannot keep up with the ingest rate."""

    max_entries_per_drain: int = 1

    def drain_allowance(self, requested: int) -> int:
        """Cap the batch size at the configured throttle."""
        return min(requested, self.max_entries_per_drain)


@dataclass
class FaultPlan:
    """A composition of injectors, consulted by the maintenance worker.

    The worker calls :meth:`on_drain_point` at every drain point (any
    injector may crash it), uses :meth:`store_failure` as the retry-loop
    failure injector, and asks :meth:`drain_allowance` before sizing each
    batch.
    """

    injectors: "list[Injector]" = field(default_factory=list)

    def add(self, injector: Injector) -> "FaultPlan":
        """Register one more injector; returns self for chaining."""
        self.injectors.append(injector)
        return self

    def on_drain_point(self, point: str, batch_index: int) -> None:
        """Fan the drain-point announcement out to every injector."""
        for injector in self.injectors:
            injector.on_drain_point(point, batch_index)

    def store_failure(self, attempt: int) -> bool:
        """True when any injector fails this store attempt."""
        return any(injector.store_failure(attempt) for injector in self.injectors)

    def drain_allowance(self, requested: int) -> int:
        """The most restrictive allowance across injectors."""
        allowance = requested
        for injector in self.injectors:
            allowance = min(allowance, injector.drain_allowance(requested))
        return max(0, allowance)

    def reset(self) -> None:
        """Reset every injector (called by pipeline recovery)."""
        for injector in self.injectors:
            injector.reset()
