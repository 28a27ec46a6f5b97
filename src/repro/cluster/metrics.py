"""Metric accumulation for the paper's three evaluation axes (§7.1).

A :class:`MetricsCollector` accumulates:

* **simulated time** — advanced by every charged operation; parallel
  sections (MapReduce waves) are advanced once by their critical path;
* **network bytes** — every byte that crosses node boundaries, including
  HDFS replication copies and MapReduce shuffle traffic;
* **kv reads** — key-value pairs read from the store (the DynamoDB
  read-capacity-unit dollar cost driver);

plus free-form named counters used by tests and reports (e.g. peak reducer
memory, tuples shuffled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Immutable copy of a collector's totals, used in results/reports."""

    sim_time_s: float
    network_bytes: int
    kv_reads: int
    disk_bytes_read: int
    dollars: float
    counters: dict[str, float]

    def __sub__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Difference of two snapshots (for measuring a query in isolation)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) - value
        return MetricsSnapshot(
            sim_time_s=self.sim_time_s - other.sim_time_s,
            network_bytes=self.network_bytes - other.network_bytes,
            kv_reads=self.kv_reads - other.kv_reads,
            disk_bytes_read=self.disk_bytes_read - other.disk_bytes_read,
            dollars=self.dollars - other.dollars,
            counters=counters,
        )


@dataclass
class MetricsCollector:
    """Mutable accumulator of simulation costs."""

    dollars_per_kv_read: float = 0.01 / 50.0
    sim_time_s: float = 0.0
    network_bytes: int = 0
    kv_reads: int = 0
    disk_bytes_read: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    def advance_time(self, seconds: float) -> None:
        """Advance the simulated clock by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"cannot advance time by negative {seconds}")
        self.sim_time_s += seconds

    def add_network(self, num_bytes: int) -> None:
        """Account bytes crossing node boundaries."""
        self.network_bytes += num_bytes

    def add_kv_reads(self, count: int) -> None:
        """Account key-value pairs read from the store."""
        self.kv_reads += count

    def add_disk_read(self, num_bytes: int) -> None:
        self.disk_bytes_read += num_bytes

    def bump(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def record_peak(self, name: str, value: float) -> None:
        """Track the maximum of a quantity (e.g. reducer memory footprint)."""
        if value > self.counters.get(name, float("-inf")):
            self.counters[name] = value

    def set_counter(self, name: str, value: float) -> None:
        """Overwrite a named counter (e.g. rebasing a per-phase peak)."""
        self.counters[name] = value

    def run_timed(
        self, runs: "Sequence[Callable[[], T]]"
    ) -> "list[tuple[T, float]]":
        """Run ``runs`` in order, each on a clock zeroed for it; return
        each result with the simulated seconds it charged.

        Every other charge lands here unchanged; the clock is restored
        afterwards, so the caller prices the elapsed time itself.  If a
        run raises, every total goes back to its value before the first
        run and the exception propagates.
        """
        before = self.snapshot()
        timed: "list[tuple[T, float]]" = []
        try:
            for run in runs:
                self.sim_time_s = 0.0
                result = run()
                timed.append((result, self.sim_time_s))
        except BaseException:
            self.network_bytes = before.network_bytes
            self.kv_reads = before.kv_reads
            self.disk_bytes_read = before.disk_bytes_read
            self.counters.clear()
            self.counters.update(before.counters)
            raise
        finally:
            self.sim_time_s = before.sim_time_s
        return timed

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of the current totals."""
        return MetricsSnapshot(
            sim_time_s=self.sim_time_s,
            network_bytes=self.network_bytes,
            kv_reads=self.kv_reads,
            disk_bytes_read=self.disk_bytes_read,
            dollars=self.kv_reads * self.dollars_per_kv_read,
            counters=dict(self.counters),
        )

    def reset(self) -> None:
        """Zero all totals (indices and data stay; only metering restarts)."""
        self.sim_time_s = 0.0
        self.network_bytes = 0
        self.kv_reads = 0
        self.disk_bytes_read = 0
        self.counters.clear()
