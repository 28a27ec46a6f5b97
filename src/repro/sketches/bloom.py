"""Bloom filter variants.

Two filters are provided:

* :class:`CountingBloomFilter` — a Bloom filter (Bloom, 1970) with
  per-position counters supporting deletion and multiplicity estimation;
* :class:`SingleHashBloomFilter` — the single-hash-function flavour the
  BFHM bucket builds on (§5.1): one hash per item keeps the per-position
  false-positive accounting simple (the α compensation of §5.3 assumes it)
  at the cost of a sparser, larger bitmap — which is why the paper pairs it
  with Golomb compression.
"""

from __future__ import annotations

import math

from repro.errors import CounterUnderflowError, SketchError
from repro.sketches.hashing import double_hashes, hash_to_range


def single_hash_bit_count(capacity: int, fp_rate: float) -> int:
    """Bits for a *single-hash* filter at ``fp_rate``.

    With one hash, the probability a probe hits a set bit after ``n``
    insertions is ``1 - (1 - 1/m)^n ≈ 1 - e^(-n/m)``; solving for ``m``
    gives ``m = -n / ln(1 - p)``.
    """
    if capacity <= 0:
        raise SketchError(f"capacity must be positive: {capacity}")
    if not 0.0 < fp_rate < 1.0:
        raise SketchError(f"fp_rate must be in (0, 1): {fp_rate}")
    return max(8, math.ceil(-capacity / math.log(1.0 - fp_rate)))


class CountingBloomFilter:
    """Bloom filter with integer counters, supporting deletions.

    Counters are kept in a sparse dict (position -> count), matching the
    paper's "hash table of counters for each non-zero bit" (§5.1).
    """

    def __init__(self, bit_count: int, hash_count: int = 1) -> None:
        if bit_count <= 0:
            raise SketchError(f"bit_count must be positive: {bit_count}")
        if hash_count <= 0:
            raise SketchError(f"hash_count must be positive: {hash_count}")
        self.bit_count = bit_count
        self.hash_count = hash_count
        self.counters: dict[int, int] = {}
        self.item_count = 0

    def _positions(self, item: "bytes | str") -> list[int]:
        if self.hash_count == 1:
            return [hash_to_range(item, self.bit_count)]
        return double_hashes(item, self.hash_count, self.bit_count)

    def add(self, item: "bytes | str") -> list[int]:
        """Insert an item; returns the touched positions."""
        positions = self._positions(item)
        for position in positions:
            self.counters[position] = self.counters.get(position, 0) + 1
        self.item_count += 1
        return positions

    def remove(self, item: "bytes | str") -> list[int]:
        """Delete an item; raises if any counter would go negative."""
        positions = self._positions(item)
        for position in positions:
            if self.counters.get(position, 0) <= 0:
                raise CounterUnderflowError(
                    f"cannot remove item: counter at position {position} is 0"
                )
        for position in positions:
            remaining = self.counters[position] - 1
            if remaining:
                self.counters[position] = remaining
            else:
                del self.counters[position]
        self.item_count -= 1
        return positions

    def __contains__(self, item: "bytes | str") -> bool:
        return all(self.counters.get(p, 0) > 0 for p in self._positions(item))

    def count(self, item: "bytes | str") -> int:
        """Upper bound on the multiplicity of ``item`` (min of its counters)."""
        return min(self.counters.get(p, 0) for p in self._positions(item))


class SingleHashBloomFilter(CountingBloomFilter):
    """Single-hash counting filter — the core of a BFHM bucket.

    ``position(item)`` exposes the single bit position an item maps to; the
    BFHM build job records it so the reverse-mapping rows
    (``bucketNo|bitPos``) can be written (§5.1, Alg. 5 line 12).
    """

    def __init__(self, bit_count: int) -> None:
        super().__init__(bit_count, hash_count=1)

    def position(self, item: "bytes | str") -> int:
        """The (single) bit position ``item`` maps to."""
        return hash_to_range(item, self.bit_count)

    def probe_probability(self) -> float:
        """``PT = 1 - (1 - 1/m)^n ≈ 1 - e^(-n/m)`` — the probability that a
        given bit is set, used for the α compensation factor (§5.3)."""
        if self.item_count == 0:
            return 0.0
        return 1.0 - math.exp(-self.item_count / self.bit_count)
