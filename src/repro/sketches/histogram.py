"""Equi-width histograms over the score axis (§5.1).

Bucket numbering follows the paper exactly: for scores in [0, 1] and
``numBuckets`` buckets, bucket 0 covers the *highest* score range
``(1 - w, 1]``, bucket 1 covers ``(1 - 2w, 1 - w]``, and so on — so
ascending bucket keys correspond to descending scores, matching HBase's
ascending-only scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SketchError


def score_to_bucket(score: float, num_buckets: int, lo: float = 0.0, hi: float = 1.0) -> int:
    """Map a score to its bucket number (0 = highest score range)."""
    if num_buckets <= 0:
        raise SketchError(f"num_buckets must be positive: {num_buckets}")
    if hi <= lo:
        raise SketchError(f"invalid score domain [{lo}, {hi}]")
    if score < lo or score > hi:
        raise SketchError(f"score {score} outside domain [{lo}, {hi}]")
    width = (hi - lo) / num_buckets
    # bucket b covers (hi - (b+1)*w, hi - b*w]; scores equal to a lower
    # boundary belong to the bucket above's exclusive end, i.e. round down
    offset = (hi - score) / width
    bucket = int(offset)
    if bucket == offset and bucket > 0:
        bucket -= 1  # boundary score belongs to the higher-score bucket
    return min(bucket, num_buckets - 1)


def bucket_bounds(bucket: int, num_buckets: int, lo: float = 0.0, hi: float = 1.0) -> tuple[float, float]:
    """``(lower, upper)`` score boundaries of ``bucket`` (lower exclusive)."""
    if not 0 <= bucket < num_buckets:
        raise SketchError(f"bucket {bucket} out of range [0, {num_buckets})")
    width = (hi - lo) / num_buckets
    upper = hi - bucket * width
    lower = upper - width
    return (max(lower, lo), upper)


@dataclass
class BucketStats:
    """Aggregate statistics of one histogram bucket."""

    count: int = 0
    min_score: float = float("inf")
    max_score: float = float("-inf")

    def observe(self, score: float) -> None:
        self.count += 1
        if score < self.min_score:
            self.min_score = score
        if score > self.max_score:
            self.max_score = score

    @property
    def empty(self) -> bool:
        return self.count == 0


class EquiWidthHistogram:
    """Counts plus min/max actual scores per equi-width bucket."""

    def __init__(self, num_buckets: int, lo: float = 0.0, hi: float = 1.0) -> None:
        if num_buckets <= 0:
            raise SketchError(f"num_buckets must be positive: {num_buckets}")
        self.num_buckets = num_buckets
        self.lo = lo
        self.hi = hi
        self._buckets: dict[int, BucketStats] = {}

    def add(self, score: float) -> int:
        """Record a score; returns the bucket it fell into."""
        bucket = score_to_bucket(score, self.num_buckets, self.lo, self.hi)
        self._buckets.setdefault(bucket, BucketStats()).observe(score)
        return bucket

    def bucket(self, bucket: int) -> BucketStats:
        """Stats for ``bucket`` (empty stats if nothing landed there)."""
        return self._buckets.get(bucket, BucketStats())

    def non_empty_buckets(self) -> list[int]:
        """Bucket numbers with data, ascending (= descending score)."""
        return sorted(self._buckets)
