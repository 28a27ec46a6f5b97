"""Equi-width histograms (BFHM's first level)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SketchError
from repro.sketches.histogram import (
    EquiWidthHistogram,
    bucket_bounds,
    score_to_bucket,
)

unit_scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestBucketMapping:
    def test_paper_numbering(self):
        # §5.1: "for scores in [0,1] and 10 buckets, the first bucket —
        # i.e., for score values in (0.9, 1.0] — will be stored under key 0"
        assert score_to_bucket(1.0, 10) == 0
        assert score_to_bucket(0.95, 10) == 0
        assert score_to_bucket(0.85, 10) == 1
        assert score_to_bucket(0.05, 10) == 9

    @given(unit_scores, st.integers(min_value=1, max_value=1000))
    def test_total_and_in_range(self, score, buckets):
        assert 0 <= score_to_bucket(score, buckets) < buckets

    @given(unit_scores, unit_scores, st.integers(min_value=1, max_value=100))
    def test_monotone_higher_score_lower_bucket(self, a, b, buckets):
        if a > b:
            assert score_to_bucket(a, buckets) <= score_to_bucket(b, buckets)

    @given(unit_scores, st.integers(min_value=1, max_value=100))
    def test_score_within_its_bucket_bounds(self, score, buckets):
        bucket = score_to_bucket(score, buckets)
        low, high = bucket_bounds(bucket, buckets)
        assert low - 1e-9 <= score <= high + 1e-9

    def test_out_of_domain_rejected(self):
        with pytest.raises(SketchError):
            score_to_bucket(1.5, 10)
        with pytest.raises(SketchError):
            score_to_bucket(-0.1, 10)

    def test_invalid_config_rejected(self):
        with pytest.raises(SketchError):
            score_to_bucket(0.5, 0)
        with pytest.raises(SketchError):
            bucket_bounds(10, 10)


class TestBucketBounds:
    def test_tiling(self):
        # consecutive buckets tile [0, 1] exactly
        edges = [bucket_bounds(b, 10) for b in range(10)]
        assert edges[0][1] == pytest.approx(1.0)
        assert edges[-1][0] == pytest.approx(0.0)
        for higher, lower in zip(edges[:-1], edges[1:]):
            assert lower[1] == pytest.approx(higher[0])


class TestEquiWidthHistogram:
    def test_observe_tracks_min_max_count(self):
        histogram = EquiWidthHistogram(10)
        for score in (0.93, 1.0, 0.95):
            histogram.add(score)
        stats = histogram.bucket(0)
        assert stats.count == 3
        assert stats.min_score == 0.93
        assert stats.max_score == 1.0

    def test_empty_bucket(self):
        histogram = EquiWidthHistogram(10)
        assert histogram.bucket(5).empty

    @given(st.lists(unit_scores, max_size=200))
    def test_total_count_preserved(self, scores):
        histogram = EquiWidthHistogram(16)
        for score in scores:
            histogram.add(score)
        total = sum(
            histogram.bucket(bucket).count
            for bucket in histogram.non_empty_buckets()
        )
        assert total == len(scores)

    def test_non_empty_buckets_sorted(self):
        histogram = EquiWidthHistogram(10)
        histogram.add(0.05)
        histogram.add(0.95)
        assert histogram.non_empty_buckets() == [0, 9]
