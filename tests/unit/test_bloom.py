"""Bloom filter variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CounterUnderflowError, SketchError
from repro.sketches.bloom import (
    CountingBloomFilter,
    SingleHashBloomFilter,
    single_hash_bit_count,
)

keys = st.text(min_size=1, max_size=16)


class TestCountingBloom:
    @given(st.lists(keys, max_size=60))
    @settings(max_examples=50)
    def test_add_then_remove_all_empties(self, items):
        counting = CountingBloomFilter(256, 2)
        for item in items:
            counting.add(item)
        for item in items:
            counting.remove(item)
        assert counting.counters == {}
        assert counting.item_count == 0

    def test_remove_absent_raises(self):
        counting = CountingBloomFilter(64)
        with pytest.raises(CounterUnderflowError):
            counting.remove("ghost")

    def test_count_is_upper_bound(self):
        # Lemma 1's engine: counters only ever overestimate multiplicity
        counting = CountingBloomFilter(8, 1)  # tiny => collisions certain
        for _ in range(3):
            counting.add("a")
        counting.add("b")
        assert counting.count("a") >= 3

    def test_membership(self):
        counting = CountingBloomFilter(256, 2)
        counting.add("present")
        assert "present" in counting

    def test_duplicates_tracked(self):
        counting = CountingBloomFilter(256, 1)
        counting.add("x")
        counting.add("x")
        assert counting.count("x") == 2
        counting.remove("x")
        assert "x" in counting

    def test_sizing_validation(self):
        with pytest.raises(SketchError):
            CountingBloomFilter(0, 1)
        with pytest.raises(SketchError):
            CountingBloomFilter(8, 0)


class TestSingleHash:
    def test_position_is_stable_and_single(self):
        single = SingleHashBloomFilter(512)
        position = single.position("alpha")
        assert single.add("alpha") == [position]

    def test_probe_probability_bounds(self):
        single = SingleHashBloomFilter(100)
        assert single.probe_probability() == 0.0
        for i in range(50):
            single.add(str(i))
        assert 0.0 < single.probe_probability() < 1.0

    def test_single_hash_sizing_formula(self):
        # m = -n / ln(1 - p); for n=100, p=0.05 => ~1950 bits
        assert single_hash_bit_count(100, 0.05) == pytest.approx(1950, abs=2)
        with pytest.raises(SketchError):
            single_hash_bit_count(0, 0.05)
