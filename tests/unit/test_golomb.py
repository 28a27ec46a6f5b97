"""Golomb coding (the BFHM blob compressor)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import BitstreamError
from repro.sketches.golomb import (
    decode_sorted_set,
    encode_sorted_set,
    golomb_decode,
    golomb_encode,
    optimal_golomb_parameter,
)


class TestRoundTrip:
    @given(st.lists(st.integers(min_value=0, max_value=100_000), max_size=200),
           st.integers(min_value=1, max_value=64))
    def test_any_parameter(self, values, parameter):
        payload, bits = golomb_encode(values, parameter)
        assert golomb_decode(payload, bits, len(values), parameter) == values

    def test_empty(self):
        payload, bits = golomb_encode([], 4)
        assert golomb_decode(payload, bits, 0, 4) == []

    def test_negative_rejected(self):
        with pytest.raises(BitstreamError):
            golomb_encode([-1], 4)

    def test_zero_parameter_rejected(self):
        with pytest.raises(BitstreamError):
            golomb_encode([1], 0)

    @pytest.mark.parametrize("parameter", [1, 4, 5])
    def test_truncated_or_overlong_stream_rejected(self, parameter):
        """Reading past the stream's end, or claiming more bits than the
        payload holds, is a typed error whatever the decoder's path."""
        payload, bits = golomb_encode([3, 0, 2, 7], parameter)
        with pytest.raises(BitstreamError):
            golomb_decode(payload, bits, 5, parameter)
        with pytest.raises(BitstreamError):
            golomb_decode(payload, bits - 3, 4, parameter)
        with pytest.raises(BitstreamError):
            golomb_decode(payload, bits + 64, 4, parameter)


class TestOptimalParameter:
    def test_degenerate_probabilities(self):
        assert optimal_golomb_parameter(0.0) == 1
        assert optimal_golomb_parameter(1.0) == 1

    def test_sparser_means_larger(self):
        assert optimal_golomb_parameter(0.001) > optimal_golomb_parameter(0.1)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_positive(self, p):
        assert optimal_golomb_parameter(p) >= 1


class TestSortedSets:
    @given(st.sets(st.integers(min_value=0, max_value=9999), max_size=300))
    def test_roundtrip(self, members):
        positions = sorted(members)
        payload, bits, parameter = encode_sorted_set(positions, 10_000)
        assert decode_sorted_set(payload, bits, len(positions), parameter) == positions

    def test_unsorted_rejected(self):
        with pytest.raises(BitstreamError):
            encode_sorted_set([5, 3], 10)

    def test_compression_beats_raw_bitmap_for_sparse_sets(self):
        # 100 set bits in a million-bit universe: raw bitmap = 125_000 B
        positions = sorted(range(0, 1_000_000, 10_000))
        payload, _bits, _param = encode_sorted_set(positions, 1_000_000)
        assert len(payload) < 1000

    def test_duplicates_rejected_via_gap_underflow(self):
        # duplicate positions produce a -1 gap, which must be rejected
        with pytest.raises(BitstreamError):
            encode_sorted_set([3, 3], 10)
