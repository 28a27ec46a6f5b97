"""Wire-format freeze: golden vectors + equivalence with the seed coder.

The BFHM blob byte size is what the paper's bandwidth and storage
accounting measures, so the Golomb stream layout is frozen.  Two lines of
defense:

* **golden vectors** (``golden_golomb.json``, generated by the seed
  bit-at-a-time coder before the word-level rewrite) pin the exact payload
  bytes and bit counts of fixed inputs;
* **randomized property tests** drive the production coder and the
  reference implementation (``reference_bitio.py``, the seed coder kept
  verbatim) with the same inputs and require byte-identical streams.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfhm.bucket import decode_blob, encode_blob
from repro.sketches.golomb import (
    decode_sorted_set,
    encode_sorted_set,
    golomb_decode,
    golomb_encode,
)
from repro.sketches.hybrid import HybridBloomFilter
from tests.unit.reference_bitio import (
    reference_golomb_decode,
    reference_golomb_encode,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_golomb.json").read_text()
)


class TestGoldenVectors:
    @pytest.mark.parametrize("case", GOLDEN["golomb"], ids=lambda c: c["payload"][:12] or "empty")
    def test_golomb_payloads_frozen(self, case):
        payload, bits = golomb_encode(case["values"], case["parameter"])
        assert payload.hex() == case["payload"]
        assert bits == case["bits"]
        decoded = golomb_decode(
            payload, bits, len(case["values"]), case["parameter"]
        )
        assert decoded == case["values"]

    @pytest.mark.parametrize("case", GOLDEN["sorted_set"], ids=lambda c: f"u{c['universe']}n{len(c['positions'])}")
    def test_sorted_set_payloads_frozen(self, case):
        payload, bits, parameter = encode_sorted_set(
            case["positions"], case["universe"]
        )
        assert payload.hex() == case["payload"]
        assert bits == case["bits"]
        assert parameter == case["parameter"]
        decoded = decode_sorted_set(
            payload, bits, len(case["positions"]), parameter
        )
        assert decoded == case["positions"]

    @pytest.mark.parametrize("case", GOLDEN["blob"], ids=lambda c: f"m{c['m_bits']}n{c['n_items']}")
    def test_whole_blobs_frozen(self, case):
        """End-to-end: filter -> hybrid blob -> stored bytes, bit for bit."""
        bucket_filter = HybridBloomFilter(case["m_bits"])
        rng = random.Random(case["seed"])
        for _ in range(case["n_items"]):
            bucket_filter.insert(f"jv{rng.randrange(10_000):06d}")
        encoded = encode_blob(bucket_filter.to_blob())
        assert encoded.hex() == case["encoded"]
        # and the round trip restores the exact counter table
        restored = HybridBloomFilter.from_blob(decode_blob(encoded))
        assert restored.counters == bucket_filter.counters
        assert restored.item_count == bucket_filter.item_count


# the reference coder is O(bits) per value, so keep quotients bounded:
# small values against any parameter, large values against parameters big
# enough that the unary run stays short
values_strategy = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=2_000),
        st.integers(min_value=0, max_value=1 << 40).map(lambda v: v | (1 << 30)),
    ),
    max_size=120,
)
parameter_strategy = st.integers(min_value=1 << 24, max_value=1 << 44)
small_values_strategy = st.lists(
    st.integers(min_value=0, max_value=2_000), max_size=120
)
small_parameter_strategy = st.integers(min_value=1, max_value=5_000)


class TestSeedEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(small_values_strategy, small_parameter_strategy)
    def test_encode_matches_seed_coder(self, values, parameter):
        assert golomb_encode(values, parameter) == reference_golomb_encode(
            values, parameter
        )

    @settings(max_examples=50, deadline=None)
    @given(values_strategy, parameter_strategy)
    def test_encode_matches_seed_coder_large_values(self, values, parameter):
        assert golomb_encode(values, parameter) == reference_golomb_encode(
            values, parameter
        )

    @settings(max_examples=50, deadline=None)
    @given(small_values_strategy, small_parameter_strategy)
    def test_decode_matches_seed_coder(self, values, parameter):
        payload, bits = golomb_encode(values, parameter)
        ours = golomb_decode(payload, bits, len(values), parameter)
        theirs = reference_golomb_decode(payload, bits, len(values), parameter)
        assert ours == theirs == values

    @pytest.mark.parametrize("parameter", [1, 4])
    def test_lazy_iterables_encode_like_lists(self, parameter):
        """golomb_encode must not consume a generator twice (the
        parameter==1 fast path validates in its single pass)."""
        values = [3, 0, 2, 7]
        assert golomb_encode(iter(values), parameter) == golomb_encode(
            values, parameter
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=5000), max_size=400),
        st.sampled_from([5001, 10_000, 1_000_000]),
    )
    def test_sorted_sets_round_trip(self, position_set, universe):
        """Empty, sparse, and dense sets all survive the gap coder."""
        positions = sorted(position_set)
        payload, bits, parameter = encode_sorted_set(positions, universe)
        assert decode_sorted_set(payload, bits, len(positions), parameter) == positions

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=8, max_value=50_000),
        st.lists(st.text(min_size=0, max_size=12), max_size=150),
    )
    def test_blob_round_trip_any_filter(self, m_bits, items):
        """Dense and sparse filters round-trip through the full wire codec."""
        bucket_filter = HybridBloomFilter(m_bits)
        for item in items:
            bucket_filter.insert(item)
        blob = decode_blob(encode_blob(bucket_filter.to_blob()))
        restored = HybridBloomFilter.from_blob(blob)
        assert restored.counters == bucket_filter.counters
        assert restored.item_count == bucket_filter.item_count
