"""Byte encodings and size accounting."""

import enum
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.serialization import (
    decode_float,
    decode_score_key,
    decode_str,
    encode_float,
    encode_score_key,
    encode_str,
    sizeof,
)
from repro.store.cell import Cell, RowResult
from repro.store.client import Put


class TestRoundTrips:
    @given(st.text(max_size=200))
    def test_str_roundtrip(self, value):
        assert decode_str(encode_str(value)) == value

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_roundtrip(self, value):
        assert decode_float(encode_float(value)) == value

    def test_float_is_eight_bytes(self):
        assert len(encode_float(0.5)) == 8


class TestScoreKeys:
    """The ISL negated-score key (§4.2.2): ascending keys == descending
    scores, so HBase's forward-only scans walk scores downward."""

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_order_inversion(self, a, b):
        if a < b:
            assert encode_score_key(a) >= encode_score_key(b)
        elif a > b:
            assert encode_score_key(a) <= encode_score_key(b)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_roundtrip_is_lossless(self, score):
        assert decode_score_key(encode_score_key(score)) == score

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_order_inversion_beyond_unit_interval(self, a, b):
        # arbitrary score domains are supported (§1.1: only a total
        # ordering is required)
        if a < b:
            assert encode_score_key(a) > encode_score_key(b)

    def test_keys_are_fixed_width(self):
        assert len(encode_score_key(0.0)) == len(encode_score_key(1.0))

    def test_extremes(self):
        assert encode_score_key(1.0) < encode_score_key(0.0)


class TestSizeof:
    def test_primitives(self):
        assert sizeof(None) == 1
        assert sizeof(True) == 1
        assert sizeof(b"abcd") == 4
        assert sizeof("abcd") == 4
        assert sizeof(0.5) == 8
        assert sizeof(300) == 2

    def test_unicode_counts_encoded_bytes(self):
        assert sizeof("é") == 2

    def test_containers_recursive(self):
        assert sizeof([b"ab", b"cd"]) == 2 + 4
        assert sizeof({"k": b"vv"}) == 2 + 1 + 2
        assert sizeof(("ab", 0.5)) == 2 + 2 + 8

    def test_objects_with_serialized_size(self):
        class Blob:
            def serialized_size(self):
                return 99

        assert sizeof(Blob()) == 99

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            sizeof(object())


def ladder_sizeof(value):
    """The ``isinstance`` ladder ``sizeof`` was before it dispatched on
    ``type(value)``, kept verbatim as the reference."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 8
    if isinstance(value, (tuple, list)):
        return 2 + sum(ladder_sizeof(v) for v in value)
    if isinstance(value, dict):
        return 2 + sum(ladder_sizeof(k) + ladder_sizeof(v) for k, v in value.items())
    payload_size = getattr(value, "serialized_size", None)
    if callable(payload_size):
        return payload_size()
    raise TypeError(f"cannot compute serialized size of {type(value).__name__}")


leaves = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=12) | st.binary(max_size=12)  # text: any code point
)
hashable_leaves = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.binary(max_size=6)
)
nested = st.recursive(
    leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(hashable_leaves, inner, max_size=4)
    ),
    max_leaves=25,
)


class Colour(enum.IntEnum):
    RED = 1
    WIDE = 70_000


class Tagged(str):
    pass


Point = namedtuple("Point", "x label")


class TestSizeofDispatch:
    """Exact-type dispatch must size everything as the ladder did."""

    @given(nested)
    def test_equals_the_isinstance_ladder(self, value):
        assert sizeof(value) == ladder_sizeof(value)

    def test_bool_is_not_sized_as_int(self):
        assert sizeof(True) == sizeof(False) == 1
        assert sizeof(1) == 1 and sizeof(256) == 2
        assert sizeof([True, 256]) == 2 + 1 + 2

    @pytest.mark.parametrize("value", [
        Colour.RED, Colour.WIDE,                      # int subclass
        Tagged("größe"),                              # str subclass, non-ASCII
        Point(3, "é"),                                # tuple subclass
        OrderedDict([("k", b"vv"), ("n", 1.5)]),      # dict subclass
        [Point(1, "a"), {"c": Colour.WIDE}],          # ... nested in exact types
    ])
    def test_subclasses_take_their_base_types_size(self, value):
        assert sizeof(value) == ladder_sizeof(value)

    def test_store_objects_size_themselves(self):
        put = Put("row").add("d", "q", b"value")
        row = RowResult("row", [Cell("row", "d", "q", b"value", 7)])
        assert sizeof(put) == put.serialized_size()
        assert sizeof(row) == row.serialized_size()
        assert sizeof(("k", put)) == 2 + 1 + put.serialized_size()

    @pytest.mark.parametrize("value", [object(), {1, 2}, bytearray(b"ab"), 1j])
    def test_unsupported_types_still_raise(self, value):
        with pytest.raises(TypeError):
            sizeof(value)
        with pytest.raises(TypeError):
            sizeof([value])
