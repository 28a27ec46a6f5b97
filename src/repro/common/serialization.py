"""Byte-level encodings and size accounting.

The bandwidth/dollar-cost metrics of the paper (§7.1) are defined over bytes
shipped and key-value pairs read.  To account those faithfully, everything
that crosses a simulated network or lands in the simulated store has a
well-defined serialized size.  We use compact, deterministic encodings:

* strings — UTF-8;
* floats — 8-byte IEEE-754 big-endian;
* score keys — fixed-width decimal strings of the *negated* score, so that
  HBase's ascending-key scans return rows in descending-score order (the
  "kink" of §4.2.2).
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterable

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63
_LOW63 = _SIGN64 - 1
#: big-endian IEEE-754 double and 64-bit unsigned int, compiled once
_DOUBLE = struct.Struct(">d")
_UINT64 = struct.Struct(">Q")


def encode_str(value: str) -> bytes:
    """UTF-8 encode a string."""
    return value.encode("utf-8")


def decode_str(data: bytes) -> str:
    """Inverse of :func:`encode_str`."""
    return data.decode("utf-8")


def encode_float(value: float) -> bytes:
    """Serialize a float as 8 bytes, big-endian IEEE-754."""
    return _DOUBLE.pack(value)


def decode_float(data: bytes) -> float:
    """Inverse of :func:`encode_float`."""
    return _DOUBLE.unpack(data)[0]


def encode_score_key(score: float) -> str:
    """Encode a score as a row key that sorts ascending by *descending* score.

    HBase scans ascend; to iterate in decreasing score order the ISL index
    stores negated scores (§4.2.2, Fig. 3).  We use the standard sortable
    IEEE-754 trick: map the double's bit pattern to an order-preserving
    unsigned integer, complement it (descending), and render fixed-width
    hex.  The encoding is *lossless* — tuple scores recovered from index
    keys are bit-exact — and totally ordered for any finite score.
    """
    bits = _UINT64.unpack(_DOUBLE.pack(score))[0]
    if bits & _SIGN64:
        ascending = ~bits & _MASK64  # negative floats: reverse order
    else:
        ascending = bits | _SIGN64
    descending = ~ascending & _MASK64
    return f"{descending:016x}"


def decode_score_key(key: str) -> float:
    """Exact inverse of :func:`encode_score_key`."""
    descending = int(key, 16)
    # undo the complement, then the sign mapping, in one XOR
    bits = descending if descending & _SIGN64 else descending ^ _LOW63
    return _DOUBLE.unpack(_UINT64.pack(bits))[0]


#: framing a tuple, list or dict adds around its items
CONTAINER_HEADER_BYTES = 2


def _sizeof_str(value: str) -> int:
    # isascii() reads a flag: one byte per character, nothing to encode
    return len(value) if value.isascii() else len(value.encode("utf-8"))


def _sizeof_int(value: int) -> int:
    return max(1, (value.bit_length() + 7) // 8)


def _sizeof_sequence(value: Iterable[Any]) -> int:
    # dispatches each item here, so a leaf costs one call, not two
    total = CONTAINER_HEADER_BYTES
    for item in value:
        sizer = _sizer_of(type(item))
        total += sizer(item) if sizer is not None else sizeof(item)
    return total


def _sizeof_mapping(value: dict) -> int:
    # the keys and the values, under one header
    return (
        _sizeof_sequence(value)
        + _sizeof_sequence(value.values())
        - CONTAINER_HEADER_BYTES
    )


class SizedDict(dict[Any, Any]):
    """A dict that is sized once: the first :func:`sizeof` of it is kept
    and every later one returns that number.

    For a mapping that one record carries through several stages, or that
    many records share (Hive's payload columns): each stage still sizes
    its record once, but the mapping's items are walked only the first
    time.  Never mutate one after it has been sized.
    """

    __slots__ = ("_size",)
    _size: int

    def serialized_size(self) -> int:
        try:
            return self._size
        except AttributeError:
            self._size = _sizeof_mapping(self)
            return self._size


#: exact type -> sizer, for the types records are actually made of; a
#: subclass (IntEnum, namedtuple, OrderedDict, ...) misses here and takes
#: the ``isinstance`` ladder below, which gives it its base type's size
_SIZERS: "dict[type, Callable[[Any], int]]" = {
    type(None): lambda value: 1,
    bool: lambda value: 1,
    bytes: len,
    str: _sizeof_str,
    int: _sizeof_int,
    float: lambda value: 8,
    tuple: _sizeof_sequence,
    list: _sizeof_sequence,
    dict: _sizeof_mapping,
    SizedDict: SizedDict.serialized_size,
}
_sizer_of = _SIZERS.get


def sizeof(value: Any) -> int:
    """Serialized size (bytes) of a value for network/storage accounting.

    Handles the primitives the library stores: bytes, str, int, float, bool,
    None, and (recursively) tuples/lists/dicts of those.
    """
    sizer = _sizer_of(type(value))
    if sizer is not None:
        return sizer(value)
    # subclasses only from here on (None and bool have none)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return _sizeof_str(value)
    if isinstance(value, int):
        return _sizeof_int(value)
    if isinstance(value, float):
        return 8
    if isinstance(value, (tuple, list)):
        return _sizeof_sequence(value)
    if isinstance(value, dict):
        return _sizeof_mapping(value)
    # store objects (Cell, RowResult, Put, ...) know their own size
    payload_size = getattr(value, "serialized_size", None)
    if callable(payload_size):
        return payload_size()
    raise TypeError(f"cannot compute serialized size of {type(value).__name__}")
