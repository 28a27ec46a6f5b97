"""The seed bit-at-a-time Golomb bit I/O, kept verbatim as a test oracle.

The production coder (:mod:`repro.sketches.golomb`) was rewritten to work
on machine words; the wire format is frozen (blob sizes drive the paper's
bandwidth accounting), so the property tests in
``test_golomb_golden.py`` assert that the fast coder emits byte-identical
streams to this reference implementation.
"""

from __future__ import annotations

from repro.errors import BitstreamError


class ReferenceBitWriter:
    """Accumulates bits most-significant-first into a byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current = 0
        self._filled = 0
        self._bit_count = 0

    @property
    def bit_count(self) -> int:
        return self._bit_count

    def write_bit(self, bit: int) -> None:
        self._current = (self._current << 1) | (bit & 1)
        self._filled += 1
        self._bit_count += 1
        if self._filled == 8:
            self._buffer.append(self._current)
            self._current = 0
            self._filled = 0

    def write_bits(self, value: int, width: int) -> None:
        if width < 0:
            raise BitstreamError(f"negative bit width: {width}")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        if value < 0:
            raise BitstreamError(f"cannot unary-encode negative {value}")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    def getvalue(self) -> bytes:
        result = bytearray(self._buffer)
        if self._filled:
            result.append(self._current << (8 - self._filled))
        return bytes(result)


class ReferenceBitReader:
    """Reads bits most-significant-first from a byte buffer."""

    def __init__(self, data: bytes, bit_count: "int | None" = None) -> None:
        self._data = data
        self._limit = len(data) * 8 if bit_count is None else bit_count
        if self._limit > len(data) * 8:
            raise BitstreamError(
                f"bit_count {self._limit} exceeds buffer of {len(data)} bytes"
            )
        self._position = 0

    @property
    def remaining(self) -> int:
        return self._limit - self._position

    def read_bit(self) -> int:
        if self._position >= self._limit:
            raise BitstreamError("read past end of bit stream")
        byte = self._data[self._position // 8]
        bit = (byte >> (7 - self._position % 8)) & 1
        self._position += 1
        return bit

    def read_bits(self, width: int) -> int:
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        count = 0
        while self.read_bit():
            count += 1
        return count


def reference_golomb_encode(values: "list[int]", parameter: int) -> tuple[bytes, int]:
    """The seed Golomb encoder, bit for bit."""
    if parameter <= 0:
        raise BitstreamError(f"Golomb parameter must be positive: {parameter}")
    writer = ReferenceBitWriter()
    for value in values:
        if value < 0:
            raise BitstreamError(f"cannot Golomb-encode negative value {value}")
        quotient, remainder = divmod(value, parameter)
        writer.write_unary(quotient)
        if parameter == 1:
            continue
        width = parameter.bit_length()
        cutoff = (1 << width) - parameter
        if remainder < cutoff:
            writer.write_bits(remainder, width - 1)
        else:
            writer.write_bits(remainder + cutoff, width)
    return writer.getvalue(), writer.bit_count


def reference_golomb_decode(
    payload: bytes, bit_count: int, count: int, parameter: int
) -> list[int]:
    """The seed Golomb decoder, bit for bit."""
    if parameter <= 0:
        raise BitstreamError(f"Golomb parameter must be positive: {parameter}")
    reader = ReferenceBitReader(payload, bit_count)
    values = []
    for _ in range(count):
        quotient = reader.read_unary()
        if parameter == 1:
            values.append(quotient)
            continue
        width = parameter.bit_length()
        cutoff = (1 << width) - parameter
        remainder = reader.read_bits(width - 1)
        if remainder >= cutoff:
            remainder = (remainder << 1) | reader.read_bit()
            remainder -= cutoff
        values.append(quotient * parameter + remainder)
    return values
