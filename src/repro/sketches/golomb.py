"""Golomb coding of non-negative integers (Golomb, 1966).

The BFHM bucket blob (§5.1) stores the set-bit positions of a very sparse
single-hash Bloom filter and the associated counters.  Raw single-hash
filters would be enormous ("single hash function Bloom filters can grow very
large in space and are thus impractical otherwise"), so the paper compresses
both with Golomb coding — the optimal prefix code for geometrically
distributed gaps, which is exactly the distribution of gaps between set bits
of a sparse random bitmap.

``golomb_encode`` writes each value as ``q`` in unary and ``r`` in truncated
binary, with ``q, r = divmod(value, parameter)``.

The stream is most-significant-bit first and padded to a byte boundary; the
format is frozen (see ``tests/unit/golden_golomb.json``).  The coders work
on machine words, not single bits: writes accumulate into one Python big int
and flush byte-aligned chunks with ``int.to_bytes``; reads keep a sliding
big-int window refilled with ``int.from_bytes`` and decode a unary run in one
step by inverting the window and taking ``bit_length``.
"""

from __future__ import annotations

import math

from repro.errors import BitstreamError

#: size of the coders' big-int accumulator/window, in bits.  Bounded
#: chunks keep every shift/mask O(chunk) instead of O(stream); a multiple
#: of 8 so flushed chunks stay byte-aligned.
CHUNK_BITS = 256
_CHUNK_BYTES = CHUNK_BITS // 8


def optimal_golomb_parameter(probability: float) -> int:
    """Optimal Golomb parameter ``M`` for gap probability ``p``.

    For a bitmap where each bit is set independently with probability ``p``,
    gaps are geometric and the optimal parameter is
    ``M = ceil(-1 / log2(1 - p))`` (Gallager & Van Voorhis).  Degenerate
    probabilities fall back to ``M = 1``.
    """
    if probability <= 0.0 or probability >= 1.0:
        return 1
    denominator = -math.log2(1.0 - probability)
    if denominator <= 0.0:
        return 1
    return max(1, math.ceil(1.0 / denominator))


def golomb_encode(values: "list[int]", parameter: int) -> tuple[bytes, int]:
    """Encode non-negative integers; returns ``(payload, bit_count)``.

    ``bit_count`` is needed to decode exactly (the payload is padded to a
    byte boundary).  The hot loop keeps the accumulator in local variables
    (one fused bulk shift per value).
    """
    if parameter <= 0:
        raise BitstreamError(f"Golomb parameter must be positive: {parameter}")
    if parameter == 1:
        # pure unary: build the whole stream as a string in C ("1"-runs
        # joined and terminated by "0"s) and convert once.  One validating
        # pass keeps lazy iterables safe (no second consumption).
        runs = []
        for value in values:
            if value < 0:
                raise BitstreamError(
                    f"cannot Golomb-encode negative value {value}"
                )
            runs.append("1" * value)
        if not runs:
            return b"", 0
        stream = "0".join(runs) + "0"
        total_bits = len(stream)
        tail_bytes = (total_bits + 7) // 8
        payload = (int(stream, 2) << (tail_bytes * 8 - total_bits)).to_bytes(
            tail_bytes, "big"
        )
        return payload, total_bits
    width = parameter.bit_length()
    cutoff = (1 << width) - parameter
    buffer = bytearray()
    current = 0
    filled = 0
    total_bits = 0
    for value in values:
        if value < 0:
            raise BitstreamError(f"cannot Golomb-encode negative value {value}")
        quotient, remainder = divmod(value, parameter)
        unary = ((1 << quotient) - 1) << 1  # q ones then the terminating 0
        if remainder < cutoff:
            tail_width = width - 1
        else:
            remainder += cutoff
            tail_width = width
        current = (current << (quotient + 1 + tail_width)) | (
            (unary << tail_width) | remainder
        )
        filled += quotient + 1 + tail_width
        total_bits += quotient + 1 + tail_width
        while filled >= CHUNK_BITS:
            excess = filled - CHUNK_BITS
            buffer += (current >> excess).to_bytes(_CHUNK_BYTES, "big")
            current &= (1 << excess) - 1
            filled = excess
    if filled:
        tail_bytes = (filled + 7) // 8
        buffer += (current << (tail_bytes * 8 - filled)).to_bytes(tail_bytes, "big")
    return bytes(buffer), total_bits


def golomb_decode(payload: bytes, bit_count: int, count: int, parameter: int) -> list[int]:
    """Decode ``count`` integers from a :func:`golomb_encode` payload.

    The stream is expanded once into a bit *string* (one linear
    ``int.from_bytes`` + ``format``), after which every value decodes with
    C-speed primitives: ``str.find`` locates the unary terminator in one
    call and ``int(slice, 2)`` parses the truncated-binary remainder — no
    per-bit work and no per-value big-int arithmetic.
    """
    if parameter <= 0:
        raise BitstreamError(f"Golomb parameter must be positive: {parameter}")
    if bit_count > len(payload) * 8:
        raise BitstreamError(
            f"bit_count {bit_count} exceeds buffer of {len(payload)} bytes"
        )
    if count <= 0:
        return []
    total = len(payload) * 8
    stream = format(int.from_bytes(payload, "big"), f"0{total}b") if payload else ""
    if parameter == 1:
        # pure unary: one C-level split recovers every run of ones at once
        runs = stream.split("0", count)
        if len(runs) <= count:
            raise BitstreamError("read past end of bit stream")
        values = list(map(len, runs[:count]))
        if sum(values) + count > bit_count:
            raise BitstreamError("read past end of bit stream")
        return values
    find = stream.find
    position = 0
    out: list[int] = []
    append = out.append
    width = parameter.bit_length()
    cutoff = (1 << width) - parameter
    tail_width = width - 1
    for _ in range(count):
        zero = find("0", position)
        if zero < 0 or zero >= bit_count:
            raise BitstreamError("read past end of bit stream")
        quotient = zero - position
        position = zero + 1
        end = position + tail_width
        if end > bit_count:
            raise BitstreamError("read past end of bit stream")
        remainder = int(stream[position:end], 2) if tail_width else 0
        position = end
        if remainder >= cutoff:
            if position >= bit_count:
                raise BitstreamError("read past end of bit stream")
            remainder = ((remainder << 1) | (stream[position] == "1")) - cutoff
            position += 1
        append(quotient * parameter + remainder)
    return out


def encode_sorted_set(positions: "list[int]", universe: int) -> tuple[bytes, int, int]:
    """Golomb-compress a sorted set of bit positions (a GCS).

    Encodes first-order gaps with the parameter tuned to the set's density,
    computing each gap inline in the encode loop (one pass over the set, no
    intermediate gaps list).  Returns ``(payload, bit_count, parameter)``.
    """
    if any(b < a for a, b in zip(positions, positions[1:])):
        raise BitstreamError("positions must be sorted for gap encoding")
    density = len(positions) / universe if universe > 0 else 0.0
    parameter = optimal_golomb_parameter(density)
    width = parameter.bit_length()
    cutoff = (1 << width) - parameter
    buffer = bytearray()
    current = 0
    filled = 0
    total_bits = 0
    previous = -1
    for position in positions:
        gap = position - previous - 1
        if gap < 0:  # duplicate positions (the sorted check passes them)
            raise BitstreamError(f"cannot Golomb-encode negative value {gap}")
        quotient, remainder = divmod(gap, parameter)
        previous = position
        unary = ((1 << quotient) - 1) << 1
        if parameter == 1:
            bits = unary
            piece_width = quotient + 1
        else:
            if remainder < cutoff:
                tail_width = width - 1
            else:
                remainder += cutoff
                tail_width = width
            bits = (unary << tail_width) | remainder
            piece_width = quotient + 1 + tail_width
        current = (current << piece_width) | bits
        filled += piece_width
        total_bits += piece_width
        while filled >= CHUNK_BITS:
            excess = filled - CHUNK_BITS
            buffer += (current >> excess).to_bytes(_CHUNK_BYTES, "big")
            current &= (1 << excess) - 1
            filled = excess
    if filled:
        tail_bytes = (filled + 7) // 8
        buffer += (current << (tail_bytes * 8 - filled)).to_bytes(tail_bytes, "big")
    return bytes(buffer), total_bits, parameter


def decode_sorted_set(payload: bytes, bit_count: int, count: int, parameter: int) -> list[int]:
    """Inverse of :func:`encode_sorted_set`.

    Mirrors :func:`golomb_decode`'s string scan but accumulates the running
    position inline, so the positions come out in one pass with no
    intermediate gaps list.
    """
    if parameter <= 0:
        raise BitstreamError(f"Golomb parameter must be positive: {parameter}")
    if bit_count > len(payload) * 8:
        raise BitstreamError(
            f"bit_count {bit_count} exceeds buffer of {len(payload)} bytes"
        )
    if count <= 0:
        return []
    total = len(payload) * 8
    stream = format(int.from_bytes(payload, "big"), f"0{total}b") if payload else ""
    find = stream.find
    position = 0
    running = -1
    out: list[int] = []
    append = out.append
    if parameter == 1:
        runs = stream.split("0", count)
        if len(runs) <= count:
            raise BitstreamError("read past end of bit stream")
        consumed = 0
        for run in runs[:count]:
            gap = len(run)
            consumed += gap + 1
            running += gap + 1
            append(running)
        if consumed > bit_count:
            raise BitstreamError("read past end of bit stream")
        return out
    width = parameter.bit_length()
    cutoff = (1 << width) - parameter
    tail_width = width - 1
    for _ in range(count):
        zero = find("0", position)
        if zero < 0 or zero >= bit_count:
            raise BitstreamError("read past end of bit stream")
        quotient = zero - position
        position = zero + 1
        end = position + tail_width
        if end > bit_count:
            raise BitstreamError("read past end of bit stream")
        remainder = int(stream[position:end], 2) if tail_width else 0
        position = end
        if remainder >= cutoff:
            if position >= bit_count:
                raise BitstreamError("read past end of bit stream")
            remainder = ((remainder << 1) | (stream[position] == "1")) - cutoff
            position += 1
        running += quotient * parameter + remainder + 1
        append(running)
    return out
