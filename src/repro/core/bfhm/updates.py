"""BFHM online updates (§6).

Reverse mappings are maintained directly (insert: a new qualifier in the
``bucket|bitPos`` row; delete: the store's vanilla delete).  Blob updates
are deferred through **insertion** and **tombstone records**: extra
qualifiers in the bucket row carrying the tuple's rowkey, join value and
score, stamped with the original mutation timestamp.  Whoever fetches the
bucket row replays the records in timestamp order over the stored blob and
obtains the up-to-date filter; the reconstructed blob can be written back

* **eagerly** — at the start of query processing (worst case for query
  latency; the §7.2 update experiment's configuration),
* **lazily** — after query results are returned,
* **offline** — by a periodic sweeper thread,

optionally only when at least ``writeback_threshold`` records have piled
up.  Row-level atomicity plus timestamp ordering make the replay lossless.
"""

from __future__ import annotations

import enum

from repro.common.serialization import decode_float, decode_str, encode_float, encode_str
from repro.core.bfhm.blobcache import decode_cached
from repro.core.bfhm.bucket import (
    META_ROW,
    Q_BLOB,
    Q_BUCKETS,
    Q_COUNT,
    Q_MAX,
    Q_MIN,
    BFHMBucketData,
    BFHMMeta,
    blob_row_key,
    encode_blob,
    encode_bucket_list,
    encode_reverse_value,
    reverse_row_key,
)
from repro.core.indexes import BFHM_TABLE
from repro.errors import IndexError_
from repro.platform import Platform
from repro.sketches.histogram import score_to_bucket
from repro.sketches.hybrid import HybridBloomFilter
from repro.store.cell import RowResult
from repro.store.client import Delete, Get, Put

#: update-record qualifier prefix: u<timestamp>|<op>|<rowkey>
_RECORD_PREFIX = "u"
_OP_INSERT = "i"
_OP_DELETE = "d"


class WriteBackPolicy(enum.Enum):
    """When reconstructed blobs are persisted (§6)."""

    EAGER = "eager"
    LAZY = "lazy"
    OFFLINE = "offline"


def record_qualifier(timestamp: int, op: str, row_key: str) -> str:
    """Qualifier of one §6 update record riding in a blob row."""
    return f"{_RECORD_PREFIX}{timestamp:012d}|{op}|{row_key}"


def parse_record_qualifier(qualifier: str) -> "tuple[int, str, str] | None":
    """``(timestamp, op, row_key)`` of an update record, or None."""
    if not qualifier.startswith(_RECORD_PREFIX):
        return None
    pieces = qualifier[1:].split("|", 2)
    if len(pieces) != 3 or pieces[1] not in (_OP_INSERT, _OP_DELETE):
        return None
    try:
        return (int(pieces[0]), pieces[1], pieces[2])
    except ValueError:
        return None


class BFHMUpdateManager:
    """Applies online mutations and replays them at read time."""

    def __init__(
        self,
        platform: Platform,
        policy: WriteBackPolicy = WriteBackPolicy.EAGER,
        writeback_threshold: int = 1,
    ) -> None:
        self.platform = platform
        self.policy = policy
        self.writeback_threshold = max(1, writeback_threshold)
        self._metas: dict[str, BFHMMeta] = {}
        #: (signature, bucket) -> reconstructed data awaiting lazy write-back
        self._pending: dict[tuple[str, int], BFHMBucketData] = {}
        self.replays = 0
        self.writebacks = 0

    # -- meta handling ---------------------------------------------------------

    def register_meta(self, signature: str, meta: BFHMMeta) -> None:
        """Register under both the relation signature and the index family
        so mutation interceptors (which know signatures) and bucket readers
        (which know families) both resolve."""
        self._metas[signature] = meta
        if meta.family:
            self._metas[meta.family] = meta

    def meta(self, signature: str) -> BFHMMeta:
        try:
            return self._metas[signature]
        except KeyError:
            raise IndexError_(
                f"BFHM meta for {signature!r} not registered with the "
                "update manager"
            ) from None

    def forget(self, signature_prefix: str) -> None:
        """Drop registered metas and pending write-backs whose signature
        (or index family) starts with ``signature_prefix`` — the eviction
        hook for short-lived relations like cascade intermediates."""
        for key in [k for k in self._metas if k.startswith(signature_prefix)]:
            del self._metas[key]
        for key in [
            k for k in self._pending if k[0].startswith(signature_prefix)
        ]:
            del self._pending[key]

    def _extend_meta_buckets(self, signature: str, buckets: "set[int]") -> None:
        """Record newly non-empty buckets in the meta row (one put for the
        whole set, however many buckets an insert batch lit up)."""
        meta = self.meta(signature)
        new = buckets - set(meta.buckets)
        if not new:
            return
        merged = tuple(sorted((*meta.buckets, *new)))
        updated = BFHMMeta(meta.num_buckets, meta.m_bits, merged, meta.family)
        self.register_meta(signature, updated)
        htable = self.platform.store.table(BFHM_TABLE)
        put = Put(META_ROW)
        put.add(meta.family, Q_BUCKETS, encode_bucket_list(list(merged)))
        htable.put(put)

    # -- mutation path (intercepted by the maintenance layer) --------------------

    def apply_insert_batch(
        self,
        signature: str,
        items: "list[tuple[str, str, float]]",
        timestamp: "int | None" = None,
    ) -> list[int]:
        """Insert many ``(row key, join value, score)`` tuples sharing one
        mutation timestamp.

        Reverse-mapping puts coalesce per ``bucket|bitPos`` row and §6
        insertion records coalesce per bucket row, so the whole batch is
        one ``put_batch`` (one RPC per region touched) plus at most one
        meta-row update — instead of two puts and a meta check per tuple.
        Returns the bucket of each tuple, in input order.
        """
        if not items:
            return []
        meta = self.meta(signature)
        timestamp = (
            timestamp if timestamp is not None else self.platform.ctx.next_timestamp()
        )
        probe = HybridBloomFilter(meta.m_bits)
        reverse_puts: "dict[str, Put]" = {}
        record_puts: "dict[str, Put]" = {}
        buckets: list[int] = []
        for row_key, join_value, score in items:
            bucket = score_to_bucket(score, meta.num_buckets)
            buckets.append(bucket)
            value = encode_reverse_value(join_value, score)
            reverse_key = reverse_row_key(bucket, probe.position(join_value))
            reverse_put = reverse_puts.get(reverse_key)
            if reverse_put is None:
                reverse_put = reverse_puts[reverse_key] = Put(
                    reverse_key, timestamp=timestamp
                )
            reverse_put.add(meta.family, row_key, value)
            blob_key = blob_row_key(bucket)
            record_put = record_puts.get(blob_key)
            if record_put is None:
                record_put = record_puts[blob_key] = Put(
                    blob_key, timestamp=timestamp
                )
            record_put.add(
                meta.family,
                record_qualifier(timestamp, _OP_INSERT, row_key),
                value,
            )
        htable = self.platform.store.table(BFHM_TABLE)
        htable.put_batch([*reverse_puts.values(), *record_puts.values()])
        self._extend_meta_buckets(signature, set(buckets))
        return buckets

    def apply_delete_batch(
        self,
        signature: str,
        items: "list[tuple[str, str, float]]",
        timestamp: "int | None" = None,
    ) -> list[int]:
        """Delete many ``(row key, join value, score)`` tuples sharing one
        mutation timestamp: batched reverse-mapping tombstones plus §6
        deletion records coalesced per bucket row.  Returns each tuple's
        bucket, in input order."""
        if not items:
            return []
        meta = self.meta(signature)
        timestamp = (
            timestamp if timestamp is not None else self.platform.ctx.next_timestamp()
        )
        probe = HybridBloomFilter(meta.m_bits)
        deletes: list[Delete] = []
        record_puts: "dict[str, Put]" = {}
        buckets: list[int] = []
        for row_key, join_value, score in items:
            bucket = score_to_bucket(score, meta.num_buckets)
            buckets.append(bucket)
            deletes.append(
                Delete(
                    reverse_row_key(bucket, probe.position(join_value)),
                    family=meta.family,
                    qualifier=row_key,
                    timestamp=timestamp,
                )
            )
            blob_key = blob_row_key(bucket)
            record_put = record_puts.get(blob_key)
            if record_put is None:
                record_put = record_puts[blob_key] = Put(
                    blob_key, timestamp=timestamp
                )
            record_put.add(
                meta.family,
                record_qualifier(timestamp, _OP_DELETE, row_key),
                encode_reverse_value(join_value, score),
            )
        htable = self.platform.store.table(BFHM_TABLE)
        htable.delete_batch(deletes)
        htable.put_batch(list(record_puts.values()))
        return buckets

    # -- read-time replay -----------------------------------------------------------

    def decode_with_replay(
        self, signature: str, bucket: int, row: RowResult
    ) -> BFHMBucketData:
        """Decode a bucket row, replaying any pending update records."""
        records: list[tuple[int, str, str, bytes]] = []
        for cell in row.family_cells(signature):
            parsed = parse_record_qualifier(cell.qualifier)
            if parsed is not None:
                records.append((*parsed, cell.value))

        blob_raw = row.value(signature, Q_BLOB)
        min_raw = row.value(signature, Q_MIN)
        max_raw = row.value(signature, Q_MAX)
        count_raw = row.value(signature, Q_COUNT)

        if blob_raw is not None:
            # cached decode hands back a fresh copy, so the record replay
            # below can mutate the filter without poisoning the cache
            bucket_filter = decode_cached(blob_raw)
            min_score = decode_float(min_raw) if min_raw is not None else float("inf")
            max_score = decode_float(max_raw) if max_raw is not None else float("-inf")
            count = int(decode_str(count_raw)) if count_raw is not None else 0
        else:
            if not records:
                raise IndexError_(
                    f"BFHM bucket row B{bucket:05d} missing for {signature}"
                )
            bucket_filter = HybridBloomFilter(self.meta(signature).m_bits)
            min_score = float("inf")
            max_score = float("-inf")
            count = 0

        if not records:
            return BFHMBucketData(bucket, min_score, max_score, count, bucket_filter)

        # replay in mutation-timestamp order (§6: "replay all row mutations
        # in timestamp order and reconstruct the up-to-date blob")
        self.replays += 1
        latest_timestamp = 0
        for timestamp, op, _row_key, value in sorted(records):
            score = decode_float(value[:8])
            join_value = value[8:].decode("utf-8")
            latest_timestamp = max(latest_timestamp, timestamp)
            if op == _OP_INSERT:
                bucket_filter.insert(join_value)
                count += 1
                min_score = min(min_score, score)
                max_score = max(max_score, score)
            else:
                bucket_filter.remove(join_value)
                count -= 1
                # min/max stay as conservative (possibly loose) bounds

        data = BFHMBucketData(bucket, min_score, max_score, count, bucket_filter)
        if len(records) >= self.writeback_threshold:
            if self.policy is WriteBackPolicy.EAGER:
                self._write_back(signature, data, records, latest_timestamp)
            elif self.policy is WriteBackPolicy.LAZY:
                self._pending[(signature, bucket)] = data
        return data

    # -- write-back ---------------------------------------------------------------------

    def _write_back(
        self,
        signature: str,
        data: BFHMBucketData,
        records: "list[tuple[int, str, str, bytes]]",
        latest_timestamp: int,
    ) -> None:
        """Persist the reconstructed blob and purge replayed records, all
        stamped with the latest replayed mutation's timestamp (§6)."""
        htable = self.platform.store.table(BFHM_TABLE)
        row_key = blob_row_key(data.bucket)
        put = Put(row_key, timestamp=self.platform.ctx.next_timestamp())
        put.add(signature, Q_BLOB, encode_blob(data.filter.to_blob()))
        put.add(signature, Q_MIN, encode_float(data.min_score))
        put.add(signature, Q_MAX, encode_float(data.max_score))
        put.add(signature, Q_COUNT, encode_str(str(data.count)))
        htable.put(put)
        for timestamp, op, record_row_key, _value in records:
            if timestamp <= latest_timestamp:
                htable.delete(
                    Delete(row_key, family=signature,
                           qualifier=record_qualifier(timestamp, op, record_row_key))
                )
        self.writebacks += 1

    def flush_pending(self) -> int:
        """Lazy write-back: persist every reconstructed blob queued during
        the last query.  Returns how many were written."""
        flushed = 0
        for (signature, bucket), data in sorted(self._pending.items()):
            htable = self.platform.store.table(BFHM_TABLE)
            row = htable.get(_bucket_get(signature, bucket))
            records = [
                (*parsed, cell.value)
                for cell in row.family_cells(signature)
                if (parsed := parse_record_qualifier(cell.qualifier)) is not None
            ]
            if records:
                self._write_back(
                    signature, data, records, max(r[0] for r in records)
                )
                flushed += 1
        self._pending.clear()
        return flushed

    def offline_sweep(self, signature: str) -> int:
        """Offline write-back: probe every bucket row for pending records
        (the §6 "thread periodically probing bucket rows")."""
        meta = self.meta(signature)
        family = meta.family
        htable = self.platform.store.table(BFHM_TABLE)
        swept = 0
        for bucket in meta.buckets:
            row = htable.get(_bucket_get(family, bucket))
            records = [
                (*parsed, cell.value)
                for cell in row.family_cells(family)
                if (parsed := parse_record_qualifier(cell.qualifier)) is not None
            ]
            if not records:
                continue
            data = self.decode_with_replay(family, bucket, row)
            self._write_back(family, data, records, max(r[0] for r in records))
            swept += 1
        return swept


def _bucket_get(signature: str, bucket: int) -> Get:
    return Get(blob_row_key(bucket), families={signature})
