"""BFHM index construction (Algorithm 5).

Mappers partition tuples into histogram buckets by score; each reducer
handles one bucket: it inserts every tuple's join value into the bucket's
hybrid single-hash counting filter, emits one reverse-mapping entry per
tuple (keyed ``bucket|bitPos``), tracks the actual min/max scores, and
finally emits the Golomb-compressed bucket blob row.

Filter sizing follows §7.1: "All Bloom filters were configured to contain
the most heavily populated of the buckets with a false positive probability
of 5%" — a cheap counting pre-pass finds the heaviest bucket, then
``m = -n_max / ln(1 - 0.05)`` bits (single-hash formula).
"""

from __future__ import annotations

from functools import partial

from repro.common.serialization import (
    decode_float,
    decode_str,
    encode_float,
    encode_str,
)
from repro.core.bfhm.bucket import (
    META_ROW,
    Q_BLOB,
    Q_BUCKETS,
    Q_COUNT,
    Q_M_BITS,
    Q_MAX,
    Q_MIN,
    Q_NUM_BUCKETS,
    BFHMMeta,
    blob_row_key,
    decode_bucket_list,
    encode_blob,
    encode_bucket_list,
    encode_reverse_value,
    reverse_row_key,
)
from repro.core.indexes import BFHM_TABLE, ensure_index_table
from repro.errors import IndexNotBuiltError
from repro.mapreduce.job import Job, TableInput, TableOutput, TaskContext
from repro.platform import Platform
from repro.relational.binding import RelationBinding, load_relation
from repro.sketches.bloom import single_hash_bit_count
from repro.sketches.histogram import score_to_bucket
from repro.sketches.hybrid import HybridBloomFilter
from repro.store.client import Get, Put

#: §7.1 filter configuration
DEFAULT_FP_RATE = 0.05
DEFAULT_NUM_BUCKETS = 100


# -- build task functions ----------------------------------------------------


def _build_map(payload: dict, row_key: str, row, task: TaskContext) -> None:
    """Bucket one base-relation row by score (Algorithm 5 map side)."""
    join_raw = row.value(payload["family"], payload["join_column"])
    score_raw = row.value(payload["family"], payload["score_column"])
    if join_raw is None or score_raw is None:
        task.bump("skipped_rows")
        return
    score = decode_float(score_raw)
    bucket = score_to_bucket(score, payload["num_buckets"])
    task.emit(bucket, [row_key, decode_str(join_raw), score])


def _build_reduce(payload: dict, bucket: int, values: list, task: TaskContext) -> None:
    """Build one bucket: filter, reverse-mapping rows, compressed blob."""
    signature = payload["signature"]
    bucket_filter = HybridBloomFilter(payload["m_bits"])
    min_score = float("inf")
    max_score = float("-inf")
    for row_key, join_value, score in values:
        bit_position = bucket_filter.insert(join_value)
        min_score = min(min_score, score)
        max_score = max(max_score, score)
        reverse_put = Put(reverse_row_key(bucket, bit_position))
        reverse_put.add(
            signature, row_key, encode_reverse_value(join_value, score)
        )
        task.emit(reverse_put.row, reverse_put)
    blob_put = Put(blob_row_key(bucket))
    blob_put.add(signature, Q_BLOB, encode_blob(bucket_filter.to_blob()))
    blob_put.add(signature, Q_MIN, encode_float(min_score))
    blob_put.add(signature, Q_MAX, encode_float(max_score))
    blob_put.add(signature, Q_COUNT, encode_str(str(len(values))))
    task.emit(blob_put.row, blob_put)
    task.bump("buckets_built")


class BFHMIndexBuilder:
    """Builds and introspects one relation's BFHM."""

    def __init__(
        self,
        platform: Platform,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        fp_rate: float = DEFAULT_FP_RATE,
        m_bits: "int | None" = None,
    ) -> None:
        self.platform = platform
        self.num_buckets = num_buckets
        self.fp_rate = fp_rate
        #: deployment-wide filter size; bucket joins AND two filters, so all
        #: relations must share one m (fixed after the first plan)
        self.m_bits = m_bits

    # -- sizing pre-pass ----------------------------------------------------

    def _heaviest_bucket(self, binding: RelationBinding) -> int:
        counts: dict[int, int] = {}
        for row in load_relation(self.platform.store, binding):
            bucket = score_to_bucket(row.score, self.num_buckets)
            counts[bucket] = counts.get(bucket, 0) + 1
        return max(counts.values(), default=1)

    def plan_for(self, bindings: "tuple[RelationBinding, ...]") -> int:
        """Fix the common filter size from the heaviest bucket across all
        ``bindings`` at the target FP rate (§7.1's configuration).  A no-op
        once the size is fixed."""
        if self.m_bits is None:
            heaviest = max(self._heaviest_bucket(b) for b in bindings)
            self.m_bits = single_hash_bit_count(heaviest, self.fp_rate)
        return self.m_bits

    def _plan_filter_bits(self, binding: RelationBinding) -> int:
        """Filter size for a build: the planned common size, or (single
        relation usage) one sized to this relation alone."""
        return self.plan_for((binding,))

    # -- the build job (Algorithm 5) ------------------------------------------

    def index_family(self, signature: str) -> str:
        """Column family of this builder's BFHM for ``signature`` (encodes
        the bucket-count configuration; see :class:`BFHMMeta`)."""
        return f"{signature}__b{self.num_buckets}"

    def build(self, binding: RelationBinding) -> int:
        """Build the BFHM for ``binding``; returns the index's byte size."""
        platform = self.platform
        signature = self.index_family(binding.signature)
        num_buckets = self.num_buckets
        m_bits = self._plan_filter_bits(binding)

        # pre-split on bucket-prefixed keys so blob + reverse rows spread
        splits = [
            blob_row_key(b) for b in range(0, num_buckets,
                                           max(1, num_buckets // max(1, len(platform.ctx.cluster.workers))))
        ][1:]
        ensure_index_table(platform, BFHM_TABLE, signature, splits)

        job = Job(
            name=f"bfhm-index-{signature}",
            input_source=TableInput.of(binding.table, {binding.family}),
            map_fn=partial(
                _build_map,
                {
                    "family": binding.family,
                    "join_column": binding.join_column,
                    "score_column": binding.score_column,
                    "num_buckets": num_buckets,
                },
            ),
            reduce_fn=partial(
                _build_reduce,
                {"signature": signature, "m_bits": m_bits},
            ),
            num_reducers=max(1, len(platform.ctx.cluster.workers)),
            # bucket-number keys keep one bucket per reduce group
            partition_fn=lambda key, n: key % n,
            output=TableOutput(BFHM_TABLE),
        )
        platform.runner.run(job)
        self._write_meta(binding, m_bits)
        return self.index_bytes(signature)

    def _write_meta(self, binding: RelationBinding, m_bits: int) -> None:
        """Write the meta row listing non-empty buckets (metered put)."""
        signature = self.index_family(binding.signature)
        table = self.platform.store.backing(BFHM_TABLE)
        buckets = sorted(
            int(row.row[1:])
            for row in table.all_rows(families={signature})  # lint: disable=RL301 (build-side bucket enumeration; the MapReduce build already charged these writes)
            if row.row.startswith("B") and row.value(signature, Q_BLOB) is not None
        )
        htable = self.platform.store.table(BFHM_TABLE)
        meta_put = Put(META_ROW)
        meta_put.add(signature, Q_NUM_BUCKETS, encode_str(str(self.num_buckets)))
        meta_put.add(signature, Q_M_BITS, encode_str(str(m_bits)))
        meta_put.add(signature, Q_BUCKETS, encode_bucket_list(buckets))
        htable.put(meta_put)
        htable.flush()

    # -- introspection --------------------------------------------------------

    def index_bytes(self, signature: str) -> int:
        table = self.platform.store.backing(BFHM_TABLE)
        return sum(
            cell.serialized_size()
            for row in table.all_rows(families={signature})  # lint: disable=RL301 (index-size accounting for the build report; the build job itself is metered)
            for cell in row
        )

    def read_meta(self, platform: Platform, signature: str) -> BFHMMeta:
        """Metered read of the meta row (start of every query).

        Accepts either a relation signature or an already-resolved index
        family name.
        """
        family = (
            signature if "__b" in signature else self.index_family(signature)
        )
        htable = platform.store.table(BFHM_TABLE)
        row = htable.get(Get(META_ROW, families={family}))
        num_buckets_raw = row.value(family, Q_NUM_BUCKETS)
        m_bits_raw = row.value(family, Q_M_BITS)
        buckets_raw = row.value(family, Q_BUCKETS)
        if num_buckets_raw is None or buckets_raw is None or m_bits_raw is None:
            raise IndexNotBuiltError(f"BFHM:{family}")
        return BFHMMeta(
            num_buckets=int(decode_str(num_buckets_raw)),
            m_bits=int(decode_str(m_bits_raw)),
            buckets=tuple(decode_bucket_list(buckets_raw)),
            family=family,
        )

    def read_meta_unmetered(self, signature: str) -> "BFHMMeta | None":
        """The meta row via the backing table — no cost charged.

        Used when *adopting* a store-present index built by another
        instance: rehydrating in-memory registration must not bill anyone.
        Returns ``None`` when the index (or its meta row) is absent.
        """
        family = (
            signature if "__b" in signature else self.index_family(signature)
        )
        store = self.platform.store
        if not store.has_table(BFHM_TABLE):
            return None
        table = store.backing(BFHM_TABLE)
        if family not in table.families:
            return None
        row = table.read_row(META_ROW, families={family})  # lint: disable=RL301 (adoption rehydrates in-memory registration; billing it would double-charge the original builder)
        num_buckets_raw = row.value(family, Q_NUM_BUCKETS)
        m_bits_raw = row.value(family, Q_M_BITS)
        buckets_raw = row.value(family, Q_BUCKETS)
        if num_buckets_raw is None or buckets_raw is None or m_bits_raw is None:
            return None
        return BFHMMeta(
            num_buckets=int(decode_str(num_buckets_raw)),
            m_bits=int(decode_str(m_bits_raw)),
            buckets=tuple(decode_bucket_list(buckets_raw)),
            family=family,
        )
