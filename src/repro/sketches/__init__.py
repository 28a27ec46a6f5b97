"""Probabilistic sketches and statistical structures.

This subpackage provides the statistical substrate of the BFHM index (§5 of
the paper):

* deterministic hash functions (:mod:`repro.sketches.hashing`);
* word-level Golomb/Rice coding (:mod:`repro.sketches.golomb`);
* counting and single-hash Bloom filters (:mod:`repro.sketches.bloom`);
* the hybrid Golomb-compressed single-hash counting filter used per BFHM
  bucket (:mod:`repro.sketches.hybrid`);
* the 1-D equi-width score histogram (:mod:`repro.sketches.histogram`).

Dynamic (growable) Bloom filters, the paper's §8 future work, are parked:
the frozen blob format has no room for them (see ``docs/ALGORITHMS.md``).
"""

from repro.sketches.bloom import CountingBloomFilter, SingleHashBloomFilter
from repro.sketches.golomb import golomb_decode, golomb_encode, optimal_golomb_parameter
from repro.sketches.hashing import fnv1a_64, hash_to_range, mix64
from repro.sketches.histogram import EquiWidthHistogram, bucket_bounds, score_to_bucket
from repro.sketches.hybrid import HybridBloomFilter

__all__ = [
    "CountingBloomFilter",
    "SingleHashBloomFilter",
    "golomb_decode",
    "golomb_encode",
    "optimal_golomb_parameter",
    "fnv1a_64",
    "hash_to_range",
    "mix64",
    "EquiWidthHistogram",
    "bucket_bounds",
    "score_to_bucket",
    "HybridBloomFilter",
]
