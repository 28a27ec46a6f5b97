"""Core value types shared by the indexing and query-processing layers.

The paper's data model (§1, §3) is a scored relation: each row has a row key,
a join-attribute value, and a score in [0, 1] (any totally ordered score
domain works; we keep floats).  :class:`ScoredRow` captures exactly that
triple plus an optional payload of extra attributes (the "useless to most
queries" columns of §1 — they matter because baseline algorithms ship them).

:class:`JoinTuple` is one tuple of a rank-join result at any arity: the
contributing row keys (one per input, in input order), the join value, the
aggregate score, and the individual scores it was computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple


#: the payload of a row that has none: one shared, read-only empty mapping
_NO_PAYLOAD: Mapping[str, Any] = MappingProxyType({})


class ScoredRow(NamedTuple):
    """A row of an input relation, as seen by the rank-join algorithms.

    Attributes:
        row_key: unique row identifier within its relation (e.g. ``r1_10``).
        join_value: the equi-join attribute value.
        score: the scoring attribute; the paper assumes ``[0, 1]`` for
            presentation but only a total order is required.
        payload: remaining attributes of the row.  Baselines (Hive) ship the
            whole row; index-based algorithms only ship key/join/score, which
            is where their bandwidth advantage comes from.
    """

    row_key: str
    join_value: str
    score: float
    payload: Mapping[str, Any] = _NO_PAYLOAD

    def projected(self) -> "ScoredRow":
        """Return a copy stripped of the payload (an early projection)."""
        if not self.payload:
            return self
        return ScoredRow(self.row_key, self.join_value, self.score)


@dataclass(frozen=True, slots=True)
class JoinTuple:
    """One tuple of a top-k join result set.

    Ordered comparisons sort by aggregate ``score`` (then deterministically by
    the row keys so result sets are reproducible across runs).
    """

    keys: tuple[str, ...]
    join_value: str
    score: float
    scores: tuple[float, ...]

    def sort_key(self) -> tuple[float, tuple[str, ...]]:
        """Key for descending-score, ascending-rowkey deterministic order."""
        return (-self.score, self.keys)


def top_k(tuples: "Iterable[JoinTuple]", k: int) -> list[JoinTuple]:
    """Return the top-``k`` join tuples in deterministic descending order."""
    return sorted(tuples, key=JoinTuple.sort_key)[:k]
