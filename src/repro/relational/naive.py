"""The naive rank join: full join, then rank, then cut (§1.1).

"A naive approach would first compute the join result, then rank and select
the top-k tuples" — this is both the semantic definition of the query and
the ground truth every algorithm's recall is validated against, at any
arity.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.common.functions import AggregateFunction
from repro.common.types import JoinTuple, ScoredRow, top_k
from repro.relational.multiway import full_join_multi


def full_join(
    left: Iterable[ScoredRow],
    right: Iterable[ScoredRow],
    function: AggregateFunction,
) -> list[JoinTuple]:
    """The complete two-way equi-join result with aggregate scores (the
    two-argument form ``perf/oracle.py`` calls)."""
    return full_join_multi([left, right], function)


def naive_rank_join(
    relations: "Sequence[Iterable[ScoredRow]]",
    function: AggregateFunction,
    k: int,
) -> list[JoinTuple]:
    """Ground-truth top-k join result over ``relations``, deterministically
    ordered."""
    return top_k(full_join_multi(relations, function), k)
