"""The complete n-way equi-join — what the naive rank join ranks."""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Iterable, Sequence

from repro.common.functions import AggregateFunction
from repro.common.types import JoinTuple, ScoredRow
from repro.errors import QueryError


def full_join_multi(
    relations: "Sequence[Iterable[ScoredRow]]",
    function: AggregateFunction,
) -> list[JoinTuple]:
    """The complete n-way equi-join with aggregate scores."""
    if len(relations) < 2:
        raise QueryError(f"multi-way join needs >= 2 relations, got {len(relations)}")
    by_value: list[dict[str, list[ScoredRow]]] = []
    for relation in relations:
        index: dict[str, list[ScoredRow]] = defaultdict(list)
        for row in relation:
            index[row.join_value].append(row)
        by_value.append(index)

    common_values = set(by_value[0])
    for index in by_value[1:]:
        common_values &= set(index)

    results: list[JoinTuple] = []
    for value in common_values:
        for rows in product(*(index[value] for index in by_value)):
            scores = tuple(row.score for row in rows)
            results.append(
                JoinTuple(
                    keys=tuple(row.row_key for row in rows),
                    join_value=value,
                    score=function.combine(scores),
                    scores=scores,
                )
            )
    return results
