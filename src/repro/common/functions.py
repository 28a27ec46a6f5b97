"""Monotone aggregate score functions (the ``f`` of the paper, §1.1).

Rank-join algorithms require the aggregate function to be monotone: if every
individual score of tuple ``a`` is greater than or equal to the corresponding
score of tuple ``b``, then ``f(a) >= f(b)``.  All classes here satisfy that,
and property tests check it on concrete inputs.

Q1 of the evaluation uses a product (``P.RetailPrice * L.ExtendedPrice``) and
Q2 a sum (``O.TotalPrice + L.ExtendedPrice``); both are provided, along with
weighted-sum / max / min variants commonly used in the rank-join literature.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import QueryError


class AggregateFunction(ABC):
    """A monotone function combining per-relation scores into a join score."""

    #: short name used by the SQL layer and reports
    name: str = "abstract"

    @abstractmethod
    def combine(self, scores: Sequence[float]) -> float:
        """Combine one score per joined relation into the aggregate score."""

    def __call__(self, *scores: float) -> float:
        return self.combine(scores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SumFunction(AggregateFunction):
    """``f(s1, ..., sn) = s1 + ... + sn`` — Q2's scoring function."""

    name = "sum"

    def combine(self, scores: Sequence[float]) -> float:
        return math.fsum(scores)


class ProductFunction(AggregateFunction):
    """``f(s1, ..., sn) = s1 * ... * sn`` — Q1's scoring function.

    Monotone on non-negative scores, which is the paper's assumed domain.
    """

    name = "product"

    def combine(self, scores: Sequence[float]) -> float:
        result = 1.0
        for s in scores:
            if s < 0:
                raise QueryError(
                    "ProductFunction requires non-negative scores to stay "
                    f"monotone; got {s}"
                )
            result *= s
        return result


class WeightedSumFunction(AggregateFunction):
    """``f(s1, ..., sn) = w1*s1 + ... + wn*sn`` with non-negative weights."""

    name = "weighted_sum"

    def __init__(self, weights: Sequence[float]) -> None:
        if any(w < 0 for w in weights):
            raise QueryError("weights must be non-negative for monotonicity")
        self.weights = tuple(weights)

    def combine(self, scores: Sequence[float]) -> float:
        if len(scores) != len(self.weights):
            raise QueryError(
                f"expected {len(self.weights)} scores, got {len(scores)}"
            )
        return math.fsum(w * s for w, s in zip(self.weights, scores))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedSumFunction(weights={self.weights})"


class MaxFunction(AggregateFunction):
    """``f(s1, ..., sn) = max(si)``."""

    name = "max"

    def combine(self, scores: Sequence[float]) -> float:
        return max(scores)


class MinFunction(AggregateFunction):
    """``f(s1, ..., sn) = min(si)``."""

    name = "min"

    def combine(self, scores: Sequence[float]) -> float:
        return min(scores)


_REGISTRY: dict[str, AggregateFunction] = {
    "sum": SumFunction(),
    "+": SumFunction(),
    "product": ProductFunction(),
    "*": ProductFunction(),
    "max": MaxFunction(),
    "min": MinFunction(),
}


def resolve_function(name_or_fn: "str | AggregateFunction") -> AggregateFunction:
    """Resolve a function name (``"sum"``, ``"*"``...) or pass through an
    :class:`AggregateFunction` instance."""
    if isinstance(name_or_fn, AggregateFunction):
        return name_or_fn
    try:
        return _REGISTRY[name_or_fn.lower()]
    except KeyError:
        raise QueryError(f"unknown aggregate function: {name_or_fn!r}") from None
