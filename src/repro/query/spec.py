"""The rank-join query specification (§1.1, §3).

::

    SELECT select-list FROM R1, R2, ..., Rn
    WHERE equi-join-expression(R1, ..., Rn)
    ORDER BY f(R1, ..., Rn) STOP AFTER k

captured as ``n >= 2`` :class:`~repro.relational.binding.RelationBinding`
inputs over one shared join attribute, a monotone
:class:`~repro.common.functions.AggregateFunction`, and ``k``.  §3 notes
the multi-way extension of the paper's frameworks is mechanical, so the
whole stack — parser, planner, engine, EXPLAIN — speaks this one n-ary
spec; ``left``/``right`` remain as compatibility accessors for the
pervasive two-way case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.functions import AggregateFunction, resolve_function
from repro.errors import QueryError
from repro.relational.binding import RelationBinding


@dataclass(frozen=True, init=False)
class RankJoinQuery:
    """An n-way top-k equi-join over a single shared join attribute."""

    inputs: tuple[RelationBinding, ...]
    function: AggregateFunction
    k: int

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        """Accepts the n-ary form ``(inputs, function, k)`` and, for
        compatibility, the historical two-way form
        ``(left, right, function, k)`` — positionally or by keyword."""
        inputs = kwargs.pop("inputs", None)
        left = kwargs.pop("left", None)
        right = kwargs.pop("right", None)
        function = kwargs.pop("function", None)
        k = kwargs.pop("k", None)
        if kwargs:
            raise TypeError(f"unexpected keyword arguments: {sorted(kwargs)}")
        positional = list(args)
        if positional and inputs is None and left is None:
            head = positional[0]
            if isinstance(head, RelationBinding):
                left = positional.pop(0)
            else:
                inputs = positional.pop(0)
        if positional and left is not None and right is None:
            if isinstance(positional[0], RelationBinding):
                right = positional.pop(0)
        if positional and isinstance(positional[0], RelationBinding):
            raise TypeError(
                "more than two positional relation bindings are ambiguous; "
                "pass three or more relations as inputs=(b1, b2, b3, ...)"
            )
        if positional and function is None:
            function = positional.pop(0)
        if positional and k is None:
            k = positional.pop(0)
        if positional:
            raise TypeError(f"too many positional arguments: {positional}")
        if inputs is None:
            if left is None or right is None:
                raise TypeError(
                    "RankJoinQuery needs inputs=(...) or left and right"
                )
            inputs = (left, right)
        elif left is not None or right is not None:
            raise TypeError("pass either inputs or left/right, not both")
        if function is None or k is None:
            raise TypeError("RankJoinQuery needs a function and k")
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "k", k)
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.inputs) < 2:
            raise QueryError(
                f"rank join needs >= 2 relations, got {len(self.inputs)}"
            )
        if self.k <= 0:
            raise QueryError(f"k must be positive: {self.k}")

    @staticmethod
    def of(
        *args: Any,
        **kwargs: Any,
    ) -> "RankJoinQuery":
        """Convenience constructor accepting a function name.

        ``of(left, right, function, k)`` (two-way) or
        ``of(inputs, function, k)`` (n-ary).
        """
        if "function" in kwargs:
            kwargs["function"] = resolve_function(kwargs["function"])
            return RankJoinQuery(*args, **kwargs)
        args = list(args)
        for index, value in enumerate(args):
            if isinstance(value, (str, AggregateFunction)):
                args[index] = resolve_function(value)
                break
        return RankJoinQuery(*args, **kwargs)

    # -- structural accessors -------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def left(self) -> RelationBinding:
        """First input (the two-way ``left`` role)."""
        return self.inputs[0]

    @property
    def right(self) -> RelationBinding:
        """Second input (the two-way ``right`` role)."""
        return self.inputs[1]

    def pairwise(self, left_index: int = 0, right_index: int = 1) -> "RankJoinQuery":
        """A two-way projection (reuses the binary index builders and,
        in the left-deep BFHM cascade, shapes each stage)."""
        return RankJoinQuery(
            inputs=(self.inputs[left_index], self.inputs[right_index]),
            function=self.function,
            k=self.k,
        )

    @property
    def description(self) -> str:
        joined = " ⋈ ".join(binding.display_name for binding in self.inputs)
        on = "=".join(binding.join_column for binding in self.inputs)
        return f"top-{self.k} {joined} on {on} by {self.function.name}"
