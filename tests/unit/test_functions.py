"""Aggregate score functions: values, monotonicity, registry."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.functions import (
    AggregateFunction,
    MaxFunction,
    MinFunction,
    ProductFunction,
    SumFunction,
    WeightedSumFunction,
    resolve_function,
)
from repro.errors import QueryError

scores = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def check_monotone_pair(fn: AggregateFunction, low, high) -> bool:
    """True iff dominance of ``high`` over ``low`` implies f-ordering."""
    if not all(h >= l for h, l in zip(high, low)):
        return True  # dominance premise does not hold; vacuously fine
    return fn.combine(high) >= fn.combine(low)


class TestValues:
    def test_sum(self):
        assert SumFunction()(0.25, 0.5) == pytest.approx(0.75)

    def test_product(self):
        assert ProductFunction()(0.5, 0.4) == pytest.approx(0.2)

    def test_weighted_sum(self):
        fn = WeightedSumFunction([2.0, 0.5])
        assert fn(0.1, 0.4) == pytest.approx(0.4)

    def test_max_min(self):
        assert MaxFunction()(0.3, 0.7) == 0.7
        assert MinFunction()(0.3, 0.7) == 0.3

    def test_sum_is_precise(self):
        # fsum avoids the float accumulation drift of naive addition
        values = [0.1] * 10
        assert SumFunction().combine(values) == pytest.approx(1.0, abs=1e-15)


class TestValidation:
    def test_product_rejects_negative(self):
        with pytest.raises(QueryError):
            ProductFunction()(-0.1, 0.5)

    def test_weighted_sum_rejects_negative_weights(self):
        with pytest.raises(QueryError):
            WeightedSumFunction([-1.0, 1.0])

    def test_weighted_sum_arity_checked(self):
        with pytest.raises(QueryError):
            WeightedSumFunction([1.0, 1.0])(0.5)


class TestRegistry:
    @pytest.mark.parametrize(
        "name, expected",
        [("sum", SumFunction), ("+", SumFunction), ("product", ProductFunction),
         ("*", ProductFunction), ("max", MaxFunction), ("min", MinFunction),
         ("SUM", SumFunction)],
    )
    def test_resolve_by_name(self, name, expected):
        assert isinstance(resolve_function(name), expected)

    def test_resolve_passthrough(self):
        fn = WeightedSumFunction([1.0, 2.0])
        assert resolve_function(fn) is fn

    def test_resolve_unknown(self):
        with pytest.raises(QueryError):
            resolve_function("median")


class TestMonotonicity:
    """The rank-join correctness precondition (§1.1)."""

    @given(scores, scores, scores, scores)
    def test_sum_monotone(self, a, b, da, db):
        low = (min(a, b), min(a, b))
        high = (low[0] + da / 2, low[1] + db / 2)
        assert check_monotone_pair(SumFunction(), low, high)

    @given(scores, scores, scores, scores)
    def test_product_monotone(self, a1, a2, b1, b2):
        low = (min(a1, b1), min(a2, b2))
        high = (max(a1, b1), max(a2, b2))
        assert check_monotone_pair(ProductFunction(), low, high)

    @given(scores, scores, scores, scores,
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0))
    def test_weighted_sum_monotone(self, a1, a2, b1, b2, w1, w2):
        fn = WeightedSumFunction([w1, w2])
        low = (min(a1, b1), min(a2, b2))
        high = (max(a1, b1), max(a2, b2))
        assert check_monotone_pair(fn, low, high)

    def test_nonmonotone_counterexample_detected(self):
        class Bad(SumFunction):
            def combine(self, values):
                return -math.fsum(values)

        assert not check_monotone_pair(Bad(), (0.1, 0.1), (0.5, 0.5))


class TestValueKey:
    def test_parameterless_builtins_key_on_their_class(self):
        assert SumFunction().value_key == SumFunction().value_key
        assert resolve_function("+").value_key == resolve_function("sum").value_key
        keys = {
            fn().value_key
            for fn in (SumFunction, ProductFunction, MaxFunction, MinFunction)
        }
        assert len(keys) == 4

    def test_weighted_sums_key_on_their_weights(self):
        assert (
            WeightedSumFunction([2.0, 1.0]).value_key
            == WeightedSumFunction([2, 1]).value_key
        )
        assert (
            WeightedSumFunction([2.0, 1.0]).value_key
            != WeightedSumFunction([1.0, 2.0]).value_key
        )
        assert (
            WeightedSumFunction([1.0, 1.0]).value_key != SumFunction().value_key
        )

    def test_subclasses_key_on_identity(self):
        """A subclass may carry parameters its class name does not show."""

        class Halved(SumFunction):
            def combine(self, values):
                return math.fsum(values) / 2

        class Weighted(WeightedSumFunction):
            pass

        assert Halved().value_key != Halved().value_key
        assert Halved().value_key != SumFunction().value_key
        fn = Weighted([1.0, 1.0])
        assert fn.value_key is fn
        assert fn.value_key != Weighted([1.0, 1.0]).value_key
