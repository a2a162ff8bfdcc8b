import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pgflift import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    ExactModeError,
    TruncatedSeries,
    TruncationError,
    exp_truncated,
)

from support import add


def S(bounds, terms, mode=EXACT):
    return TruncatedSeries(bounds, mode, terms)


class TestStorageInvariants:
    def test_zero_coefficients_never_stored(self):
        assert S((3,), {(1,): 0, (2,): 5}).terms == {(2,): Fraction(5)}

    def test_cancellation_removes_entries(self):
        # (1 + t)(1 - t) = 1 - t^2: the t coefficient sums to 0 and is dropped
        left = S((2,), {(0,): 1, (1,): 1})
        right = S((2,), {(0,): 1, (1,): -1})
        assert (left * right).terms == {(0,): Fraction(1), (2,): Fraction(-1)}

    def test_float_mode_keeps_every_nonzero_value(self):
        # a Poisson weight such as exp(-700) * 700 = 6.9e-302 is a value, so
        # only an exact zero is dropped, down to the smallest subnormal
        for tiny in (1e-200, 1e-301, 5e-324):
            assert S((1,), {(1,): tiny}, mode=FLOAT).terms == {(1,): tiny}
        assert S((1,), {(0,): 0.0, (1,): -0.0}, mode=FLOAT).terms == {}

    def test_exponent_outside_box_rejected(self):
        with pytest.raises(TruncationError):
            S((2, 2), {(3, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            S((2,), {(-1,): 1})

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(ExactModeError):
            S((2,), {(1,): 0.5})

    def test_immutable(self):
        series = S((1,), {(1,): 1})
        with pytest.raises(AttributeError):
            series.mode = FLOAT

    def test_exponent_length_must_match_box(self):
        with pytest.raises(DimensionMismatch):
            S((2, 2), {(1,): 1})

    def test_equality_reads_box_and_mode(self):
        series = S((2,), {(1,): 1})
        assert series == S((2,), {(1,): 1})
        assert series != S((3,), {(1,): 1})
        assert series != S((2,), {(1,): 1.0}, mode=FLOAT)
        assert series != {(1,): 1}

    def test_repr_lists_terms_in_exponent_order(self):
        series = S((2, 1), {(1, 0): "1/3", (0, 1): 2})
        assert repr(series) == (
            "TruncatedSeries(bounds=(2, 1), mode='exact', {(0, 1): 2, (1, 0): 1/3})"
        )


class TestMul:
    def test_binomial_square(self):
        one_plus_t = S((2,), {(0,): 1, (1,): 1})
        assert one_plus_t * one_plus_t == S((2,), {(0,): 1, (1,): 2, (2,): 1})

    def test_truncation_drops_high_degree(self):
        one_plus_t = S((1,), {(0,): 1, (1,): 1})
        assert one_plus_t * one_plus_t == S((1,), {(0,): 1, (1,): 2})

    def test_cross_variable(self):
        t1 = S((1, 1), {(1, 0): 1})
        t2 = S((1, 1), {(0, 1): 1})
        assert t1 * t2 == S((1, 1), {(1, 1): 1})

    def test_scalar_multiplication(self):
        series = S((1,), {(1,): 3})
        assert series * Fraction(1, 3) == S((1,), {(1,): 1})

    def test_scale_by_zero_drops_every_term(self):
        assert S((2,), {(0,): 1, (2,): 4}).scale(0).terms == {}

    def test_different_boxes_rejected(self):
        with pytest.raises(DimensionMismatch):
            S((1,), {(0,): 1}) * S((2,), {(0,): 1})

    def test_mixed_modes_rejected(self):
        with pytest.raises(ValueError, match="mix coefficient modes"):
            S((1,), {(0,): 1}) * S((1,), {(0,): 1.0}, mode=FLOAT)


class TestExp:
    def test_exp_of_zero(self):
        assert exp_truncated(S((3,), {})) == TruncatedSeries.one((3,))

    def test_poisson_rate_one_coefficients(self):
        # coefficient of t^j must be the Poisson(1) pmf value e^-1 / j!
        series = S((3,), {(1,): 1.0, (0,): -1.0}, mode=FLOAT)
        result = exp_truncated(series)
        for j in range(4):
            expected = math.exp(-1.0) / math.factorial(j)
            assert result.coefficient((j,)) == pytest.approx(expected, rel=1e-12)

    def test_poisson_rate_two_coefficient(self):
        series = S((4,), {(1,): 2.0, (0,): -2.0}, mode=FLOAT)
        result = exp_truncated(series)
        expected = math.exp(-2.0) * 2.0  # pmf of Poisson(2) at 2
        assert result.coefficient((2,)) == pytest.approx(expected, rel=1e-12)

    def test_exact_mode_nonzero_constant_rejected(self):
        with pytest.raises(ExactModeError):
            exp_truncated(S((2,), {(0,): 1}))

    def test_float_constant_folds_in_as_one_factor(self):
        # exp(c + t) = exp(c) * (1 + t + t^2/2), scaled once at the end
        result = exp_truncated(S((2,), {(0,): 0.5, (1,): 1.0}, mode=FLOAT))
        factor = math.exp(0.5)
        assert result.terms == {(0,): factor, (1,): factor, (2,): factor * 0.5}

    def test_cancelled_power_leaves_no_entry(self):
        # exp(t - t^2/2) = sum He_n(1) t^n / n!, and He_2(1) = 0: the t^2
        # terms of the first and second powers cancel
        result = exp_truncated(S((3,), {(1,): 1, (2,): Fraction(-1, 2)}))
        assert result.terms == {(0,): 1, (1,): 1, (3,): Fraction(-1, 3)}

    def test_exact_mode_zero_constant_works(self):
        result = exp_truncated(S((3,), {(1,): 1}))
        assert result == S(
            (3,),
            {(0,): 1, (1,): 1, (2,): Fraction(1, 2), (3,): Fraction(1, 6)},
        )


class TestPartialDerivative:
    def test_power_rule(self):
        assert S((2,), {(2,): 1}).partial_derivative(0) == S((1,), {(1,): 2})

    def test_vanishing(self):
        result = S((1,), {(0,): 1, (1,): 1}).partial_derivative(0, 2)
        assert result.terms == {}

    def test_mixed_variables(self):
        result = S((2, 1), {(2, 1): 1}).partial_derivative(0)
        assert result == S((1, 1), {(1, 1): 2})

    def test_order_zero_is_identity(self):
        series = S((2,), {(1,): 5})
        assert series.partial_derivative(0, 0) is series

    def test_bad_variable_index(self):
        with pytest.raises(DimensionMismatch):
            S((2,), {}).partial_derivative(1)


class TestCoefficient:
    def test_present(self):
        assert S((2,), {(0,): 1, (2,): 3}).coefficient((2,)) == 3

    def test_absent_inside_box_is_zero(self):
        assert S((2,), {(0,): 1}).coefficient((1,)) == 0

    def test_beyond_truncation_errors(self):
        with pytest.raises(TruncationError):
            S((3,), {(0,): 1}).coefficient((4,))


# randomized algebra, exact coefficients

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@st.composite
def series_triple(draw):
    num_vars = draw(st.integers(1, 3))
    bounds = tuple(draw(st.integers(1, 6)) for _ in range(num_vars))
    exponent = st.tuples(*(st.integers(0, b) for b in bounds))
    def one_series():
        terms = draw(st.dictionaries(exponent, fractions_st, max_size=5))
        return TruncatedSeries(bounds, EXACT, terms)
    return one_series(), one_series(), one_series()


@given(series_triple())
@settings(max_examples=80, deadline=None)
def test_mul_commutative_associative_distributive(triple):
    a, b, c = triple
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * add(b, c) == add(a * b, a * c)


@given(series_triple())
@settings(max_examples=60, deadline=None)
def test_derivative_extraction_identity(triple):
    series, _, _ = triple
    for var in range(series.num_vars):
        deriv = series.partial_derivative(var)
        for e in itertools.product(*(range(b + 1) for b in deriv.bounds)):
            shifted = tuple(
                x + 1 if r == var else x for r, x in enumerate(e)
            )
            assert deriv.coefficient(e) == (e[var] + 1) * series.coefficient(shifted)


def test_exp_of_negation_inverts():
    rng = random.Random(17)
    for _ in range(30):
        num_vars = rng.randint(1, 2)
        bounds = tuple(rng.randint(1, 5) for _ in range(num_vars))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, b) for b in bounds)
            terms[e] = rng.uniform(-1.0, 1.0)
        series = TruncatedSeries(bounds, FLOAT, terms)
        product = exp_truncated(series) * exp_truncated(series.scale(-1))
        for e, c in product.terms.items():
            target = 1.0 if all(x == 0 for x in e) else 0.0
            assert abs(c - target) < 1e-9
