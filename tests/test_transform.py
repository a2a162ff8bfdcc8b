import math
import random
from fractions import Fraction

import pytest

from pgflift import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    Poisson,
    TransformMatrix,
    TruncatedSeries,
    TruncationError,
    exp_truncated,
    joint_pgf,
    monomial_image,
    monomial_substitute,
)
from support import fiber_sum_series, pushforward_case


def S(bounds, terms, mode=EXACT):
    return TruncatedSeries(bounds, mode, terms)


class TestMonomialSubstitute:
    def test_both_terms_land_on_same_target(self):
        g = S((2, 2), {(1, 0): 1, (0, 1): 1})
        out = monomial_substitute(g, TransformMatrix([[1, 1]]), (2,))
        assert out == S((2,), {(1,): 2})

    def test_distinct_images(self):
        g = S((2, 1), {(1, 0): 1, (0, 1): 1})
        out = monomial_substitute(g, TransformMatrix([[1, 2]]), (2,))
        assert out == S((2,), {(1,): 1, (2,): 1})

    def test_wrong_variable_count(self):
        with pytest.raises(DimensionMismatch):
            monomial_substitute(S((1,), {}), TransformMatrix([[1, 1]]), (2,))

    def test_insufficient_input_truncation_detected(self):
        # target degree 6 needs input degree 6, series only retains 2
        g = S((2,), {(1,): 1})
        with pytest.raises(TruncationError):
            monomial_substitute(g, TransformMatrix([[1]]), (6,))

    def test_zero_column_rejected_by_coverage_check(self):
        g = S((2, 2), {(1, 1): 1})
        with pytest.raises(TruncationError):
            monomial_substitute(g, TransformMatrix([[1, 0]]), (2,))

    def test_zero_column_error_names_the_way_out(self):
        g = S((2, 2), {(1, 1): 1})
        hint = "monomial_substitute with check_coverage=False"
        with pytest.raises(TruncationError, match=hint):
            monomial_substitute(g, TransformMatrix([[1, 0]]), (2,))

    def test_zero_column_allowed_when_caller_vouches(self):
        g = S((2, 2), {(1, 1): 1, (1, 2): 2})
        out = monomial_substitute(
            g, TransformMatrix([[1, 0]]), (2,), check_coverage=False
        )
        assert out == S((2,), {(1,): 3})

    def test_poisson_pgf_image_matches_direct_exponential(self):
        # pushing prod_r exp(rate_r (t_r - 1)) through the matrix must give
        # exp(sum_r rate_r (prod_i z_i^a_ir - 1)), coefficient by coefficient
        rates = (0.5, 1.5)
        matrix = TransformMatrix([[1, 2], [1, 0]])
        target_bounds = (6, 6)
        dist = Poisson(rates)
        from pgflift import fiber_degree_bounds

        source_bounds = tuple(fiber_degree_bounds(matrix, target_bounds))
        pushed = monomial_substitute(dist.pgf(source_bounds), matrix, target_bounds)

        argument_terms = {(0, 0): -sum(rates)}
        for r, rate in enumerate(rates):
            unit = tuple(1 if i == r else 0 for i in range(2))
            image = monomial_image(matrix, unit)
            argument_terms[image] = argument_terms.get(image, 0.0) + rate
        direct = exp_truncated(TruncatedSeries(target_bounds, FLOAT, argument_terms))

        keys = set(pushed.terms) | set(direct.terms)
        assert keys
        for key in keys:
            assert pushed.coefficient(key) == pytest.approx(
                direct.coefficient(key), rel=1e-9, abs=1e-15
            )

    def test_randomized_fiber_sum_equivalence(self):
        rng = random.Random(2024)
        for _ in range(30):
            series, matrix, target_bounds = pushforward_case(rng)
            pushed = monomial_substitute(series, matrix, target_bounds)
            assert pushed == fiber_sum_series(series, matrix, target_bounds)

    def test_mass_preservation_on_full_image_box(self):
        rng = random.Random(99)
        for _ in range(25):
            series, matrix, _ = pushforward_case(rng)
            corner = tuple(
                sum(a * b for a, b in zip(row, series.bounds))
                for row in matrix.rows
            )
            # pad the input box so the coverage check sees the full fiber
            # range of the image box (the extra region holds no terms)
            from pgflift import fiber_degree_bounds

            wide = tuple(
                max(b, need)
                for b, need in zip(series.bounds, fiber_degree_bounds(matrix, corner))
            )
            series = TruncatedSeries(wide, EXACT, series.terms)
            pushed = monomial_substitute(series, matrix, corner)
            assert sum(pushed.terms.values(), Fraction(0)) == sum(
                series.terms.values(), Fraction(0)
            )


class TestJointPgf:
    def test_single_atom(self):
        g = S((1,), {(1,): 1})
        out = joint_pgf(g, TransformMatrix([[1]]), (1,), (1,))
        assert out == S((1, 1), {(1, 1): 1})

    def test_point_mass_at_origin(self):
        g = S((0, 0), {(0, 0): 1})
        out = joint_pgf(g, TransformMatrix([[2, 1], [0, 3]]), (0, 0), (5, 5))
        assert out == S((0, 0, 5, 5), {(0, 0, 0, 0): 1})

    def test_bernoulli_doubled(self):
        g = S((1,), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
        out = joint_pgf(g, TransformMatrix([[2]]), (1,), (2,))
        assert out == S(
            (1, 2), {(0, 0): Fraction(1, 2), (1, 2): Fraction(1, 2)}
        )

    def test_specialization_recovers_substitution(self):
        # summing out the source block (setting it to 1) must agree with
        # the plain push-forward
        rng = random.Random(5)
        for _ in range(25):
            series, matrix, target_bounds = pushforward_case(rng)
            joint = joint_pgf(series, matrix, series.bounds, target_bounds)
            d = matrix.num_sources
            collapsed = {}
            for e, c in joint.terms.items():
                key = e[d:]
                collapsed[key] = collapsed.get(key, Fraction(0)) + c
            direct = monomial_substitute(series, matrix, target_bounds)
            assert direct == TruncatedSeries(target_bounds, EXACT, collapsed)

    def test_zero_column_fine_when_source_box_is_finite(self):
        # the joint keeps the ignored coordinate in the source block, so a
        # finite source box makes coverage checkable even with a zero column
        g = S((1, 1), {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)})
        out = joint_pgf(g, TransformMatrix([[1, 0]]), (1, 1), (1,))
        assert out == S(
            (1, 1, 1), {(1, 1, 1): Fraction(1, 2), (0, 0, 0): Fraction(1, 2)}
        )
