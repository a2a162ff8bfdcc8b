import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pgflift import (
    EXACT,
    FLOAT,
    Multinomial,
    Poisson,
    Table,
    TruncatedSeries,
    exp_truncated,
    to_fraction,
)


def unit(dim, r):
    return tuple(int(i == r) for i in range(dim))


def poisson_pgf_by_exponentials(dist, box):
    """prod_r exp_truncated(-rate_r + rate_r t_r) on the box: the series
    exponential route that built Poisson.pgf before the product form."""
    out = TruncatedSeries.one(box, FLOAT)
    for r, rate in enumerate(dist.rates):
        argument = {(0,) * dist.dim: -rate}
        if box[r] >= 1:
            argument[unit(dist.dim, r)] = rate
        out = out * exp_truncated(TruncatedSeries(box, FLOAT, argument))
    return out


def multinomial_pgf_by_powers(dist, box):
    """(p_1 t_1 + ... + p_d t_d) ** trials on the box, by `trials`
    multiplications by the base: the route that built Multinomial.pgf before
    the product form."""
    base = {unit(dist.dim, r): p for r, p in enumerate(dist.probs) if box[r] >= 1}
    out = TruncatedSeries.one(box, EXACT)
    for _ in range(dist.trials):
        out = out * TruncatedSeries(box, EXACT, base)
    return out


@st.composite
def poisson_boxes(draw):
    rates = draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=3))
    return Poisson(rates), draw(st.tuples(*[st.integers(0, 12)] * len(rates)))


@st.composite
def multinomial_boxes(draw):
    """Boxes below and above the trial count, zero-probability cells and
    trials = 0."""
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any))
    dist = Multinomial(draw(st.integers(0, 8)), [Fraction(w, sum(weights)) for w in weights])
    return dist, draw(st.tuples(*[st.integers(0, 10)] * len(weights)))


class TestProductFormMatchesTheReplacedRoutes:
    @given(poisson_boxes())
    @settings(max_examples=150, deadline=None)
    @example((Poisson([0.3, 7.5]), (0, 12)))
    def test_poisson_pgf_is_bit_identical_to_the_exponentials(self, case):
        dist, box = case
        assert dist.pgf(box) == poisson_pgf_by_exponentials(dist, box)

    @given(multinomial_boxes())
    @settings(max_examples=150, deadline=None)
    @example((Multinomial(0, ["1/3", "2/3"]), (0, 0)))
    @example((Multinomial(5, ["0", "1/4", "3/4"]), (3, 10, 2)))
    def test_multinomial_pgf_is_exactly_the_power(self, case):
        dist, box = case
        assert dist.pgf(box) == multinomial_pgf_by_powers(dist, box)


class TestPoisson:
    def test_constant_coefficient_is_pmf_at_zero(self):
        g = Poisson([1.0]).pgf((6,))
        assert g.coefficient((0,)) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_cross_coefficient_is_product_of_pmfs(self):
        g = Poisson([1.0, 2.0]).pgf((4, 4))
        expected = math.exp(-3.0) * 1.0 * 2.0
        assert g.coefficient((1, 1)) == pytest.approx(expected, rel=1e-12)

    def test_every_coefficient_matches_the_pmf_formula(self):
        # the pgf is built by the rate**x / x! recurrence; the pmf method is
        # the log-space formula; they must meet
        dist = Poisson([0.7, 2.5])
        g = dist.pgf((6, 6))
        for j in itertools.product(range(7), repeat=2):
            assert g.coefficient(j) == pytest.approx(dist.pmf(j), rel=1e-10)

    def test_normalization_at_truncation_twenty(self):
        g = Poisson([1.0]).pgf((20,))
        assert abs(g.evaluate([1.0]) - 1.0) < 1e-9

    def test_normalization_at_default_truncation_with_reported_tail(self):
        dist = Poisson([1.0, 3.0, 0.25])
        box = dist.default_truncation()
        tail = dist.tail_mass(box)
        assert tail < 1e-12
        assert abs(dist.pgf().evaluate([1.0] * 3) - 1.0) <= tail + 1e-9

    def test_tail_mass_is_honest(self):
        # brute comparison on a deliberately harsh truncation
        dist = Poisson([4.0])
        reported = dist.tail_mass((3,))
        direct = 1.0 - sum(dist.pmf((j,)) for j in range(4))
        assert reported == pytest.approx(direct, rel=1e-12)
        assert reported > 1e-3

    def test_pmf_and_tail_mass_survive_large_rates(self):
        # rate**x and x! each overflow a float here, their ratio does not
        dist = Poisson([300.0])
        p = dist.pmf((300,))
        assert math.isfinite(p) and p > 0
        assert dist.pmf((301,)) / p == pytest.approx(300.0 / 301.0, rel=1e-12)
        tail = Poisson([300.0, 300.0]).tail_mass((400, 400))
        assert 0.0 <= tail <= 1.0

    def test_log_concavity_of_univariate_marginals(self):
        for rate in (0.3, 1.0, 2.7, 6.0):
            g = Poisson([rate]).pgf((12,))
            coeffs = [g.coefficient((j,)) for j in range(13)]
            for j in range(1, 12):
                assert coeffs[j] ** 2 >= coeffs[j - 1] * coeffs[j + 1] * (1 - 1e-12)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Poisson([])
        with pytest.raises(ValueError):
            Poisson([1.0, 0.0])
        with pytest.raises(ValueError):
            Poisson([-2.0])
        with pytest.raises(ValueError):
            Poisson([float("inf")])


class TestMultinomial:
    def test_binomial_square(self):
        g = Multinomial(2, ["1/2", "1/2"]).pgf()
        assert g == TruncatedSeries(
            (2, 2),
            EXACT,
            {
                (2, 0): Fraction(1, 4),
                (1, 1): Fraction(1, 2),
                (0, 2): Fraction(1, 4),
            },
        )

    def test_zero_trials_gives_one(self):
        g = Multinomial(0, ["1/3", "2/3"]).pgf()
        assert g == TruncatedSeries.one((0, 0))

    def test_three_cell_coefficient(self):
        g = Multinomial(3, ["1/3", "1/3", "1/3"]).pgf()
        assert g.coefficient((1, 1, 1)) == Fraction(6, 27)

    def test_support_is_exactly_the_simplex(self):
        rng = random.Random(23)
        for _ in range(20):
            d = rng.randint(1, 3)
            n = rng.randint(0, 6)
            weights = [rng.randint(1, 4) for _ in range(d)]
            probs = [Fraction(w, sum(weights)) for w in weights]
            g = Multinomial(n, probs).pgf()
            assert set(g.terms) == {
                j
                for j in itertools.product(range(n + 1), repeat=d)
                if sum(j) == n
            }

    def test_pgf_coefficients_are_pmf_values(self):
        dist = Multinomial(4, ["1/2", "1/3", "1/6"])
        g = dist.pgf()
        for j in g.terms:
            assert g.coefficient(j) == dist.pmf(j)

    def test_normalization_is_exact(self):
        g = Multinomial(5, ["2/5", "3/5"]).pgf()
        assert g.evaluate([1, 1]) == 1

    def test_decimal_strings_promote_literally(self):
        dist = Multinomial(1, ["0.3", "0.7"])
        assert dist.probs == (Fraction(3, 10), Fraction(7, 10))
        assert to_fraction(0.3) == Fraction(3, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            Multinomial(-1, ["1/2", "1/2"])
        with pytest.raises(ValueError):
            Multinomial(2, ["1/2", "1/3"])
        with pytest.raises(ValueError):
            Multinomial(2, ["3/2", "-1/2"])


class TestTable:
    def test_point_mass_at_origin(self):
        g = Table({(0,): 1}).pgf()
        assert g == TruncatedSeries.one((0,))

    def test_two_point_support(self):
        g = Table({(1, 0): "1/2", (0, 1): "1/2"}).pgf()
        assert g == TruncatedSeries(
            (1, 1), EXACT, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        )

    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            Table({(0,): "9/10"})

    def test_float_mode_mass_tolerance(self):
        Table({(0,): 0.5, (1,): 0.5 + 1e-13}, mode=FLOAT)
        with pytest.raises(ValueError):
            Table({(0,): 0.5, (1,): 0.5 + 1e-9}, mode=FLOAT)

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            Table({(0,): "3/2", (1,): "-1/2"})

    def test_non_finite_probability_rejected(self):
        # a NaN total passes the mass tolerance check, which compares false
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Table({(0,): bad, (1,): 1.0}, mode=FLOAT)

    def test_windowed_pgf_drops_outside_terms(self):
        dist = Table({(0,): "1/2", (3,): "1/2"})
        assert dist.pgf((1,)).terms == {(0,): Fraction(1, 2)}

    def test_pmf_lookup(self):
        dist = Table({(1, 2): "1/4", (0, 0): "3/4"})
        assert dist.pmf((1, 2)) == Fraction(1, 4)
        assert dist.pmf((2, 1)) == 0
        assert dist.support_bound() == (1, 2)

    def test_normalization_is_exact(self):
        dist = Table({(0, 1): "1/6", (2, 2): "1/3", (1, 0): "1/2"})
        assert dist.pgf().evaluate([1, 1]) == 1
