import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pgflift import (
    ConditionalQuery,
    EmptyFiber,
    Multinomial,
    Poisson,
    Table,
    TransformMatrix,
    UnboundedFiber,
    ZeroProbability,
    enumerate_fiber,
    monomial_image,
    oracle_conditional_moment,
    oracle_conditional_pmf,
)


@st.composite
def capped_lattices(draw):
    """(matrix, target, caps): entries 0..2, so zero rows and zero columns
    occur; a zero column is always capped, other caps are None or 0..4."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                         min_size=m, max_size=m))
    caps = tuple(
        draw(st.integers(0, 4) if not any(col) else st.none() | st.integers(0, 4))
        for col in zip(*rows)
    )
    target = draw(st.tuples(*[st.integers(0, 6)] * m))
    return TransformMatrix(rows), target, caps


class TestEnumerateFiber:
    @given(capped_lattices())
    @example((TransformMatrix([[1, 0]]), (2,), (None, 0)))  # capped zero column, cap 0
    @example((TransformMatrix([[0, 1], [0, 0]]), (1, 0), (3, None)))  # zero row
    @example((TransformMatrix([[1, 1, 0]]), (3,), (0, 0, 2)))  # caps 0 empty it
    # the table_verify shape
    @example((TransformMatrix([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]), (12, 24), (5,) * 5))
    @example((TransformMatrix([[1, 1]]), (8,), (4, 4)))  # a target at the reach: (4, 4) only
    # capped and uncapped coordinates mixed, a capped zero column among them
    @example((TransformMatrix([[1, 2, 0, 1], [0, 1, 0, 2]]), (6, 5), (None, 2, 1, None)))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_filtered_box_in_order(self, case):
        # the box: the cap, or the largest target entry, which no coordinate
        # with a positive column entry can exceed
        matrix, target, caps = case
        box = [max(target) if c is None else c for c in caps]
        want = [
            j
            for j in itertools.product(*(range(b + 1) for b in box))
            if monomial_image(matrix, j) == target
        ]
        assert enumerate_fiber(matrix, target, caps) == want

    def test_compositions_of_three(self):
        got = enumerate_fiber(TransformMatrix([[1, 1]]), (3,))
        assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_parity_obstruction(self):
        assert enumerate_fiber(TransformMatrix([[2, 2]]), (3,)) == []

    def test_zero_column_without_bound_is_rejected(self):
        with pytest.raises(UnboundedFiber):
            enumerate_fiber(TransformMatrix([[1, 0]]), (2,))

    def test_zero_column_with_bound(self):
        got = enumerate_fiber(TransformMatrix([[1, 0]]), (2,), (None, 2))
        assert got == [(2, 0), (2, 1), (2, 2)]

    def test_lexicographic_duplicate_free_and_on_target(self):
        rng = random.Random(77)
        for _ in range(30):
            d = rng.randint(1, 3)
            m = rng.randint(1, 2)
            matrix = TransformMatrix(
                [[rng.randint(0, 3) for _ in range(d)] for _ in range(m)]
            )
            if any(not any(col) for col in zip(*matrix.rows)):
                continue
            k = tuple(rng.randint(0, 6) for _ in range(m))
            fiber = enumerate_fiber(matrix, k)
            assert fiber == sorted(set(fiber))
            for j in fiber:
                assert monomial_image(matrix, j) == k

    def test_exhaustive_against_naive_box_scan(self):
        rng = random.Random(78)
        for _ in range(25):
            d = rng.randint(1, 3)
            m = rng.randint(1, 2)
            matrix = TransformMatrix(
                [[rng.randint(0, 3) for _ in range(d)] for _ in range(m)]
            )
            if any(not any(col) for col in zip(*matrix.rows)):
                continue
            k = tuple(rng.randint(0, 6) for _ in range(m))
            side = max(k, default=0)
            naive = [
                j
                for j in itertools.product(range(side + 1), repeat=d)
                if monomial_image(matrix, j) == k
            ]
            assert enumerate_fiber(matrix, k) == naive

    def test_fiber_size_is_a_binomial_coefficient(self):
        for d in range(1, 5):
            matrix = TransformMatrix([[1] * d])
            for k in range(9):
                fiber = enumerate_fiber(matrix, (k,))
                assert len(fiber) == math.comb(k + d - 1, d - 1)

    def test_respects_support_bounds(self):
        got = enumerate_fiber(TransformMatrix([[1, 1]]), (3,), (1, 3))
        assert got == [(0, 3), (1, 2)]


class TestOracleMoment:
    def test_split_mean(self):
        got = oracle_conditional_moment(
            Poisson([1.0, 2.0]), TransformMatrix([[1, 1]]), ConditionalQuery((5,), (1, 0))
        )
        assert got == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_point_mass(self):
        got = oracle_conditional_moment(
            Table({(1, 1): 1}),
            TransformMatrix([[1, 0], [0, 1]]),
            ConditionalQuery((1, 1), (1, 1)),
        )
        assert got == Fraction(1)

    def test_order_zero_is_one(self):
        f = oracle_conditional_moment(
            Poisson([0.5]), TransformMatrix([[1]]), ConditionalQuery((3,), (0,))
        )
        assert f == 1.0
        e = oracle_conditional_moment(
            Multinomial(3, ["1/3", "2/3"]),
            TransformMatrix([[1, 1]]),
            ConditionalQuery((3,), (0, 0)),
        )
        assert e == Fraction(1)

    def test_large_poisson_rates_do_not_overflow(self):
        got = oracle_conditional_moment(
            Poisson([300.0, 300.0]),
            TransformMatrix([[1, 1]]),
            ConditionalQuery((600,), (1, 0)),
        )
        assert got == pytest.approx(300.0, rel=1e-9)

    def test_errors_match_the_taxonomy(self):
        with pytest.raises(EmptyFiber):
            oracle_conditional_moment(
                Poisson([1.0, 1.0]),
                TransformMatrix([[2, 2]]),
                ConditionalQuery((3,), (0, 0)),
            )
        with pytest.raises(ZeroProbability):
            oracle_conditional_moment(
                Table({(0,): "1/2", (2,): "1/2"}),
                TransformMatrix([[1]]),
                ConditionalQuery((1,), (0,)),
            )
        with pytest.raises(UnboundedFiber):
            oracle_conditional_moment(
                Poisson([1.0, 1.0]),
                TransformMatrix([[1, 0]]),
                ConditionalQuery((2,), (0, 0)),
            )


class TestOraclePmf:
    def test_matches_direct_ratio(self):
        dist = Multinomial(4, ["1/2", "1/4", "1/4"])
        matrix = TransformMatrix([[1, 1, 0]])
        got = oracle_conditional_pmf(dist, matrix, (2,))
        fiber = enumerate_fiber(matrix, (2,), dist.support_bound())
        mass = sum((dist.pmf(j) for j in fiber), Fraction(0))
        expected = {j: dist.pmf(j) / mass for j in fiber if dist.pmf(j) > 0}
        assert got == expected
        assert sum(got.values(), Fraction(0)) == 1
