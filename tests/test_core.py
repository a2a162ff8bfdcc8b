import copy
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pgflift import (
    EXACT,
    FLOAT,
    ConditionalQuery,
    DimensionMismatch,
    Multinomial,
    Poisson,
    Table,
    TransformMatrix,
    TruncatedSeries,
    enumerate_fiber,
    fiber_degree_bounds,
    monomial_image,
)
from pgflift.core import fiber_sum


def test_single_row_image():
    A = TransformMatrix([[1, 1]])
    assert monomial_image(A, (2, 3)) == (5,)


def test_identity_image():
    A = TransformMatrix([[1, 0], [0, 1]])
    assert monomial_image(A, (4, 7)) == (4, 7)


def test_diagonal_scaling():
    A = TransformMatrix([[2, 0], [0, 3]])
    assert monomial_image(A, (1, 1)) == (2, 3)


def test_image_is_additive():
    rng = random.Random(7)
    for _ in range(50):
        m, d = rng.randint(1, 3), rng.randint(1, 4)
        A = TransformMatrix(
            [[rng.randint(0, 3) for _ in range(d)] for _ in range(m)]
        )
        j1 = tuple(rng.randint(0, 5) for _ in range(d))
        j2 = tuple(rng.randint(0, 5) for _ in range(d))
        combined = monomial_image(A, tuple(a + b for a, b in zip(j1, j2)))
        split = tuple(
            a + b for a, b in zip(monomial_image(A, j1), monomial_image(A, j2))
        )
        assert combined == split


def test_image_of_zero_is_zero():
    A = TransformMatrix([[1, 2], [3, 0]])
    assert monomial_image(A, (0, 0)) == (0, 0)


def test_zero_matrix_image_constant_zero():
    A = TransformMatrix([[0, 0, 0]])
    for j in [(0, 0, 0), (1, 2, 3), (5, 0, 9)]:
        assert monomial_image(A, j) == (0,)


def test_matrix_validation():
    with pytest.raises(ValueError):
        TransformMatrix([])
    with pytest.raises(ValueError):
        TransformMatrix([[]])
    with pytest.raises(ValueError):
        TransformMatrix([[1, -1]])
    with pytest.raises(ValueError):
        TransformMatrix([[1, 1.5]])
    with pytest.raises(DimensionMismatch):
        TransformMatrix([[1, 1], [1]])


def test_image_dimension_mismatch():
    A = TransformMatrix([[1, 1]])
    with pytest.raises(DimensionMismatch):
        monomial_image(A, (1, 2, 3))


def test_image_rejects_negative_exponents():
    A = TransformMatrix([[1, 1]])
    with pytest.raises(ValueError):
        monomial_image(A, (1, -2))


class TestFiberDegreeBounds:
    def test_single_row(self):
        A = TransformMatrix([[1, 2]])
        assert fiber_degree_bounds(A, (6,)) == [6, 3]

    def test_min_over_rows(self):
        # column 0 is capped by both rows; the tighter one wins
        A = TransformMatrix([[1, 0], [3, 1]])
        assert fiber_degree_bounds(A, (6, 7)) == [2, 7]

    def test_zero_column_is_unbounded(self):
        A = TransformMatrix([[0, 1]])
        assert fiber_degree_bounds(A, (4,)) == [None, 4]

    def test_bounds_really_cap_the_fiber(self):
        rng = random.Random(11)
        for _ in range(40):
            m, d = rng.randint(1, 2), rng.randint(1, 3)
            A = TransformMatrix(
                [[rng.randint(0, 2) for _ in range(d)] for _ in range(m)]
            )
            k = tuple(rng.randint(0, 8) for _ in range(m))
            caps = fiber_degree_bounds(A, k)
            for r, cap in enumerate(caps):
                if cap is None:
                    continue
                # one past the cap already overshoots some target coordinate
                j = tuple(cap + 1 if i == r else 0 for i in range(d))
                image = monomial_image(A, j)
                assert any(x > t for x, t in zip(image, k))


@st.composite
def lattice_cases(draw):
    """(matrix, target, bounds): entries 0..2, so zero rows and columns
    occur; bounds 0..6, often below what the target alone allows."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                         min_size=m, max_size=m))
    target = draw(st.tuples(*[st.integers(0, 8)] * m))
    bounds = draw(st.tuples(*[st.integers(0, 6)] * d))
    return TransformMatrix(rows), target, bounds


class TestCountFiber:
    @given(lattice_cases())
    @example((TransformMatrix([[1, 0]]), (3,), (5, 4)))  # zero column, capped
    @example((TransformMatrix([[1, 1]]), (6,), (2, 6)))  # cap below the fiber bound
    @example((TransformMatrix([[1, 1], [0, 0]]), (2, 1), (3, 3)))  # zero row
    @example((TransformMatrix([[2, 2]]), (3,), (3, 3)))  # parity: unreachable
    @settings(max_examples=300, deadline=None)
    def test_counts_the_oracle_enumeration(self, case):
        matrix, target, bounds = case
        units = [[1] * (b + 1) for b in bounds]
        assert fiber_sum(matrix, target, units) == len(
            enumerate_fiber(matrix, target, bounds)
        )


# (value, its repr as a frozen dataclass printed it, or None, hashable)
VALUES = [
    (TransformMatrix([[1, 2], [0, 1]]), "TransformMatrix(rows=((1, 2), (0, 1)))", True),
    (Poisson([1.5, 2]), "Poisson(rates=(1.5, 2.0))", True),
    (
        Multinomial(3, ["1/2", "0.5"]),
        "Multinomial(trials=3, probs=(Fraction(1, 2), Fraction(1, 2)))",
        True,
    ),
    (
        Table({(0, 1): "1/2", (1, 0): "1/2"}),
        "Table(entries={(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}, mode='exact')",
        False,
    ),
    (Table({(2,): 1.0}, FLOAT), "Table(entries={(2,): 1.0}, mode='float')", False),
    (
        ConditionalQuery((1,), (0, 1)),
        "ConditionalQuery(target=(1,), orders=(0, 1), support_bounds=None)",
        True,
    ),
    (
        ConditionalQuery([1], [0, 1], [2, 3]),
        "ConditionalQuery(target=(1,), orders=(0, 1), support_bounds=(2, 3))",
        True,
    ),
    (TruncatedSeries((2, 1), EXACT, {(1, 0): "1/3", (0, 1): 2}), None, False),
]


@pytest.mark.parametrize(
    "value, text, hashable", VALUES, ids=[type(v).__name__ for v, *_ in VALUES]
)
def test_values_round_trip_and_stay_frozen(value, text, hashable):
    clones = [pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)]
    for clone in clones:
        assert type(clone) is type(value) and clone == value
    name = type(value).__slots__[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before
    if text is not None:
        assert repr(value) == text
    if hashable:
        assert all(hash(clone) == hash(value) for clone in clones)
    else:
        with pytest.raises(TypeError):
            hash(value)
