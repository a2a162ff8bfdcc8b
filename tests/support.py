"""Generators for randomized test instances, shared across test modules.

Everything takes an explicit random.Random so suites are reproducible and
instance counts are exact (the acceptance gate promises minimum counts).
"""

from fractions import Fraction
import itertools
import os
import pathlib
import subprocess
import sys

from hypothesis import strategies as st

import pgflift
from pgflift import (
    EXACT,
    Multinomial,
    Poisson,
    Table,
    TransformMatrix,
    TruncatedSeries,
    enumerate_fiber,
    monomial_image,
)


def run_cli(*argv):
    """`python -m pgflift.cli *argv` in a subprocess that imports the same
    pgflift as the tests, also when pytest's pythonpath is what found it.
    Returns (exit code, stdout bytes, stderr bytes)."""
    src = str(pathlib.Path(pgflift.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pgflift.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, proc.stderr


def random_fraction(rng, lo=-5, hi=5, max_den=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_matrix(rng, num_targets, num_sources, entries=(0, 1, 2), allow_zero_columns=False):
    while True:
        rows = [
            [rng.choice(entries) for _ in range(num_sources)]
            for _ in range(num_targets)
        ]
        if allow_zero_columns or all(
            any(row[r] for row in rows) for r in range(num_sources)
        ):
            return TransformMatrix(rows)


def random_terms(rng, num_vars, degree, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, degree) for _ in range(num_vars))
        terms[e] = random_fraction(rng)
    return terms


def random_series(rng, num_vars=None, degree=6, max_terms=6):
    if num_vars is None:
        num_vars = rng.randint(1, 3)
    bounds = tuple(rng.randint(1, degree) for _ in range(num_vars))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, b) for b in bounds)
        terms[e] = random_fraction(rng)
    return TruncatedSeries(bounds, EXACT, terms)


def pushforward_case(rng, degree=6):
    """One randomized instance for the substitution-vs-fiber-sum comparison.

    Returns (series, matrix, target_bounds): an exact finite-support series
    whose box is wide enough that the coverage check passes, a matrix with no
    zero columns, and a target box to aggregate into.
    """
    d = rng.randint(1, 3)
    m = rng.randint(1, 2)
    matrix = random_matrix(rng, m, d)
    terms = random_terms(rng, d, degree)
    corner = tuple(
        sum(a * degree for a in row) for row in matrix.rows
    )
    target_bounds = tuple(rng.randint(0, min(c, 12)) for c in corner)
    from pgflift import fiber_degree_bounds

    needed = fiber_degree_bounds(matrix, target_bounds)
    bounds = tuple(max(degree, b) for b in needed)
    series = TruncatedSeries(bounds, EXACT, terms)
    return series, matrix, target_bounds


def fiber_sum_series(series, matrix, target_bounds):
    """The aggregate built the slow way: enumerate every fiber and add.

    Uses the brute-force enumerator (a code path disjoint from the series
    pipeline) plus direct dict lookups into the input's terms.
    """
    expected = {}
    for target in itertools.product(*(range(b + 1) for b in target_bounds)):
        total = Fraction(0)
        for j in enumerate_fiber(matrix, target, series.bounds):
            total += series.terms.get(j, Fraction(0))
        if total != 0:
            expected[target] = total
    return TruncatedSeries(target_bounds, EXACT, expected)


def random_probabilities(rng, dim, allow_zero=True):
    lo = 0 if allow_zero else 1
    weights = [rng.randint(lo, 5) for _ in range(dim)]
    if sum(weights) == 0:
        weights[rng.randrange(dim)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def attainable_targets(dist, matrix):
    """Images of every positive-mass outcome of a finite-support distribution."""
    support = []
    caps = dist.support_bound()
    for j in itertools.product(*(range(c + 1) for c in caps)):
        if dist.pmf(j) > 0:
            support.append(j)
    return sorted({monomial_image(matrix, j) for j in support})


@st.composite
def small_laws(draw):
    """(dist, matrix) over small shapes, with zero columns, zero rows,
    zero-probability cells and trials=0."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    matrix = TransformMatrix(
        draw(st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d),
                      min_size=m, max_size=m))
    )
    family = draw(st.sampled_from(["poisson", "multinomial", "table"]))
    if family == "poisson":
        dist = Poisson(draw(st.lists(st.floats(0.1, 4.0), min_size=d, max_size=d)))
    elif family == "multinomial":
        weights = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)
                       .filter(any))
        dist = Multinomial(
            draw(st.integers(0, 5)), [Fraction(w, sum(weights)) for w in weights]
        )
    else:
        outcomes = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * d), st.integers(0, 3),
            min_size=1, max_size=6,
        ).filter(lambda e: any(e.values())))
        total = sum(outcomes.values())
        dist = Table({j: Fraction(w, total) for j, w in outcomes.items()})
    return dist, matrix


@st.composite
def small_queries(draw, dist, matrix):
    """(target, support_bounds, orders) for a law from small_laws, with caps
    below, at and above the trial count. Zero columns of a Poisson get a cap."""
    d, m = matrix.num_sources, matrix.num_targets
    caps = draw(st.none() | st.tuples(*[st.integers(0, 6)] * d))
    if caps is None and isinstance(dist, Poisson) and any(not any(col) for col in zip(*matrix.rows)):
        caps = draw(st.tuples(*[st.integers(0, 6)] * d))
    target = draw(st.tuples(*[st.integers(0, 6)] * m))
    orders = draw(st.tuples(*[st.integers(0, 2)] * d))
    return target, caps, orders


@st.composite
def moderate_cases(draw):
    """(dist, matrix, target, support_bounds, orders) past toy scale: a
    multinomial with N in 10..24 over 4 to 6 cells, or Poisson rates in
    5..40 over 2 or 3 cells, seen through two rows with entries 0-2. The
    target is the image of a drawn point; caps near that point (some below
    it) come in about half the cases, and a Poisson zero column always gets
    one."""
    poisson = draw(st.booleans())
    d = draw(st.integers(2, 3) if poisson else st.integers(4, 6))
    matrix = TransformMatrix(draw(st.lists(
        st.lists(st.integers(0, 2), min_size=d, max_size=d), min_size=2, max_size=2)))
    if poisson:
        dist = Poisson(draw(st.lists(st.floats(5.0, 40.0), min_size=d, max_size=d)))
        point = [draw(st.integers(0, round(1.5 * rate))) for rate in dist.rates]
    else:
        trials = draw(st.integers(10, 24))
        weights = draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
        dist = Multinomial(trials, [Fraction(w, sum(weights)) for w in weights])
        cuts = sorted(draw(st.lists(st.integers(0, trials), min_size=d - 1, max_size=d - 1)))
        point = [b - a for a, b in zip([0] + cuts, cuts + [trials])]
    caps = draw(st.none() | st.tuples(*[st.integers(max(x - 2, 0), x + 3) for x in point]))
    if caps is None and poisson and any(not any(col) for col in zip(*matrix.rows)):
        caps = tuple(x + 3 for x in point)
    orders = draw(st.tuples(*[st.integers(0, 2)] * d))
    return dist, matrix, monomial_image(matrix, point), caps, orders
