"""The acceptance gate: seven checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
every minimum instance count promised below is asserted, not aspirational.
"""

import math
import pathlib
import random
from contextlib import contextmanager
from fractions import Fraction

from pgflift import (
    ConditionalQuery,
    EXACT,
    FLOAT,
    Multinomial,
    Poisson,
    Table,
    TransformMatrix,
    TruncatedSeries,
    conditional_factorial_moment,
    conditional_pmf,
    exp_truncated,
    monomial_image,
    monomial_substitute,
    multinomial_conditional_moment,
    oracle_conditional_moment,
    poisson_conditional_moment,
)

from support import (
    add,
    attainable_targets,
    run_cli,
    fiber_sum_series,
    pushforward_case,
    random_matrix,
    random_probabilities,
    random_series,
)

DATA = pathlib.Path(__file__).parent / "data"


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def close(a, b, rel=1e-9, abs_tol=1e-12):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def test_criterion_1_substitution_matches_fiber_sums():
    rng = random.Random(1001)
    with criterion(1, "aggregation equals fiber summation, bit-exact"):
        for _ in range(110):
            series, matrix, target_bounds = pushforward_case(rng)
            pushed = monomial_substitute(series, matrix, target_bounds)
            assert pushed == fiber_sum_series(series, matrix, target_bounds)


def test_criterion_2_poisson_splitting():
    dist = Poisson([1.0, 2.0])
    matrix = TransformMatrix([[1, 1]])
    with criterion(2, "Poisson splitting at k=5 within 1e-9"):
        pmf = conditional_pmf(dist, matrix, (5,))
        assert set(pmf) == {(x, 5 - x) for x in range(6)}
        for x in range(6):
            binom = Fraction(math.comb(5, x)) * Fraction(1, 3) ** x * Fraction(2, 3) ** (5 - x)
            assert abs(pmf[(x, 5 - x)] - float(binom)) < 1e-9
        query = ConditionalQuery((5,), (1, 0))
        generic = conditional_factorial_moment(dist, matrix, query)
        closed = poisson_conditional_moment(dist, matrix, query)
        oracle = oracle_conditional_moment(dist, matrix, query)
        assert close(generic, 5.0 / 3.0)
        assert close(closed, generic) and close(oracle, generic) and close(closed, oracle)


def test_criterion_3_multinomial_closed_form_exact_agreement():
    rng = random.Random(3003)
    with criterion(3, "multinomial closed form exact on 50+ instances"):
        instances = 0
        while instances < 50:
            d = rng.randint(1, 3)
            m = rng.randint(1, 2)
            trials = rng.randint(1, 6)
            dist = Multinomial(trials, random_probabilities(rng, d, allow_zero=False))
            matrix = random_matrix(rng, m, d, allow_zero_columns=True)
            for k in attainable_targets(dist, matrix):
                s = tuple(rng.randint(0, 2) for _ in range(d))
                while sum(s) > trials:
                    s = tuple(rng.randint(0, 2) for _ in range(d))
                query = ConditionalQuery(k, s)
                closed = multinomial_conditional_moment(dist, matrix, query)
                generic = conditional_factorial_moment(dist, matrix, query)
                oracle = oracle_conditional_moment(dist, matrix, query)
                assert isinstance(closed, Fraction)
                assert closed == generic == oracle
            instances += 1
        assert instances >= 50


def test_criterion_4_vanishing_rule_is_exact_zero():
    rng = random.Random(4004)
    with criterion(4, "negative reduced target forces exact zero"):
        cases = 0
        while cases < 30:
            d = rng.randint(1, 3)
            m = rng.randint(1, 2)
            matrix = random_matrix(rng, m, d)
            dist = Poisson([rng.uniform(0.3, 2.0) for _ in range(d)])
            j = tuple(rng.randint(0, 1) for _ in range(d))
            k = monomial_image(matrix, j)
            s = tuple(rng.randint(1, 3) for _ in range(d))
            shift = monomial_image(matrix, s)
            if all(ki - si >= 0 for ki, si in zip(k, shift)):
                continue
            query = ConditionalQuery(k, s)
            closed = poisson_conditional_moment(dist, matrix, query)
            generic = conditional_factorial_moment(dist, matrix, query)
            assert closed == 0.0
            assert generic == 0.0
            cases += 1


def test_criterion_5_normalization():
    rng = random.Random(5005)
    with criterion(5, "pgfs and conditional pmfs are normalized"):
        for _ in range(10):
            d = rng.randint(1, 3)
            dist = Multinomial(rng.randint(0, 6), random_probabilities(rng, d))
            assert sum(dist.pgf().terms.values()) == 1
        for _ in range(10):
            d = rng.randint(1, 3)
            outcomes = {
                tuple(rng.randint(0, 3) for _ in range(d))
                for _ in range(rng.randint(1, 5))
            }
            weights = {j: rng.randint(1, 5) for j in outcomes}
            total = sum(weights.values())
            dist = Table({j: Fraction(w, total) for j, w in weights.items()})
            assert sum(dist.pgf().terms.values()) == 1
        for _ in range(8):
            d = rng.randint(1, 3)
            dist = Poisson([rng.uniform(0.2, 4.0) for _ in range(d)])
            box = dist.default_truncation()
            tail = dist.tail_mass(box)
            assert tail < 1e-9
            assert abs(sum(dist.pgf().terms.values(), 0.0) - 1.0) <= tail + 1e-12
        for _ in range(10):
            d = rng.randint(1, 3)
            dist = Multinomial(rng.randint(1, 6), random_probabilities(rng, d, allow_zero=False))
            matrix = random_matrix(rng, 1, d, allow_zero_columns=True)
            k = rng.choice(attainable_targets(dist, matrix))
            assert sum(conditional_pmf(dist, matrix, k).values(), Fraction(0)) == 1
        for _ in range(8):
            d = rng.randint(1, 2)
            dist = Poisson([rng.uniform(0.3, 2.0) for _ in range(d)])
            matrix = random_matrix(rng, 1, d)
            j = tuple(rng.randint(0, 3) for _ in range(d))
            k = monomial_image(matrix, j)
            values = conditional_pmf(dist, matrix, k).values()
            assert abs(math.fsum(values) - 1.0) < 1e-9


def test_criterion_6_series_ring_properties():
    rng = random.Random(6006)
    with criterion(6, "series ring laws over 200 randomized cases"):
        cases = 0
        for _ in range(80):
            n = rng.randint(1, 3)
            bounds = tuple(rng.randint(1, 4) for _ in range(n))

            def draw():
                terms = {}
                for _ in range(rng.randint(1, 5)):
                    e = tuple(rng.randint(0, b) for b in bounds)
                    terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                return TruncatedSeries(bounds, EXACT, terms)

            f, g, h = draw(), draw(), draw()
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * add(g, h) == add(f * g, f * h)
            cases += 1
        for _ in range(60):
            s = random_series(rng)
            j = tuple(rng.randint(0, b) for b in s.bounds)
            derived = s
            for r, order in enumerate(j):
                if order:
                    derived = derived.partial_derivative(r, order)
            scale = math.prod(math.factorial(order) for order in j)
            assert s.coefficient(j) == derived.coefficient((0,) * len(j)) / scale
            cases += 1
        for _ in range(60):
            n = rng.randint(1, 2)
            bounds = tuple(rng.randint(1, 4) for _ in range(n))
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, b) for b in bounds)
                if any(e):
                    terms[e] = rng.uniform(-1.2, 1.2)
            s = TruncatedSeries(bounds, FLOAT, terms)
            product = exp_truncated(s) * exp_truncated(s.scale(-1))
            one = TruncatedSeries.one(bounds, FLOAT)
            for e in set(product.terms) | {(0,) * n}:
                assert abs(product.coefficient(e) - one.coefficient(e)) < 1e-9
            cases += 1
        assert cases >= 200


def test_criterion_7_cli_determinism():
    with criterion(7, "machine output is byte-identical across runs"):
        for name, expected_code in (
            ("golden_multinomial", 0),
            ("golden_table", 1),
            ("golden_poisson", 0),
        ):
            args = ("--config", str(DATA / f"{name}.json"), "--verify")
            first = run_cli(*args)[:2]
            second = run_cli(*args)[:2]
            assert first == second
            assert first[0] == expected_code
            frozen = DATA / f"{name}.expected.jsonl"
            if frozen.exists():
                assert first[1] == frozen.read_bytes()
        assert (DATA / "golden_multinomial.expected.jsonl").exists()
        assert (DATA / "golden_table.expected.jsonl").exists()
