import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pgflift import (
    EXACT,
    FLOAT,
    ConditionalQuery,
    EmptyFiber,
    FiberError,
    Multinomial,
    Poisson,
    Table,
    TransformMatrix,
    TruncatedSeries,
    UnboundedFiber,
    ZeroProbability,
    closed_form_moment,
    conditional_factorial_moment,
    conditional_pmf,
    effective_source_bounds,
    enumerate_fiber,
    monomial_substitute,
    multinomial_conditional_moment,
    oracle_conditional_moment,
    oracle_conditional_pmf,
    pgf_of_Y,
    poisson_conditional_moment,
)

from pgflift import conditioning
from pgflift.conditioning import FiberSolve

from support import attainable_targets, moderate_cases, small_laws, small_queries


class TestPgfOfY:
    def test_poisson_sum_is_poisson(self):
        g = pgf_of_Y(Poisson([1.0, 1.0]), TransformMatrix([[1, 1]]), (2,))
        assert g.coefficient((2,)) == pytest.approx(math.exp(-2.0) * 2.0, rel=1e-9)

    def test_multinomial_total_is_constant(self):
        dist = Multinomial(3, ["1/3", "1/3", "1/3"])
        g = pgf_of_Y(dist, TransformMatrix([[1, 1, 1]]), (3,))
        assert g.coefficient((3,)) == Fraction(1)
        assert g.coefficient((2,)) == 0

    def test_identity_transform_returns_the_pgf(self):
        dist = Table({(1, 0): "1/2", (0, 1): "1/2"})
        g = pgf_of_Y(dist, TransformMatrix([[1, 0], [0, 1]]), (1, 1))
        assert g == TruncatedSeries(
            (1, 1), EXACT, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        )

    def test_coefficients_are_target_probabilities(self):
        # P(Y = k) from the pushed series vs direct summation over the fiber
        dist = Multinomial(4, ["1/2", "1/4", "1/4"])
        matrix = TransformMatrix([[1, 2, 0], [0, 1, 1]])
        g = pgf_of_Y(dist, matrix, (6, 4))
        for k in {(0, 4), (2, 1), (4, 2), (6, 4), (1, 1)}:
            fiber = enumerate_fiber(matrix, k, dist.support_bound())
            assert g.coefficient(k) == sum(
                (dist.pmf(j) for j in fiber), Fraction(0)
            )


@st.composite
def target_box_cases(draw):
    """(dist, matrix, target, support_bounds, orders): one small law and one
    query on it (see support.small_laws and support.small_queries)."""
    dist, matrix = draw(small_laws())
    return (dist, matrix) + draw(small_queries(dist, matrix))


class TestTargetBoxRoute:
    @given(target_box_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_pushing_the_source_pgf(self, case):
        dist, matrix, target, caps, _ = case
        got = pgf_of_Y(dist, matrix, target, caps)
        bounds = effective_source_bounds(dist, matrix, target, caps)
        want = monomial_substitute(
            dist.pgf(bounds), matrix, target, check_coverage=False
        )
        if isinstance(dist, Poisson):
            assert (got.bounds, got.mode) == (want.bounds, want.mode)
            for k in set(got.terms) | set(want.terms):
                assert got.terms.get(k, 0.0) == pytest.approx(
                    want.terms.get(k, 0.0), rel=1e-12, abs=0.0
                )
        else:
            assert got == want

    @given(target_box_cases().filter(lambda case: not isinstance(case[0], Table)))
    @settings(max_examples=150, deadline=None)
    def test_closed_forms_match_the_oracle(self, case):
        dist, matrix, target, caps, orders = case
        query = ConditionalQuery(target, orders, caps)
        try:
            want = oracle_conditional_moment(dist, matrix, query)
        except FiberError as err:
            with pytest.raises(type(err)):
                closed_form_moment(dist, matrix, query)
            return
        got = closed_form_moment(dist, matrix, query)
        if isinstance(dist, Multinomial):
            assert got == want
        else:
            _assert_close(got, want)

    def test_baseline_scale_multinomial(self):
        # N=30 over a 16x16 target box, all three routes
        dist = Multinomial(30, [Fraction(1, 4)] * 4)
        matrix = TransformMatrix([[1, 1, 0, 0], [0, 0, 1, 1]])
        g = pgf_of_Y(dist, matrix, (15, 15))
        assert g.coefficient((15, 15)) == Fraction(9694845, 67108864)
        query = ConditionalQuery((15, 15), (1, 1, 0, 0))
        closed = multinomial_conditional_moment(dist, matrix, query)
        assert closed == oracle_conditional_moment(dist, matrix, query)
        assert closed == conditional_factorial_moment(dist, matrix, query)
        assert closed == Fraction(105, 2)


def _fail_on_call(*args, **kwargs):
    raise AssertionError("the closed form built a source pgf or walked the fiber")


class TestClosedFormIsASeparateRoute:
    """The closed forms read the product form on the target box only: no
    source pgf and no walk over the fiber, so they share no sum with the
    generic leg. The oracle runs under the same guards."""

    @pytest.fixture(autouse=True)
    def forbid_source_series(self, monkeypatch):
        for cls in (Poisson, Multinomial):
            monkeypatch.setattr(cls, "pgf", _fail_on_call)
        for name in ("fiber_sum", "fiber_points"):
            monkeypatch.setattr(conditioning, name, _fail_on_call)

    @pytest.mark.parametrize(
        "closed_form", [closed_form_moment, multinomial_conditional_moment]
    )
    @pytest.mark.parametrize(
        "dist, rows, target, orders, caps",
        [
            # the Baseline query: 105/2 exactly
            (Multinomial(30, [Fraction(1, 4)] * 4), [[1, 1, 0, 0], [0, 0, 1, 1]],
             (15, 15), (1, 1, 0, 0), None),
            # the cap on the first cell cuts the fiber point (3, 0, 3)
            (Multinomial(6, ["1/2", "1/3", "1/6"]), [[1, 1, 0]], (3,), (1, 1, 0),
             (2, 3, 5)),
        ],
    )
    def test_multinomial(self, closed_form, dist, rows, target, orders, caps):
        matrix, query = TransformMatrix(rows), ConditionalQuery(target, orders, caps)
        want = oracle_conditional_moment(dist, matrix, query)
        assert closed_form(dist, matrix, query) == want
        if caps is None:
            assert want == Fraction(105, 2)

    @pytest.mark.parametrize(
        "closed_form", [closed_form_moment, poisson_conditional_moment]
    )
    @pytest.mark.parametrize(
        "dist, rows, target, orders, caps",
        [
            (Poisson([1.0, 2.0]), [[1, 1]], (5,), (1, 0), None),
            # a zero column needs a cap
            (Poisson([1.0, 2.0, 0.5]), [[1, 1, 0]], (4,), (1, 1, 1), (3, 4, 2)),
        ],
    )
    def test_poisson(self, closed_form, dist, rows, target, orders, caps):
        matrix, query = TransformMatrix(rows), ConditionalQuery(target, orders, caps)
        want = oracle_conditional_moment(dist, matrix, query)
        _assert_close(closed_form(dist, matrix, query), want)


class TestFiberSolve:
    @given(target_box_cases())
    @example(  # a zero-mass table entry on the fiber is no pmf row
        (Table({(1, 0): "1/2", (0, 1): "0", (2, 2): "1/2"}), TransformMatrix([[1, 1]]),
         (1,), None, (0, 0))
    )
    @settings(max_examples=300, deadline=None)
    def test_every_generic_read_matches_the_oracle(self, case):
        # exact laws exactly, Poisson within 1e-12 relative
        dist, matrix, target, caps, orders = case

        def same(value):
            if isinstance(dist, Poisson):
                return pytest.approx(value, rel=1e-12, abs=0.0)
            return value

        solve = FiberSolve(dist, matrix, target, caps)
        bounds = effective_source_bounds(dist, matrix, target, caps)
        fiber = enumerate_fiber(matrix, target, bounds)
        assert solve.fiber_size == len(fiber)
        zero = 0.0 if dist.mode == FLOAT else Fraction(0)
        assert solve.prob_y == same(sum((dist.pmf(j) for j in fiber), zero))
        query = ConditionalQuery(target, orders, caps)
        try:
            moment = oracle_conditional_moment(dist, matrix, query)
            pmf = oracle_conditional_pmf(dist, matrix, target, caps)
        except FiberError as err:
            for read in (lambda: solve.moment(orders), solve.pmf):
                with pytest.raises(type(err)):
                    read()
            return
        assert solve.moment(orders) == same(moment)
        got = solve.pmf()
        assert set(got) == set(pmf)
        for j, p in pmf.items():
            assert got[j] == same(p)

    def test_wide_multinomial_both_routes(self):
        # 8 cells in two blocks of 4: the fiber has 3,136,441 points
        dist = Multinomial(40, [Fraction(1, 8)] * 8)
        matrix = TransformMatrix([[1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1]])
        query = ConditionalQuery((20, 20), (1, 0, 1, 0, 0, 2, 0, 0))
        assert conditional_factorial_moment(dist, matrix, query) == Fraction(9025, 16)
        assert closed_form_moment(dist, matrix, query) == Fraction(9025, 16)

    def test_the_solve_keeps_no_series(self):
        dist = Table({(0, 0): "1/2", (1, 1): "1/2"})
        solve = FiberSolve(dist, TransformMatrix([[1, 1]]), (2,))
        assert solve.prob_y == Fraction(1, 2)
        assert solve.moment((1, 0)) == 1
        assert solve.pmf() == {(1, 1): 1}
        assert not [v for v in vars(solve).values() if isinstance(v, TruncatedSeries)]


class TestModerateScale:
    @given(moderate_cases())
    @settings(max_examples=60, deadline=None)
    def test_generic_closed_form_and_oracle_agree(self, case):
        # exact laws exactly, Poisson within 1e-12 relative; the oracle only
        # where the fiber is small enough to list
        dist, matrix, target, caps, orders = case

        def same(value):
            if isinstance(dist, Poisson):
                return pytest.approx(value, rel=1e-12, abs=0.0)
            return value

        solve = FiberSolve(dist, matrix, target, caps)
        try:
            generic = solve.moment(orders)
        except FiberError as err:
            with pytest.raises(type(err)):
                solve.closed_form(orders)
            return
        assert solve.closed_form(orders) == same(generic)
        if solve.fiber_size <= 2000:
            query = ConditionalQuery(target, orders, caps)
            assert oracle_conditional_moment(dist, matrix, query) == same(generic)


class TestConditionalPmf:
    def test_poisson_splitting_binomial(self):
        got = conditional_pmf(Poisson([1.0, 1.0]), TransformMatrix([[1, 1]]), (2,))
        assert set(got) == {(0, 2), (1, 1), (2, 0)}
        assert got[(0, 2)] == pytest.approx(0.25, rel=1e-12)
        assert got[(1, 1)] == pytest.approx(0.5, rel=1e-12)
        assert got[(2, 0)] == pytest.approx(0.25, rel=1e-12)

    def test_conditioning_on_sure_event_changes_nothing(self):
        dist = Multinomial(2, ["1/2", "1/2"])
        got = conditional_pmf(dist, TransformMatrix([[1, 1]]), (2,))
        assert got == {j: dist.pmf(j) for j in dist.pgf().terms}

    def test_parity_obstruction_is_empty_fiber(self):
        with pytest.raises(EmptyFiber):
            conditional_pmf(Poisson([1.0, 1.0]), TransformMatrix([[2, 2]]), (3,))

    def test_values_sum_to_one(self):
        rng = random.Random(91)
        for _ in range(20):
            n = rng.randint(1, 5)
            weights = [rng.randint(1, 4) for _ in range(3)]
            dist = Multinomial(n, [Fraction(w, sum(weights)) for w in weights])
            matrix = TransformMatrix(
                [[rng.randint(0, 2) for _ in range(3)] for _ in range(2)]
            )
            targets = attainable_targets(dist, matrix)
            k = rng.choice(sorted(targets))
            got = conditional_pmf(dist, matrix, k)
            assert sum(got.values(), Fraction(0)) == 1

    def test_float_mode_sums_to_one(self):
        got = conditional_pmf(
            Poisson([0.5, 2.0, 1.5]), TransformMatrix([[1, 1, 2]]), (5,)
        )
        assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-12)


class TestGenericMoment:
    def test_split_mean(self):
        dist = Poisson([1.0, 2.0])
        matrix = TransformMatrix([[1, 1]])
        got = conditional_factorial_moment(
            dist, matrix, ConditionalQuery((5,), (1, 0))
        )
        assert got == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_order_zero_is_exactly_one(self):
        # float mode: numerator and denominator are both the fiber block at
        # 1, one sum in one order, so the quotient is 1.0 to the last bit
        f = conditional_factorial_moment(
            Poisson([1.0, 2.0]), TransformMatrix([[1, 1]]), ConditionalQuery((5,), (0, 0))
        )
        assert f == 1.0
        e = conditional_factorial_moment(
            Multinomial(3, ["1/2", "1/2"]),
            TransformMatrix([[1, 1]]),
            ConditionalQuery((3,), (0, 0)),
        )
        assert e == Fraction(1)

    @given(target_box_cases())
    @example(
        (Poisson([1.391, 3.536, 3.924]), TransformMatrix([[1, 2, 2]]), (4,), None, (0, 0, 0))
    )
    @settings(max_examples=300, deadline=None)
    def test_order_zero_is_exactly_one_for_every_law(self, case):
        dist, matrix, target, caps, _ = case
        query = ConditionalQuery(target, (0,) * matrix.num_sources, caps)
        try:
            got = conditional_factorial_moment(dist, matrix, query)
        except FiberError:
            return
        assert type(got) is (float if dist.mode == FLOAT else Fraction)
        assert got == 1

    def test_order_above_reachable_count_vanishes(self):
        got = conditional_factorial_moment(
            Poisson([1.0, 1.0]), TransformMatrix([[1, 1]]), ConditionalQuery((1,), (2, 0))
        )
        assert got == 0.0


class TestPoissonClosedForm:
    def test_split_mean(self):
        got = poisson_conditional_moment(
            Poisson([1.0, 2.0]), TransformMatrix([[1, 1]]), ConditionalQuery((5,), (1, 0))
        )
        assert got == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_cross_moment_of_fair_split(self):
        got = poisson_conditional_moment(
            Poisson([1.0, 1.0]), TransformMatrix([[1, 1]]), ConditionalQuery((4,), (1, 1))
        )
        assert got == pytest.approx(3.0, rel=1e-9)

    def test_vanishing_rule_returns_exact_zero(self):
        got = poisson_conditional_moment(
            Poisson([1.0, 1.0]), TransformMatrix([[1, 1]]), ConditionalQuery((1,), (2, 0))
        )
        assert got == 0.0

    def test_rejects_non_poisson(self):
        with pytest.raises(TypeError):
            poisson_conditional_moment(
                Multinomial(2, ["1/2", "1/2"]),
                TransformMatrix([[1, 1]]),
                ConditionalQuery((2,), (1, 0)),
            )


class TestMultinomialClosedForm:
    def test_conditioning_on_a_coordinate(self):
        got = multinomial_conditional_moment(
            Multinomial(2, ["1/2", "1/2"]),
            TransformMatrix([[1, 0]]),
            ConditionalQuery((1,), (1, 0)),
        )
        assert got == Fraction(1)

    def test_three_cell_partial_observation(self):
        dist = Multinomial(3, ["1/3", "1/3", "1/3"])
        matrix = TransformMatrix([[1, 1, 0]])
        query = ConditionalQuery((2,), (1, 0, 0))
        closed = multinomial_conditional_moment(dist, matrix, query)
        generic = conditional_factorial_moment(dist, matrix, query)
        oracle = oracle_conditional_moment(dist, matrix, query)
        assert closed == generic == oracle

    def test_order_exceeding_trials_vanishes(self):
        got = multinomial_conditional_moment(
            Multinomial(2, ["1/2", "1/2"]),
            TransformMatrix([[1, 1]]),
            ConditionalQuery((2,), (2, 1)),
        )
        assert got == Fraction(0)

    def test_rejects_non_multinomial(self):
        with pytest.raises(TypeError):
            multinomial_conditional_moment(
                Poisson([1.0]), TransformMatrix([[1]]), ConditionalQuery((1,), (1,))
            )


class TestAgreement:
    def test_poisson_closed_vs_generic_vs_oracle_randomized(self):
        rng = random.Random(404)
        cases = 0
        while cases < 25:
            d = rng.randint(1, 3)
            m = rng.randint(1, 2)
            matrix = TransformMatrix(
                [[rng.randint(0, 2) for _ in range(d)] for _ in range(m)]
            )
            if any(not any(col) for col in zip(*matrix.rows)):
                continue
            dist = Poisson([rng.uniform(0.3, 2.5) for _ in range(d)])
            k = tuple(rng.randint(0, 8) for _ in range(m))
            if _fiber_empty(matrix, k):
                continue
            s = tuple(rng.randint(0, 2) for _ in range(d))
            query = ConditionalQuery(k, s)
            closed = poisson_conditional_moment(dist, matrix, query)
            generic = conditional_factorial_moment(dist, matrix, query)
            oracle = oracle_conditional_moment(dist, matrix, query)
            _assert_close(closed, generic)
            _assert_close(closed, oracle)
            cases += 1

    def test_multinomial_closed_vs_generic_vs_oracle_randomized(self):
        rng = random.Random(405)
        cases = 0
        while cases < 25:
            d = rng.randint(1, 3)
            m = rng.randint(1, 2)
            matrix = TransformMatrix(
                [[rng.randint(0, 2) for _ in range(d)] for _ in range(m)]
            )
            n = rng.randint(1, 6)
            weights = [rng.randint(1, 5) for _ in range(d)]
            dist = Multinomial(n, [Fraction(w, sum(weights)) for w in weights])
            targets = attainable_targets(dist, matrix)
            k = rng.choice(sorted(targets))
            s = tuple(rng.randint(0, 2) for _ in range(d))
            query = ConditionalQuery(k, s)
            closed = multinomial_conditional_moment(dist, matrix, query)
            generic = conditional_factorial_moment(dist, matrix, query)
            oracle = oracle_conditional_moment(dist, matrix, query)
            assert closed == generic == oracle
            cases += 1

    def test_weights_below_1e300_agree_on_every_route(self):
        # exp(-700) = 9.9e-305 and 700 exp(-700) = 6.9e-302 are values
        dist, matrix = Poisson([700.0]), TransformMatrix([[1]])
        query = ConditionalQuery((1,), (1,))
        assert conditional_factorial_moment(dist, matrix, query) == 1.0
        assert closed_form_moment(dist, matrix, query) == 1.0
        assert oracle_conditional_moment(dist, matrix, query) == 1.0

    def test_moment_is_fiber_sum_against_conditional_pmf(self):
        # the defining identity: E[prod falling factorials | Y=k] equals the
        # pmf-weighted sum of prod perm(j_r, s_r) over the fiber
        rng = random.Random(406)
        for _ in range(15):
            d = rng.randint(1, 3)
            n = rng.randint(1, 5)
            weights = [rng.randint(1, 4) for _ in range(d)]
            dist = Multinomial(n, [Fraction(w, sum(weights)) for w in weights])
            matrix = TransformMatrix([[rng.randint(0, 2) for _ in range(d)]])
            targets = attainable_targets(dist, matrix)
            k = rng.choice(sorted(targets))
            s = tuple(rng.randint(0, 2) for _ in range(d))
            pmf = conditional_pmf(dist, matrix, k)
            bysum = sum(
                (
                    p * math.prod(math.perm(j[r], s[r]) for r in range(d))
                    for j, p in pmf.items()
                ),
                Fraction(0),
            )
            got = conditional_factorial_moment(dist, matrix, ConditionalQuery(k, s))
            assert got == bysum

    def test_conditioning_on_x_itself(self):
        dist = Poisson([0.5, 1.5, 1.0])
        matrix = TransformMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        j = (2, 0, 3)
        for r in range(3):
            s = tuple(1 if i == r else 0 for i in range(3))
            got = conditional_factorial_moment(dist, matrix, ConditionalQuery(j, s))
            assert got == pytest.approx(float(j[r]), abs=1e-12)

    def test_splitting_law_matches_multinomial_pmf(self):
        rates = (0.5, 2.0, 1.5)
        total = sum(rates)
        k = 6
        got = conditional_pmf(Poisson(rates), TransformMatrix([[1, 1, 1]]), (k,))
        split = Multinomial(k, [Fraction(5, 40), Fraction(20, 40), Fraction(15, 40)])
        assert set(got) == set(split.pgf().terms)
        for j, p in got.items():
            assert p == pytest.approx(float(split.pmf(j)), rel=1e-9)


class TestErrorTaxonomy:
    def test_empty_fiber_is_structural(self):
        with pytest.raises(EmptyFiber):
            conditional_factorial_moment(
                Poisson([1.0]), TransformMatrix([[2]]), ConditionalQuery((3,), (0,))
            )

    def test_zero_probability_fiber_exists_but_has_no_mass(self):
        # the lattice reaches k=1 through j=1, but the table puts no mass there
        dist = Table({(0,): "1/2", (2,): "1/2"})
        with pytest.raises(ZeroProbability):
            conditional_pmf(dist, TransformMatrix([[1]]), (1,))
        with pytest.raises(ZeroProbability):
            conditional_factorial_moment(
                dist, TransformMatrix([[1]]), ConditionalQuery((1,), (1,))
            )

    def test_closed_and_generic_paths_raise_the_same_error(self):
        # total below the trial count: lattice points exist, mass does not
        dist = Multinomial(2, ["1/2", "1/2"])
        matrix = TransformMatrix([[1, 1]])
        q = ConditionalQuery((1,), (0, 0))
        with pytest.raises(ZeroProbability):
            multinomial_conditional_moment(dist, matrix, q)
        with pytest.raises(ZeroProbability):
            conditional_factorial_moment(dist, matrix, q)
        # parity obstruction: no lattice point at all
        odd = ConditionalQuery((3,), (0, 0))
        parity = TransformMatrix([[2, 2]])
        with pytest.raises(EmptyFiber):
            multinomial_conditional_moment(dist, parity, odd)
        with pytest.raises(EmptyFiber):
            conditional_factorial_moment(dist, parity, odd)

    @pytest.mark.parametrize(
        "dist, matrix, target, error, fiber_size",
        [
            # the golden table's k=[3] row: (1, 1) is on the lattice, massless
            (Table({(0, 0): "1/4", (1, 0): "1/4", (0, 1): "1/4", (2, 2): "1/4"}),
             TransformMatrix([[1, 2]]), (3,), ZeroProbability, 1),
            # Y counts a multinomial cell of probability 0
            (Multinomial(3, ["1/2", "0", "1/2"]), TransformMatrix([[0, 1, 0]]),
             (1,), ZeroProbability, 16),
            (Multinomial(3, ["1/2", "0", "1/2"]), TransformMatrix([[2, 2, 2]]),
             (3,), EmptyFiber, 0),
        ],
    )
    def test_lattice_count_tells_empty_from_massless(
        self, dist, matrix, target, error, fiber_size
    ):
        solve = FiberSolve(dist, matrix, target)
        assert (solve.fiber_size, solve.prob_y) == (fiber_size, 0)
        query = ConditionalQuery(target, (0,) * matrix.num_sources)
        reads = [
            lambda: conditional_factorial_moment(dist, matrix, query),
            lambda: conditional_pmf(dist, matrix, target),
            lambda: oracle_conditional_moment(dist, matrix, query),
        ]
        if isinstance(dist, Multinomial):
            reads.append(lambda: closed_form_moment(dist, matrix, query))
        for read in reads:
            with pytest.raises(error):
                read()

    def test_unbounded_fiber_needs_support_bounds(self):
        dist = Poisson([1.0, 1.0])
        matrix = TransformMatrix([[1, 0]])
        with pytest.raises(UnboundedFiber):
            conditional_pmf(dist, matrix, (2,))
        got = conditional_pmf(dist, matrix, (2,), support_bounds=(2, 3))
        assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-12)

    def test_effective_bounds_merge_all_three_caps(self):
        dist = Multinomial(5, ["1/2", "1/2"])
        matrix = TransformMatrix([[1, 0]])
        got = effective_source_bounds(dist, matrix, (2,), (9, 1))
        # fiber cap 2 beats trials 5 in the observed cell; user cap 1 beats
        # trials 5 in the free cell
        assert got == (2, 1)


class TestSupportBounds:
    def test_poisson_capped_closed_form_agrees(self):
        dist = Poisson([1.0, 2.0])
        matrix = TransformMatrix([[1, 1]])
        for s in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
            query = ConditionalQuery((4,), s, support_bounds=(2, 3))
            closed = poisson_conditional_moment(dist, matrix, query)
            generic = conditional_factorial_moment(dist, matrix, query)
            oracle = oracle_conditional_moment(dist, matrix, query)
            _assert_close(closed, generic)
            _assert_close(closed, oracle)

    def test_multinomial_capped_closed_form_agrees(self):
        # the cap excludes (2,0,2) from the fiber over k=2, so it changes
        # the conditional law, not just the enumeration
        dist = Multinomial(4, ["1/4", "1/2", "1/4"])
        matrix = TransformMatrix([[1, 1, 0]])
        for s in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 0)]:
            query = ConditionalQuery((2,), s, support_bounds=(1, 4, 4))
            closed = multinomial_conditional_moment(dist, matrix, query)
            generic = conditional_factorial_moment(dist, matrix, query)
            oracle = oracle_conditional_moment(dist, matrix, query)
            assert closed == generic == oracle
        mean = multinomial_conditional_moment(
            dist, matrix, ConditionalQuery((2,), (1, 0, 0), support_bounds=(1, 4, 4))
        )
        assert mean == Fraction(1, 2)

    def test_cap_changes_the_answer(self):
        # restricting X1 <= 1 shifts mass toward X2, so the conditional mean
        # of X1 must drop
        dist = Poisson([1.0, 1.0])
        matrix = TransformMatrix([[1, 1]])
        free = conditional_factorial_moment(
            dist, matrix, ConditionalQuery((4,), (1, 0))
        )
        capped = conditional_factorial_moment(
            dist, matrix, ConditionalQuery((4,), (1, 0), support_bounds=(1, 4))
        )
        assert capped < free


class TestDispatcher:
    def test_routes_by_family(self):
        q = ConditionalQuery((2,), (1, 0))
        matrix = TransformMatrix([[1, 1]])
        assert closed_form_moment(
            Poisson([1.0, 1.0]), matrix, q
        ) == poisson_conditional_moment(Poisson([1.0, 1.0]), matrix, q)
        dist = Multinomial(2, ["1/2", "1/2"])
        assert closed_form_moment(dist, matrix, q) == multinomial_conditional_moment(
            dist, matrix, q
        )
        table = Table({(1, 1): 1})
        assert closed_form_moment(table, matrix, q) is None


def _fiber_empty(matrix, target):
    try:
        return not enumerate_fiber(matrix, target)
    except UnboundedFiber:
        return False


def _assert_close(a, b):
    assert math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)
