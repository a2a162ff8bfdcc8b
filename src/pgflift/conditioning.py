"""Conditional laws of a count vector given an aggregated observation.

The observable is Y = image(X) for a nonnegative integer matrix: each target
coordinate is a weighted sum of source counts. Conditioning on Y equal to a
fixed target vector restricts X to a finite fiber, and everything here
(conditional pmf, conditional factorial moments, the Poisson and multinomial
closed forms) is a quotient of two coefficient extractions:

  numerator   coefficient of the target monomial after differentiating the
              joint generating function in the source block and setting the
              source variables to 1,
  denominator coefficient of the target monomial in the generating function
              of Y.

Factorial moments, not raw moments: the source block is differentiated
`orders[r]` times in variable r, which weights each fiber point j by the
falling factorial j_r * (j_r - 1) * ... * (j_r - orders[r] + 1).

All functions take the distribution of X, the matrix, and a target; the fiber
is never materialized by this module (the brute-force oracle does that, on an
entirely separate code path, for verification).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from typing import Optional, Sequence, Tuple

from .core import (
    EXACT,
    DimensionMismatch,
    EmptyFiber,
    TransformMatrix,
    UnboundedFiber,
    ZeroProbability,
    check_exponents,
    fiber_degree_bounds,
    monomial_image,
)
from .distributions import Distribution, Multinomial, Poisson
from .transform import joint_pgf, monomial_substitute


@dataclass(frozen=True)
class ConditionalQuery:
    """One conditioning request: observed target, factorial-moment orders,
    and an optional per-source-coordinate support cap.

    `support_bounds` restricts the fiber to outcomes below the cap. It is
    required whenever the fiber would otherwise be infinite (a source
    coordinate the matrix ignores, under a distribution with unbounded
    support); given voluntarily, it conditions on the capped event instead.
    """

    target: Tuple[int, ...]
    orders: Tuple[int, ...]
    support_bounds: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "target", check_exponents(self.target))
        object.__setattr__(self, "orders", check_exponents(self.orders))
        if self.support_bounds is not None:
            object.__setattr__(
                self, "support_bounds", check_exponents(self.support_bounds)
            )


def _check_shapes(dist, matrix, target, orders=None, support_bounds=None):
    if dist.dim != matrix.num_sources:
        raise DimensionMismatch(
            f"distribution has {dist.dim} coordinates, matrix expects "
            f"{matrix.num_sources}"
        )
    if len(target) != matrix.num_targets:
        raise DimensionMismatch(
            f"target has length {len(target)}, matrix has {matrix.num_targets} rows"
        )
    if orders is not None and len(orders) != matrix.num_sources:
        raise DimensionMismatch(
            f"orders have length {len(orders)}, expected {matrix.num_sources}"
        )
    if support_bounds is not None and len(support_bounds) != matrix.num_sources:
        raise DimensionMismatch(
            f"support bounds have length {len(support_bounds)}, expected "
            f"{matrix.num_sources}"
        )


def effective_source_bounds(
    dist: Distribution,
    matrix: TransformMatrix,
    target: Sequence[int],
    support_bounds: Optional[Sequence[int]] = None,
) -> tuple:
    """Smallest per-coordinate box certain to contain the whole fiber.

    Combines three caps: what the target alone forces (degree bounds of the
    fiber), the distribution's own support bound, and the caller's
    support_bounds. A coordinate with none of the three is genuinely
    unbounded and raises UnboundedFiber.
    """
    target = check_exponents(target)
    _check_shapes(dist, matrix, target, support_bounds=support_bounds)
    fiber = fiber_degree_bounds(matrix, target)
    natural = dist.support_bound()
    out = []
    for r in range(matrix.num_sources):
        caps = [
            c
            for c in (
                fiber[r],
                natural[r],
                None if support_bounds is None else support_bounds[r],
            )
            if c is not None
        ]
        if not caps:
            raise UnboundedFiber(
                f"source coordinate {r} is unconstrained: the matrix ignores it "
                "and the distribution has unbounded support; pass support_bounds"
            )
        out.append(min(caps))
    return tuple(out)


def _fiber_is_structurally_empty(matrix, target, bounds) -> bool:
    """True when image(j) == target has no solution with 0 <= j <= bounds."""

    def walk(r, residual):
        if r == matrix.num_sources:
            return all(x == 0 for x in residual)
        col = matrix.column(r)
        hi = bounds[r]
        for i, a in enumerate(col):
            if a > 0:
                hi = min(hi, residual[i] // a)
        for v in range(hi + 1):
            nxt = tuple(x - v * a for x, a in zip(residual, col))
            if walk(r + 1, nxt):
                return True
        return False

    return not walk(0, tuple(target))


def _raise_for_vanishing_denominator(matrix, target, bounds):
    if _fiber_is_structurally_empty(matrix, target, bounds):
        raise EmptyFiber(
            f"no nonnegative integer solution of image(j) == {tuple(target)} "
            f"within {tuple(bounds)}"
        )
    raise ZeroProbability(
        f"the event image(X) == {tuple(target)} has zero probability "
        "(solutions exist but carry no mass)"
    )


def pgf_of_Y(
    dist: Distribution,
    matrix: TransformMatrix,
    target: Sequence[int],
    support_bounds: Optional[Sequence[int]] = None,
) -> "TruncatedSeries":
    """Generating function of the observation Y = image(X) on the box [0, target].

    Poisson, and multinomials with no support cap below trials, expand their
    closed-form factors directly in the target box (`image_pgf`). Tables, and
    multinomials whose caps below trials couple the cells, push the source
    terms of `dist.pgf` through the matrix instead.

    Every retained coefficient is exact (up to the source truncation already
    implied by target and support_bounds): the coefficient at k <= target is
    P(Y = k), restricted to the capped support when support_bounds is given.
    """
    target = check_exponents(target)
    bounds = effective_source_bounds(dist, matrix, target, support_bounds)
    if isinstance(dist, Poisson):
        return dist.image_pgf(matrix, target, bounds)
    if isinstance(dist, Multinomial) and all(
        cap >= dist.trials for cap in support_bounds or ()
    ):
        return dist.image_pgf(matrix, target)
    # coverage is vouched for: `bounds` already contains every fiber point
    # of every k <= target (or the caller's deliberate cap)
    return monomial_substitute(
        dist.pgf(bounds), matrix, target, check_coverage=False
    )


def _fiber_block(dist, matrix, target, support_bounds):
    """Joint series terms split at the source/target seam, keeping only
    terms whose target block equals `target`. Returns (bounds, {j: P(X=j)})."""
    bounds = effective_source_bounds(dist, matrix, target, support_bounds)
    joint = joint_pgf(
        dist.pgf(bounds), matrix, bounds, target, check_coverage=False
    )
    d = matrix.num_sources
    hits = {e[:d]: c for e, c in joint.terms.items() if e[d:] == tuple(target)}
    return bounds, hits


def conditional_pmf(
    dist: Distribution,
    matrix: TransformMatrix,
    target: Sequence[int],
    support_bounds: Optional[Sequence[int]] = None,
) -> dict:
    """{outcome: P(X = outcome | Y = target)} over the fiber.

    Raises EmptyFiber when the target is unreachable, ZeroProbability when it
    is reachable only through zero-mass outcomes (which includes float-mode
    underflow of every fiber term).
    """
    target = check_exponents(target)
    bounds, hits = _fiber_block(dist, matrix, target, support_bounds)
    if not hits:
        _raise_for_vanishing_denominator(matrix, target, bounds)
    total = sum(hits.values())
    return {j: c / total for j, c in hits.items()}


def conditional_factorial_moment(
    dist: Distribution,
    matrix: TransformMatrix,
    query: ConditionalQuery,
) -> "Fraction | float":
    """Conditional factorial moment through the generating-function pipeline.

    Differentiates the joint series `query.orders[r]` times in source
    variable r, sets the source block to 1, extracts the target coefficient,
    and divides by P(Y = target). Works for any of the supported
    distributions; the closed forms below are fast paths for two of them.
    """
    target, orders = query.target, query.orders
    _check_shapes(dist, matrix, target, orders, query.support_bounds)
    bounds = effective_source_bounds(dist, matrix, target, query.support_bounds)
    joint = joint_pgf(
        dist.pgf(bounds), matrix, bounds, target, check_coverage=False
    )
    for r, order in enumerate(orders):
        if order:
            joint = joint.partial_derivative(r, order)
    d = matrix.num_sources
    numerator = sum(
        (c for e, c in joint.terms.items() if e[d:] == target),
        Fraction(0) if joint.mode == EXACT else 0.0,
    )
    denominator = pgf_of_Y(dist, matrix, target, query.support_bounds).coefficient(
        target
    )
    if denominator == 0:
        _raise_for_vanishing_denominator(matrix, target, bounds)
    return numerator / denominator


def _shifted_ratio(dist, shifted, prefactor, matrix, query):
    """prefactor * [z^(target - image(orders))] G_Y' / [z^target] G_Y, the
    shape both closed forms share. Y' = image(X') for `shifted`, the law of the
    source with the orders taken out, capped at support_bounds - orders. The
    ratio is exactly 0 when `shifted` is None or the shifted target or caps go
    negative."""
    target, orders, caps = query.target, query.orders, query.support_bounds
    denominator = pgf_of_Y(dist, matrix, target, caps).coefficient(target)
    if denominator == 0:
        bounds = effective_source_bounds(dist, matrix, target, caps)
        _raise_for_vanishing_denominator(matrix, target, bounds)
    shift = monomial_image(matrix, orders)
    reduced_target = tuple(k - a for k, a in zip(target, shift))
    reduced_caps = None if caps is None else tuple(b - s for b, s in zip(caps, orders))
    if shifted is None or min(reduced_target + (reduced_caps or ())) < 0:
        return 0 * denominator  # a zero of the coefficient type
    numerator = pgf_of_Y(shifted, matrix, reduced_target, reduced_caps)
    return prefactor * numerator.coefficient(reduced_target) / denominator


def poisson_conditional_moment(
    dist: Poisson,
    matrix: TransformMatrix,
    query: ConditionalQuery,
) -> float:
    """Closed form for independent Poisson sources.

    E[falling-factorial product | Y = target] equals
    prod_r rate_r**orders[r] * P(Y = target - image(orders)) / P(Y = target),
    two coefficient reads of target-box pgfs of the same Poisson law (the
    numerator's support caps, if any, lowered by `orders`). Exactly 0
    whenever any component of target - image(orders) is negative.
    """
    if not isinstance(dist, Poisson):
        raise TypeError("poisson_conditional_moment needs a Poisson distribution")
    _check_shapes(dist, matrix, query.target, query.orders, query.support_bounds)
    prefactor = 1.0
    for rate, s in zip(dist.rates, query.orders):
        prefactor *= rate**s
    return _shifted_ratio(dist, dist, prefactor, matrix, query)


def multinomial_conditional_moment(
    dist: Multinomial,
    matrix: TransformMatrix,
    query: ConditionalQuery,
) -> Fraction:
    """Closed form for a multinomial source, exact in rational arithmetic.

    Shifting the fiber by `orders` turns the factorial-moment numerator into
    trials!/(trials-total_order)! * prod_r p_r**orders[r] times the mass that
    Multinomial(trials - total_order) puts on the shifted target, with the
    support caps lowered by `orders`. Numerator mass and the denominator
    P(Y = target) are two coefficient reads of target-box pgfs. Returns
    exactly 0 when the orders sum past the trial count.
    """
    if not isinstance(dist, Multinomial):
        raise TypeError("multinomial_conditional_moment needs a Multinomial distribution")
    _check_shapes(dist, matrix, query.target, query.orders, query.support_bounds)
    total_order = sum(query.orders)
    shifted = (
        Multinomial(dist.trials - total_order, dist.probs)
        if total_order <= dist.trials
        else None
    )
    prefactor = Fraction(perm(dist.trials, total_order))
    for p, s in zip(dist.probs, query.orders):
        prefactor *= p**s
    return _shifted_ratio(dist, shifted, prefactor, matrix, query)


def closed_form_moment(
    dist: Distribution,
    matrix: TransformMatrix,
    query: ConditionalQuery,
):
    """Dispatch to the family's closed form, or None when there is none."""
    if isinstance(dist, Poisson):
        return poisson_conditional_moment(dist, matrix, query)
    if isinstance(dist, Multinomial):
        return multinomial_conditional_moment(dist, matrix, query)
    return None
