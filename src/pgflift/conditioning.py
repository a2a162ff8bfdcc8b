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

`FiberSolve` builds one query's series once; everything here reads them.
The fiber is counted, never listed (the brute-force oracle lists it, on a
separate code path, for verification).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    count_fiber,
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


class FiberSolve:
    """The series of one query (a target and optional support caps), each
    built at most once, on first use: `source` is dist.pgf on the effective
    box (released once `joint` and `g_y` exist), `joint` tags its terms with
    their images for the generic moment and the pmf, and `g_y` is the pgf of
    Y on [0, target], whose coefficient `prob_y` = P(Y = target) is every
    denominator. `fiber_size` counts the fiber. One joint series answers all
    orders. The effective box holds every fiber point of every k <= target
    (or the caller's cap), so no build re-checks coverage."""

    def __init__(
        self,
        dist: Distribution,
        matrix: TransformMatrix,
        target: Sequence[int],
        support_bounds: Optional[Sequence[int]] = None,
    ):
        self.dist, self.matrix, self.support_bounds = dist, matrix, support_bounds
        self.target = check_exponents(target)
        self.bounds = effective_source_bounds(dist, matrix, self.target, support_bounds)

    @cached_property
    def fiber_size(self) -> int:
        return count_fiber(self.matrix, self.target, self.bounds)

    @cached_property
    def source(self) -> "TruncatedSeries":
        return self.dist.pgf(self.bounds)

    @cached_property
    def joint(self) -> "TruncatedSeries":
        joint = joint_pgf(
            self.source, self.matrix, self.bounds, self.target, check_coverage=False
        )
        if "g_y" in self.__dict__:
            del self.source  # both of its readers are built
        return joint

    @cached_property
    def g_y(self) -> "TruncatedSeries":
        """Poisson, and multinomials with no cap below trials, expand their
        factors in the target box (`image_pgf`); Tables, and multinomials
        whose caps couple the cells, push the terms of `source` instead."""
        dist, matrix, target = self.dist, self.matrix, self.target
        if isinstance(dist, Poisson):
            return dist.image_pgf(matrix, target, self.bounds)
        if isinstance(dist, Multinomial) and all(
            cap >= dist.trials for cap in self.support_bounds or ()
        ):
            return dist.image_pgf(matrix, target)
        return monomial_substitute(self.source, matrix, target, check_coverage=False)

    @cached_property
    def prob_y(self):
        return self.g_y.coefficient(self.target)

    def _raise_vanishing(self):
        if self.fiber_size == 0:
            raise EmptyFiber(
                f"no nonnegative integer solution of image(j) == {self.target} "
                f"within {self.bounds}"
            )
        raise ZeroProbability(
            f"the event image(X) == {self.target} has zero probability "
            "(solutions exist but carry no mass)"
        )

    def _denominator(self):
        if self.prob_y == 0:
            self._raise_vanishing()
        return self.prob_y

    def moment(self, orders: Sequence[int]):
        """See conditional_factorial_moment."""
        _check_shapes(self.dist, self.matrix, self.target, orders)
        denominator = self._denominator()  # first: g_y may need the source
        joint = self.joint
        for r, order in enumerate(orders):
            if order:
                joint = joint.partial_derivative(r, order)
        d = self.matrix.num_sources
        numerator = sum(
            (c for e, c in joint.terms.items() if e[d:] == self.target),
            Fraction(0) if joint.mode == EXACT else 0.0,
        )
        return numerator / denominator

    def closed_form(self, orders: Sequence[int]):
        """prefactor * [z^(target - image(orders))] G_Y' / [z^target] G_Y, for
        the shifted law Y' of poisson_conditional_moment or
        multinomial_conditional_moment; None for a family without one."""
        dist = self.dist
        _check_shapes(dist, self.matrix, self.target, orders)
        if isinstance(dist, Poisson):
            shifted, prefactor = dist, 1.0
            for rate, s in zip(dist.rates, orders):
                prefactor *= rate**s
        elif isinstance(dist, Multinomial):
            total_order = sum(orders)
            shifted = (
                Multinomial(dist.trials - total_order, dist.probs)
                if total_order <= dist.trials
                else None
            )
            prefactor = Fraction(perm(dist.trials, total_order))
            for p, s in zip(dist.probs, orders):
                prefactor *= p**s
        else:
            return None
        denominator = self._denominator()
        shift = monomial_image(self.matrix, orders)
        reduced_target = tuple(k - a for k, a in zip(self.target, shift))
        caps = self.support_bounds
        reduced_caps = None if caps is None else tuple(b - s for b, s in zip(caps, orders))
        if shifted is None or min(reduced_target + (reduced_caps or ())) < 0:
            return 0 * denominator  # a zero of the coefficient type
        numerator = pgf_of_Y(shifted, self.matrix, reduced_target, reduced_caps)
        return prefactor * numerator.coefficient(reduced_target) / denominator

    def pmf(self) -> dict:
        """See conditional_pmf: the target block of the joint series, normalized."""
        d = self.matrix.num_sources
        hits = {e[:d]: c for e, c in self.joint.terms.items() if e[d:] == self.target}
        if not hits:
            self._raise_vanishing()
        total = sum(hits.values())
        return {j: c / total for j, c in hits.items()}


def pgf_of_Y(
    dist: Distribution,
    matrix: TransformMatrix,
    target: Sequence[int],
    support_bounds: Optional[Sequence[int]] = None,
) -> "TruncatedSeries":
    """Generating function of Y = image(X) on the box [0, target]: the
    coefficient at k is P(Y = k), on the capped support if support_bounds is
    given. `FiberSolve.g_y` builds it."""
    return FiberSolve(dist, matrix, target, support_bounds).g_y


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
    return FiberSolve(dist, matrix, target, support_bounds).pmf()


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
    solve = FiberSolve(dist, matrix, query.target, query.support_bounds)
    return solve.moment(query.orders)


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
    return closed_form_moment(dist, matrix, query)


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
    return closed_form_moment(dist, matrix, query)


def closed_form_moment(
    dist: Distribution,
    matrix: TransformMatrix,
    query: ConditionalQuery,
):
    """Dispatch to the family's closed form, or None when there is none."""
    if not isinstance(dist, (Poisson, Multinomial)):
        return None
    solve = FiberSolve(dist, matrix, query.target, query.support_bounds)
    return solve.closed_form(query.orders)
