"""Conditional laws of a count vector given an aggregated observation.

The observable is Y = image(X) for a nonnegative integer matrix: each target
coordinate is a weighted sum of source counts. Conditioning on Y equal to a
fixed target vector k restricts X to a finite fiber. Tagging each source
variable with its image, G(t, z) = G_X(t_1 z^(column 1), ..., t_d z^(column d)),
every conditional quantity here is a read of one d-variable series, the
fiber block B(t) = [z^k] G(t, z), which holds the pgf terms of the fiber:

  P(Y = k)                     B(1),
  conditional pmf              the terms of B, divided by B(1),
  conditional factorial moment the derivative of B of the given orders,
                               at t = 1, divided by B(1).

Factorial moments, not raw moments: B is differentiated `orders[r]` times in
variable r, which weights each fiber point j by the falling factorial
j_r * (j_r - 1) * ... * (j_r - orders[r] + 1). The Poisson and multinomial
closed forms instead read two coefficients of the family's product form on
the target box (`distributions.product_form`), a separate route.

`FiberSolve` builds one query's block once; all but the closed forms read
it. The fiber is counted, never listed (the brute-force oracle lists it, on
a separate code path, for verification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .core import (
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
from .distributions import Distribution, Multinomial, Poisson, product_form, trials_slice
from .series import TruncatedSeries
from .transform import monomial_substitute


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
    """One query (a target and optional support caps), answered from one
    series built on first use: the fiber block B(t) = [z^target] G(t, z) of
    G(t, z) = G_X(t_1 z^(column 1), ..., t_d z^(column d)), i.e. the terms of
    dist.pgf on the effective box whose image is the target. B(1) is
    `prob_y` = P(Y = target), the generic denominator; B's derivatives at 1
    are the generic numerators; its terms are the conditional pmf. The
    closed form reads the family's product form instead. `fiber_size`
    counts the fiber. The effective box holds every fiber point (or the
    caller's cap), so the build needs no coverage check."""

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
    def block(self) -> TruncatedSeries:
        source = self.dist.pgf(self.bounds)
        fiber = {
            j: c
            for j, c in source.terms.items()
            if monomial_image(self.matrix, j) == self.target
        }
        return TruncatedSeries(self.bounds, source.mode, fiber)

    @cached_property
    def prob_y(self):
        return self.block.evaluate((1,) * self.matrix.num_sources)

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
        """See conditional_factorial_moment: the derivative of B of the given
        orders, at 1, over B(1)."""
        _check_shapes(self.dist, self.matrix, self.target, orders)
        denominator = self._denominator()
        numerator = self.block
        for r, order in enumerate(orders):
            numerator = numerator.partial_derivative(r, order)
        return numerator.evaluate((1,) * len(orders)) / denominator

    def closed_form(self, orders: Sequence[int]):
        """prod_r c_r**orders[r] * [z^(m - A' orders)] F' / [z^m] F for the
        family's product form F (c the rates or the probs; a multinomial
        appends an all-ones row to A and the trials to m), F' cut at the caps
        lowered by `orders`; None for a family without one. See
        poisson_conditional_moment and multinomial_conditional_moment."""
        dist, matrix, caps = self.dist, self.matrix, self.support_bounds
        _check_shapes(dist, matrix, self.target, orders)
        if isinstance(dist, Poisson):
            coeffs, m, shift = dist.rates, self.target, monomial_image(matrix, orders)
        elif isinstance(dist, Multinomial):
            coeffs, m = dist.probs, self.target + (dist.trials,)
            shift = monomial_image(matrix, orders) + (sum(orders),)
        else:
            return None
        whole = product_form(dist, matrix, self.target, self.bounds)
        denominator = whole.coefficient(m)
        if denominator == 0:
            self._raise_vanishing()
        reduced_m = tuple(a - b for a, b in zip(m, shift))
        reduced_caps = () if caps is None else tuple(b - s for b, s in zip(caps, orders))
        if min(reduced_m + reduced_caps) < 0:
            return 0 * denominator  # a zero of the coefficient type
        numerator = whole if caps is None else product_form(
            dist, matrix, self.target, tuple(map(min, self.bounds, reduced_caps)))
        prefactor = math.prod(c**s for c, s in zip(coeffs, orders))
        return prefactor * numerator.coefficient(reduced_m) / denominator

    def pmf(self) -> dict:
        """See conditional_pmf: the terms of B over B(1)."""
        total = self._denominator()
        return {j: c / total for j, c in self.block.terms.items()}


def pgf_of_Y(
    dist: Distribution,
    matrix: TransformMatrix,
    target: Sequence[int],
    support_bounds: Optional[Sequence[int]] = None,
) -> TruncatedSeries:
    """Generating function of Y = image(X) on the box [0, target]: the
    coefficient at k is P(Y = k), on the capped support if support_bounds is
    given. Poisson and multinomial laws expand their product form in the
    target box, each factor cut at the effective source bound (a multinomial
    then keeps its `trials` slice); Tables push the terms of dist.pgf on the
    effective box."""
    target = check_exponents(target)
    bounds = effective_source_bounds(dist, matrix, target, support_bounds)
    if isinstance(dist, Poisson):
        return product_form(dist, matrix, target, bounds)
    if isinstance(dist, Multinomial):
        return trials_slice(product_form(dist, matrix, target, bounds), dist.trials)
    return monomial_substitute(dist.pgf(bounds), matrix, target, check_coverage=False)


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

    Differentiates the fiber block `query.orders[r]` times in source
    variable r, evaluates it at 1 and divides by P(Y = target), the block's
    value at 1. Works for any of the supported distributions; the closed
    forms below are fast paths for two of them.
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
    prod_r rate_r**orders[r] * P(Y = target - image(orders)) / P(Y = target):
    two coefficient reads of the product form on the target box (with the
    support caps, if any, lowered by `orders` for the numerator). Exactly 0
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

    The multinomial is independent Poisson(p_r) counts conditioned on their
    total, so shifting the fiber by `orders` turns the factorial-moment
    numerator into prod_r p_r**orders[r] times the product form read at
    (target - image(orders), trials - total_order), with the support caps
    lowered by `orders`; the denominator is the same series read at
    (target, trials). Returns exactly 0 when the orders sum past the trial
    count.
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
