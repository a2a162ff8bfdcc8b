"""Conditional laws of a count vector given an aggregated observation.

The observable is Y = image(X) for a nonnegative integer matrix. Conditioning
on Y = k restricts X to a finite fiber. The paper reads every conditional
quantity off one coefficient, [z^k] of the pgf with each source variable
tagged by its image, which is a sum over that fiber:

  P(Y = k)                      sum of P(X = j),
  conditional factorial moment  sum of P(X = j) prod_r perm(j_r, s_r),
                                over P(Y = k),
  conditional pmf               each P(X = j), over P(Y = k).

`FiberSolve` takes these sums without any series. A Poisson or multinomial
law enters through its one product-form description
(`distributions.product_terms`), and both of its routes read the same
weights: the walk over the fiber, and the closed forms, a separate route
that reads two coefficients of the product form on the target box. The
oracle lists the fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .core import (
    EXACT, DimensionMismatch, EmptyFiber, TransformMatrix, UnboundedFiber, ZeroProbability,
    check_exponents, fiber_degree_bounds, fiber_points, fiber_sum, monomial_image, within_box,
)
from .distributions import (
    Distribution, Multinomial, Poisson, Table, image_pgf, product_form, product_terms,
)
from .series import TruncatedSeries


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
    d = matrix.num_sources
    if dist.dim != d:
        raise DimensionMismatch(f"distribution has {dist.dim} coordinates, matrix expects {d}")
    if len(target) != matrix.num_targets:
        raise DimensionMismatch(
            f"target has length {len(target)}, matrix has {matrix.num_targets} rows"
        )
    for what, given in (("orders", orders), ("support bounds", support_bounds)):
        if given is not None and len(given) != d:
            raise DimensionMismatch(f"{what} have length {len(given)}, expected {d}")


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
    given = support_bounds or (None,) * matrix.num_sources
    out = []
    for r, limits in enumerate(zip(fiber_degree_bounds(matrix, target),
                                   dist.support_bound(), given)):
        caps = [c for c in limits if c is not None]
        if not caps:
            raise UnboundedFiber(
                f"source coordinate {r} is unconstrained: the matrix ignores it "
                "and the distribution has unbounded support; pass support_bounds"
            )
        out.append(min(caps))
    return tuple(out)


class FiberSolve:
    """One query (a target and optional support caps), read off its fiber in
    the effective box. A Poisson or multinomial law walks the residuals
    (`core.fiber_sum`) with its product-form description; a table keeps its
    entries on the fiber. `fiber_size` is the same walk with unit weights
    on the matrix alone. `closed_form` is the separate target-box route.
    """

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
        return fiber_sum(self.matrix, self.target, [[1] * (b + 1) for b in self.bounds])

    @cached_property
    def _walk(self) -> tuple:
        """The law's product form in the effective box: (matrix, target,
        weights, start), see `distributions.product_terms`."""
        return product_terms(self.dist, self.matrix, self.target, self.bounds)

    @cached_property
    def _table_fiber(self) -> list:
        # the Table constructor checked every outcome, so no image re-checks it
        return [(j, p) for j, p in self.dist.entries.items() if within_box(j, self.bounds)
                and self.matrix.image(j) == self.target]

    def _fiber_sum(self, orders):
        """Sum over the fiber of P(X = j) * prod_r perm(j_r, orders[r]). At
        order 0 every factor perm(x, 0) = 1 is still applied, so the sum
        repeats the operations of P(Y = target) bit for bit."""
        if isinstance(self.dist, Table):
            total = Fraction(0) if self.dist.mode == EXACT else 0.0
            for j, p in self._table_fiber:
                total += math.prod(map(math.perm, j, orders), start=p)
            return total
        matrix, target, weights, start = self._walk
        tables = [[w * math.perm(x, s) for x, w in enumerate(ws)]
                  for ws, s in zip(weights, orders)]
        return fiber_sum(matrix, target, tables, start)

    @cached_property
    def prob_y(self):
        return self._fiber_sum((0,) * self.matrix.num_sources)

    def _nonzero(self, denominator):
        """`denominator`, unless it is 0: then the FiberError that says why."""
        if denominator != 0:
            return denominator
        if self.fiber_size == 0:
            raise EmptyFiber(
                f"no nonnegative integer solution of image(j) == {self.target} "
                f"within {self.bounds}"
            )
        raise ZeroProbability(
            f"the event image(X) == {self.target} has zero probability "
            "(solutions exist but carry no mass)"
        )

    def moment(self, orders: Sequence[int]):
        """See conditional_factorial_moment."""
        _check_shapes(self.dist, self.matrix, self.target, orders)
        denominator = self._nonzero(self.prob_y)
        return self._fiber_sum(orders) / denominator

    def closed_form(self, orders: Sequence[int]):
        """prod_r c_r**orders[r] * [z^(m - A' orders)] F' / [z^m] F for the
        product form F of the solve's description (A' and m its matrix and
        target, c the rates or the probs), F' with each weight list cut at
        the cap lowered by `orders`; None for a family without one. See
        poisson_conditional_moment and multinomial_conditional_moment."""
        dist, caps = self.dist, self.support_bounds
        _check_shapes(dist, self.matrix, self.target, orders)
        if isinstance(dist, Table):
            return None
        coeffs = dist.rates if isinstance(dist, Poisson) else dist.probs
        matrix, m, weights, _ = self._walk
        whole = product_form(matrix, m, weights, dist.mode)
        denominator = self._nonzero(whole.coefficient(m))
        reduced_m = tuple(a - b for a, b in zip(m, monomial_image(matrix, orders)))
        reduced_caps = () if caps is None else tuple(b - s for b, s in zip(caps, orders))
        if min(reduced_m + reduced_caps) < 0:
            return 0 * denominator  # a zero of the coefficient type
        numerator = whole if caps is None else product_form(
            matrix, m, [ws[:c + 1] for ws, c in zip(weights, reduced_caps)], dist.mode)
        prefactor = math.prod(c**s for c, s in zip(coeffs, orders))
        return prefactor * numerator.coefficient(reduced_m) / denominator

    def pmf(self) -> dict:
        """See conditional_pmf: each fiber point's mass over P(Y = target)."""
        total = self._nonzero(self.prob_y)
        if isinstance(self.dist, Table):
            points = [(j, p) for j, p in self._table_fiber if p]
        else:
            points = fiber_points(*self._walk)
        return {j: p / total for j, p in points}


def pgf_of_Y(
    dist: Distribution,
    matrix: TransformMatrix,
    target: Sequence[int],
    support_bounds: Optional[Sequence[int]] = None,
) -> TruncatedSeries:
    """Generating function of Y = image(X) on the box [0, target]: the
    coefficient at k is P(Y = k), on the capped support if support_bounds is
    given. It is `distributions.image_pgf` with X confined to the effective
    source box."""
    target = check_exponents(target)
    bounds = effective_source_bounds(dist, matrix, target, support_bounds)
    return image_pgf(dist, matrix, target, bounds)


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
    """Conditional factorial moment through the generic leg.

    Sums P(X = j) prod_r perm(j_r, orders[r]) over the fiber and divides by
    P(Y = target), the same sum at order 0 (see FiberSolve). Works for any
    of the supported distributions; the closed forms below are a separate
    route for two of them.
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
