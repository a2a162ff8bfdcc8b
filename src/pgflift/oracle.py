"""Brute-force reference implementations, kept deliberately primitive.

Everything here enumerates fibers outright and prices outcomes with textbook
pmf formulas. No generating functions, no series arithmetic, no imports from
the series/transform/conditioning modules: when a fast path and this module
agree, they agree because the mathematics does, not because they share code.
"""

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import (
    DimensionMismatch,
    EmptyFiber,
    TransformMatrix,
    UnboundedFiber,
    ZeroProbability,
    check_exponents,
)


def enumerate_fiber(
    matrix: TransformMatrix,
    target: Sequence[int],
    support_bounds: Sequence | None = None,
) -> list:
    """Every j >= 0 with image(j) == target, in lexicographic order.

    Depth-first over the source coordinates, first coordinate outermost,
    keeping the running residual target - partial image; a coordinate's range
    is capped by the residual divided by its positive column entries, and by
    its support bound if one is given. The last coordinate is settled
    directly: only its largest value can empty a residual, unless its column
    is zero. A coordinate with an all-zero column and no support bound makes
    the fiber infinite: UnboundedFiber.

    `support_bounds` may be None, or a sequence with one int (or None) per
    source coordinate.
    """
    target = check_exponents(target)
    if len(target) != matrix.num_targets:
        raise DimensionMismatch(
            f"target has length {len(target)}, matrix has {matrix.num_targets} rows"
        )
    d = matrix.num_sources
    caps = [None] * d if support_bounds is None else list(support_bounds)
    if len(caps) != d:
        raise DimensionMismatch(
            f"support bounds have length {len(caps)}, expected {d}"
        )
    for r in range(d):
        if caps[r] is None and all(row[r] == 0 for row in matrix.rows):
            raise UnboundedFiber(
                f"source coordinate {r} is ignored by the matrix; "
                "pass support_bounds to make the fiber finite"
            )

    out = []

    def walk(r, residual, prefix):
        col = [row[r] for row in matrix.rows]
        hi = caps[r]
        for i, a in enumerate(col):
            if a > 0:
                q = residual[i] // a
                hi = q if hi is None else min(hi, q)
        if r == d - 1:
            for v in range(hi + 1) if not any(col) else (hi,):
                if all(x == v * a for x, a in zip(residual, col)):
                    out.append(prefix + (v,))
            return
        for v in range(hi + 1):
            walk(
                r + 1,
                tuple(x - v * a for x, a in zip(residual, col)),
                prefix + (v,),
            )

    walk(0, tuple(target), ())
    return out


def _fiber(dist, matrix, target, support_bounds, orders=None):
    """enumerate_fiber within the distribution's support and the caps, after
    the shape checks; EmptyFiber when it has no point."""
    if dist.dim != matrix.num_sources:
        raise DimensionMismatch(
            f"distribution has {dist.dim} coordinates, matrix expects "
            f"{matrix.num_sources}"
        )
    if orders is not None and len(orders) != matrix.num_sources:
        raise DimensionMismatch(
            f"orders have length {len(orders)}, expected {matrix.num_sources}"
        )
    given = (None,) * dist.dim if support_bounds is None else support_bounds
    caps = [min((c for c in pair if c is not None), default=None)
            for pair in zip(dist.support_bound(), given)]
    fiber = enumerate_fiber(matrix, target, caps)
    if not fiber:
        raise EmptyFiber(
            f"no nonnegative integer solution of image(j) == {tuple(target)}"
        )
    return fiber


def oracle_conditional_moment(dist, matrix: TransformMatrix, query) -> "Fraction | float":
    """Conditional factorial moment by direct summation over the fiber.

    sum over fiber of prod_r perm(j_r, orders_r) * pmf(j), divided by the
    fiber's total mass. Exact when the distribution's pmf is exact.
    """
    orders = check_exponents(query.orders)
    fiber = _fiber(dist, matrix, query.target, query.support_bounds, orders)
    zero = 0.0 if dist.mode == "float" else Fraction(0)
    numerator = zero
    denominator = zero
    for j in fiber:
        p = dist.pmf(j)  # textbook formulas, no series code
        denominator += p
        weight = p
        for x, s in zip(j, orders):
            weight *= math.perm(x, s)
        numerator += weight
    if denominator == 0:
        raise ZeroProbability(
            f"every outcome mapping onto {tuple(query.target)} carries zero mass"
        )
    return numerator / denominator


def oracle_conditional_pmf(dist, matrix: TransformMatrix, target, support_bounds=None):
    """{outcome: conditional probability} by direct fiber summation."""
    masses = {j: dist.pmf(j) for j in _fiber(dist, matrix, target, support_bounds)}
    total = sum(masses.values())
    if total == 0:
        raise ZeroProbability(
            f"every outcome mapping onto {tuple(target)} carries zero mass"
        )
    return {j: p / total for j, p in masses.items() if p != 0}
