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
    keeping the running residual target - partial image. Coordinate r takes
    at most its top value min(cap_r, min_i target_i // a_ir), so reach[r],
    the most that coordinates r, r+1, ... can add to each row, is the sum of
    their columns times their tops. A coordinate's range is capped by the
    residual divided by its positive column entries and by its support
    bound, and starts at the least value that leaves a residual within
    reach[r+1]. So no prefix is entered whose residual the later coordinates
    cannot cover, and the last coordinate takes only values that empty the
    residual (at most one, unless its column is zero). A coordinate with an
    all-zero column and no support bound makes the fiber infinite:
    UnboundedFiber.

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
    cols, tops = [matrix.column(r) for r in range(d)], []
    for r, (col, top) in enumerate(zip(cols, caps)):
        for k, a in zip(target, col):
            if a > 0:
                top = k // a if top is None else min(top, k // a)
        if top is None:
            raise UnboundedFiber(
                f"source coordinate {r} is ignored by the matrix; "
                "pass support_bounds to make the fiber finite"
            )
        tops.append(top)
    reach = [(0,) * len(target)]
    for col, top in zip(cols[::-1], tops[::-1]):
        reach.insert(0, tuple(m + a * top for m, a in zip(reach[0], col)))

    out = []

    def walk(r, residual, prefix):
        col, lo, hi = cols[r], 0, caps[r]
        for x, a, m in zip(residual, col, reach[r + 1]):
            if a > 0:
                q = x // a
                if hi is None or q < hi:
                    hi = q
                q = (x - m + a - 1) // a  # the least v with x - v * a <= m
                if q > lo:
                    lo = q
        if r == d - 1:
            out.extend(prefix + (v,) for v in range(lo, hi + 1))
            return
        for v in range(lo, hi + 1):
            walk(r + 1, tuple(x - v * a for x, a in zip(residual, col)), prefix + (v,))

    if all(x <= m for x, m in zip(target, reach[0])):
        walk(0, target, ())
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
