"""Brute-force reference implementations, kept deliberately primitive.

Everything here enumerates fibers outright and prices outcomes with textbook
pmf formulas. No generating functions, no series arithmetic, no imports from
the series/transform/conditioning modules: when a fast path and this module
agree, they agree because the mathematics does, not because they share code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

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
    support_bounds: Optional[Sequence] = None,
) -> list:
    """Every j >= 0 with image(j) == target, in lexicographic order.

    Depth-first over the source coordinates, first coordinate outermost,
    keeping the running residual target - partial image; a coordinate's range
    is capped by the residual divided by its positive column entries, and by
    its support bound if one is given. A coordinate with an all-zero column
    and no support bound makes the fiber infinite: UnboundedFiber.

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
        if r == d:
            if all(x == 0 for x in residual):
                out.append(prefix)
            return
        col = [row[r] for row in matrix.rows]
        hi = caps[r]
        for i, a in enumerate(col):
            if a > 0:
                q = residual[i] // a
                hi = q if hi is None else min(hi, q)
        for v in range(hi + 1):
            walk(
                r + 1,
                tuple(x - v * a for x, a in zip(residual, col)),
                prefix + (v,),
            )

    walk(0, tuple(target), ())
    return out


def _merged_caps(dist, support_bounds):
    natural = dist.support_bound()
    if support_bounds is None:
        return natural
    merged = []
    for n, u in zip(natural, support_bounds):
        if n is None:
            merged.append(u)
        elif u is None:
            merged.append(n)
        else:
            merged.append(min(n, u))
    return tuple(merged)


def oracle_conditional_moment(dist, matrix: TransformMatrix, query) -> "Fraction | float":
    """Conditional factorial moment by direct summation over the fiber.

    sum over fiber of prod_r perm(j_r, orders_r) * pmf(j), divided by the
    fiber's total mass. Exact when the distribution's pmf is exact.
    """
    if dist.dim != matrix.num_sources:
        raise DimensionMismatch(
            f"distribution has {dist.dim} coordinates, matrix expects "
            f"{matrix.num_sources}"
        )
    orders = check_exponents(query.orders)
    if len(orders) != matrix.num_sources:
        raise DimensionMismatch(
            f"orders have length {len(orders)}, expected {matrix.num_sources}"
        )
    fiber = enumerate_fiber(
        matrix, query.target, _merged_caps(dist, query.support_bounds)
    )
    if not fiber:
        raise EmptyFiber(
            f"no nonnegative integer solution of image(j) == {tuple(query.target)}"
        )
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
    if dist.dim != matrix.num_sources:
        raise DimensionMismatch(
            f"distribution has {dist.dim} coordinates, matrix expects "
            f"{matrix.num_sources}"
        )
    fiber = enumerate_fiber(matrix, target, _merged_caps(dist, support_bounds))
    if not fiber:
        raise EmptyFiber(
            f"no nonnegative integer solution of image(j) == {tuple(target)}"
        )
    masses = {j: dist.pmf(j) for j in fiber}
    total = sum(masses.values())
    if total == 0:
        raise ZeroProbability(
            f"every outcome mapping onto {tuple(target)} carries zero mass"
        )
    return {j: p / total for j, p in masses.items() if p != 0}
