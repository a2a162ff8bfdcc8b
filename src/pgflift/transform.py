"""Pushing a generating function through an integer linear map.

If G is the generating function of a multi-indexed sequence b, substituting
the monomial prod_i z_i^(a[i][r]) for source variable r yields the generating
function of the aggregated sequence c_k = sum of b_j over the fiber
{j >= 0 : image(j) = k}. That coefficient identity is what `monomial_substitute`
computes inside a finite target box, and `joint_pgf` is the tagged variant
that keeps the source exponent alongside its image so that joint information
(source and target at once) survives the push-forward.

Both operations verify first that the input series retains every source term
that could land inside the requested target box; otherwise retained output
coefficients would be silently incomplete. A caller of `monomial_substitute`
that has already restricted the source support on purpose can skip the check.
"""

from collections.abc import Sequence

from .core import (
    DimensionMismatch,
    TransformMatrix,
    TruncationError,
    check_bounds,
    fiber_degree_bounds,
    monomial_image,
    within_box,
)
from .series import TruncatedSeries


def _check_source_coverage(series, matrix, needed):
    """needed[r] is the largest source degree in variable r that can
    contribute; None means unbounded (a zero column)."""
    for r, need in enumerate(needed):
        if need is None:
            raise TruncationError(
                f"source variable {r} is ignored by the matrix (zero column); "
                "every source degree maps into the box, so a truncated input "
                "cannot cover it. Restrict the support explicitly and call "
                "monomial_substitute with check_coverage=False."
            )
        if series.bounds[r] < need:
            raise TruncationError(
                f"input truncation too small: variable {r} needs degree "
                f"{need}, series retains only {series.bounds[r]}"
            )


def monomial_substitute(
    series: TruncatedSeries,
    matrix: TransformMatrix,
    target_bounds: Sequence[int],
    check_coverage: bool = True,
) -> TruncatedSeries:
    """Generating function of the pushed-forward sequence, on a target box.

    The coefficient of z^k in the result is the sum of the input coefficients
    over the whole fiber {j : image(j) = k}, for every k inside
    `target_bounds`. With check_coverage on (the default), the input box must
    contain every j whose image fits the target box; turning it off means the
    caller vouches that terms beyond the input box were excluded on purpose
    (restricted support), and fiber sums then range over that support only.
    """
    if series.num_vars != matrix.num_sources:
        raise DimensionMismatch(
            f"series has {series.num_vars} variables, matrix expects "
            f"{matrix.num_sources}"
        )
    zbounds = check_bounds(target_bounds, matrix.num_targets)
    if check_coverage:
        _check_source_coverage(series, matrix, fiber_degree_bounds(matrix, zbounds))
    out = {}
    zero = series._zero_coeff()
    for j, c in series.terms.items():
        k = monomial_image(matrix, j)
        if within_box(k, zbounds):
            out[k] = out.get(k, zero) + c
    return TruncatedSeries(zbounds, series.mode, out)


def joint_pgf(
    series: TruncatedSeries,
    matrix: TransformMatrix,
    source_bounds: Sequence[int],
    target_bounds: Sequence[int],
) -> TruncatedSeries:
    """Two-block series carrying each source term next to its image.

    Term b_j t^j of the input becomes b_j t^j z^(image(j)); the result lives
    in num_sources + num_targets variables with box source_bounds followed by
    target_bounds. Setting the whole t-block to 1 recovers
    monomial_substitute; differentiating in the t-block before doing so
    gives the numerators of conditional factorial moments.
    """
    if series.num_vars != matrix.num_sources:
        raise DimensionMismatch(
            f"series has {series.num_vars} variables, matrix expects "
            f"{matrix.num_sources}"
        )
    tbounds = check_bounds(source_bounds, matrix.num_sources)
    zbounds = check_bounds(target_bounds, matrix.num_targets)
    fiber = fiber_degree_bounds(matrix, zbounds)
    needed = [t if b is None else min(t, b) for t, b in zip(tbounds, fiber)]
    _check_source_coverage(series, matrix, needed)
    out = {}
    for j, c in series.terms.items():
        if not within_box(j, tbounds):
            continue
        k = monomial_image(matrix, j)
        if within_box(k, zbounds):
            out[j + k] = c
    return TruncatedSeries(tbounds + zbounds, series.mode, out)
