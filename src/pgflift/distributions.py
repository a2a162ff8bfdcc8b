"""The three supported laws for the source count vector.

Each distribution knows its dimension, its natural coefficient mode, how to
build its probability generating function on a degree box, and how to
evaluate its pmf pointwise. Poisson and multinomial laws factorise: each has
one product-form description (`product_terms`), per-coordinate weights with
P(X = j) proportional to their product, the multinomial as Poisson counts
conditioned on their total. The conditioning walk and closed form read that
description, and so does `image_pgf`, which builds the pgf of any aggregate
image(X), the law's own pgf included. The pmf path exists so that
brute-force verification can price outcomes without touching any series code.

Poisson coefficients involve exp(-rate) and therefore live in float mode.
Multinomial probabilities are promoted to exact rationals (a decimal string
like "0.3" means 3/10, never the nearest binary float). Table distributions
work in either mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple, Union

from .core import EXACT, FLOAT, TransformMatrix, check_bounds, check_exponents, within_box
from .series import TruncatedSeries
from .transform import monomial_substitute


def to_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, or string ("1/3", "0.25").

    Floats go through their shortest decimal literal, so 0.3 means 3/10.
    """
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class Poisson:
    """Independent Poisson counts, one positive rate per coordinate."""

    rates: Tuple[float, ...]

    def __init__(self, rates: Sequence[float]):
        vals = tuple(float(x) for x in rates)
        if not vals:
            raise ValueError("need at least one rate")
        for x in vals:
            if not math.isfinite(x) or x <= 0:
                raise ValueError(f"Poisson rates must be positive and finite, got {x!r}")
        object.__setattr__(self, "rates", vals)

    @property
    def dim(self) -> int:
        return len(self.rates)

    @property
    def mode(self) -> str:
        return FLOAT

    def support_bound(self):
        # unbounded in every coordinate
        return (None,) * self.dim

    def default_truncation(self) -> tuple:
        """Box heavy enough that the neglected tail is far below 1e-12."""
        return tuple(
            math.ceil(rate + 10.0 * math.sqrt(rate) + 20.0) for rate in self.rates
        )

    def pgf(self, bounds: Optional[Sequence[int]] = None) -> TruncatedSeries:
        """prod_r exp(rate_r * (t_r - 1)), truncated to the box: the product
        form with identity columns."""
        box = (
            self.default_truncation()
            if bounds is None
            else check_bounds(bounds, self.dim)
        )
        return image_pgf(self, _identity(self.dim), box, box)

    def pmf(self, outcome: Sequence[int]) -> float:
        j = check_exponents(outcome)
        if len(j) != self.dim:
            raise ValueError(f"outcome has length {len(j)}, expected {self.dim}")
        return math.exp(
            math.fsum(_poisson_log_pmf(rate, x) for rate, x in zip(self.rates, j))
        )

    def tail_mass(self, bounds: Sequence[int]) -> float:
        """Probability mass outside the box, i.e. 1 - prod_r P(count_r <= bound_r)."""
        box = check_bounds(bounds, self.dim)
        inside = 1.0
        for rate, b in zip(self.rates, box):
            cdf = math.fsum(
                math.exp(_poisson_log_pmf(rate, x)) for x in range(b + 1)
            )
            inside *= min(cdf, 1.0)
        return 1.0 - inside


def _poisson_log_pmf(rate: float, x: int) -> float:
    # in log space: rate**x and x! overflow a float long before their ratio does
    return x * math.log(rate) - rate - math.lgamma(x + 1)


@dataclass(frozen=True)
class Multinomial:
    """`trials` balls dropped independently into `len(probs)` cells."""

    trials: int
    probs: Tuple[Fraction, ...]

    def __init__(self, trials: int, probs: Sequence):
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 0:
            raise ValueError(f"trials must be a nonnegative integer, got {trials!r}")
        ps = tuple(to_fraction(p) for p in probs)
        if not ps:
            raise ValueError("need at least one cell probability")
        for p in ps:
            if p < 0:
                raise ValueError(f"cell probabilities must be nonnegative, got {p}")
        if sum(ps) != 1:
            raise ValueError(f"cell probabilities must sum to 1, got {sum(ps)}")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "probs", ps)

    @property
    def dim(self) -> int:
        return len(self.probs)

    @property
    def mode(self) -> str:
        return EXACT

    def support_bound(self):
        return (self.trials,) * self.dim

    def pgf(self, bounds: Optional[Sequence[int]] = None) -> TruncatedSeries:
        """(p_1 t_1 + ... + p_d t_d) ** trials, truncated to the box: the
        product form with identity columns, read at `trials` balls."""
        box = (
            self.support_bound()
            if bounds is None
            else check_bounds(bounds, self.dim)
        )
        return image_pgf(self, _identity(self.dim), box, box)

    def pmf(self, outcome: Sequence[int]) -> Fraction:
        j = check_exponents(outcome)
        if len(j) != self.dim:
            raise ValueError(f"outcome has length {len(j)}, expected {self.dim}")
        if sum(j) != self.trials:
            return Fraction(0)
        coeff = math.factorial(self.trials)
        p = Fraction(1)
        for prob, x in zip(self.probs, j):
            coeff //= math.factorial(x)
            p *= prob**x
        return coeff * p


@dataclass(frozen=True)
class Table:
    """Finite support given outright as {outcome tuple: probability}."""

    entries: Mapping[tuple, object]
    mode: str

    def __init__(self, entries: Mapping, mode: str = EXACT):
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        if not entries:
            raise ValueError("a table distribution needs at least one outcome")
        clean = {}
        dim = None
        for outcome, prob in entries.items():
            j = check_exponents(outcome)
            if dim is None:
                dim = len(j)
            elif len(j) != dim:
                raise ValueError("table outcomes have unequal lengths")
            p = to_fraction(prob) if mode == EXACT else float(prob)
            if not 0 <= p < math.inf:
                raise ValueError(f"probabilities must be nonnegative and finite, got {p}")
            clean[j] = p
        total = sum(clean.values())
        if mode == EXACT:
            if total != 1:
                raise ValueError(f"probabilities must sum to 1, got {total}")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "entries", clean)
        object.__setattr__(self, "mode", mode)

    @property
    def dim(self) -> int:
        return len(next(iter(self.entries)))

    def support_bound(self) -> tuple:
        return tuple(
            max(outcome[r] for outcome in self.entries) for r in range(self.dim)
        )

    def pgf(self, bounds: Optional[Sequence[int]] = None) -> TruncatedSeries:
        """One term per outcome; outcomes outside a requested box are omitted."""
        box = (
            self.support_bound()
            if bounds is None
            else check_bounds(bounds, self.dim)
        )
        return TruncatedSeries(
            box,
            self.mode,
            {j: p for j, p in self.entries.items() if within_box(j, box)},
        )

    def pmf(self, outcome: Sequence[int]):
        j = check_exponents(outcome)
        if len(j) != self.dim:
            raise ValueError(f"outcome has length {len(j)}, expected {self.dim}")
        zero = Fraction(0) if self.mode == EXACT else 0.0
        return self.entries.get(j, zero)


Distribution = Union[Poisson, Multinomial, Table]


def product_terms(dist, matrix: TransformMatrix, target, bounds) -> tuple:
    """(matrix', target', weights, start), the product form of a Poisson or
    multinomial law: P(X = j) = start * prod_r weights[r][j_r] for every j
    in the box `bounds` with image'(j) == target', weights[r] listing
    w_r(0), ..., w_r(bounds[r]).

    A Poisson has w_r(x) = exp(-rate) rate**x / x! and start 1.0. A
    multinomial is independent Poisson(p_r) counts conditioned on their
    total: w_r(x) = p**x / x!, exact, an all-ones row appended to the matrix,
    its trials to the target, and start trials!. The weights come from the
    recurrence rather than the log-space pmf formula on purpose (tests
    compare the two routes).
    """
    poisson = isinstance(dist, Poisson)
    one, weights = (1.0 if poisson else Fraction(1)), []
    for c, b in zip(dist.rates if poisson else dist.probs, bounds):
        scale, weight, ws = (math.exp(-c) if poisson else 1), one, []
        for x in range(b + 1):
            ws.append(scale * weight)
            weight = weight * c * (one / (x + 1))
        weights.append(ws)
    if poisson:
        return matrix, tuple(target), weights, 1.0
    ones = TransformMatrix(matrix.rows + ((1,) * dist.dim,))
    return ones, tuple(target) + (dist.trials,), weights, Fraction(math.factorial(dist.trials))


def product_form(matrix: TransformMatrix, box, weights, mode: str) -> TruncatedSeries:
    """prod_r sum_x weights[r][x] z^(x * column r), expanded on `box`.

    The factors are independent, so a shorter weight list is exactly a
    tighter cap on X_r; a zero column contributes the scalar sum of its
    weights.
    """
    out = TruncatedSeries.one(box, mode)
    for r, ws in enumerate(weights):
        column, factor = matrix.column(r), {}
        for x, w in enumerate(ws):
            k = tuple(a * x for a in column)
            if not within_box(k, box):
                break  # exponents only grow with x
            factor[k] = factor.get(k, 0) + w
        out = out * TruncatedSeries(box, mode, factor)
    return out


def image_pgf(dist, matrix: TransformMatrix, box, bounds) -> TruncatedSeries:
    """Generating function of image(X) on `box`, X confined to the box
    `bounds`. A table pushes the terms of its pgf onto their images. A
    Poisson or multinomial law expands its product form (`product_terms`)
    and keeps start times the slice where the extra coordinates of target'
    (a multinomial's number of balls) are read."""
    if isinstance(dist, Table):
        return monomial_substitute(dist.pgf(bounds), matrix, box, check_coverage=False)
    matrix, target, weights, start = product_terms(dist, matrix, box, bounds)
    n, series = len(box), product_form(matrix, target, weights, dist.mode)
    terms = {e[:n]: start * c for e, c in series.terms.items() if e[n:] == target[n:]}
    return TruncatedSeries(box, dist.mode, terms)


def _identity(dim: int) -> TransformMatrix:
    return TransformMatrix([[int(i == r) for r in range(dim)] for i in range(dim)])
