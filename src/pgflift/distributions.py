"""The three supported laws for the source count vector.

Each distribution knows its dimension, its natural coefficient mode, how to
build its probability generating function on a degree box, and how to
evaluate its pmf pointwise. Poisson and multinomial build their own pgf and
that of any aggregate image(X) from one product of per-coordinate factors
(`product_form`), the multinomial as Poisson counts conditioned on their
total. The pgf paths feed the series pipeline; the pmf path exists so that
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
        form with identity columns.

        Built by the rate**x / x! recurrence rather than from the log-space
        pmf formula on purpose: tests compare the two routes against each
        other.
        """
        box = (
            self.default_truncation()
            if bounds is None
            else check_bounds(bounds, self.dim)
        )
        return product_form(self, _identity(self.dim), box, box)

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
        return trials_slice(product_form(self, _identity(self.dim), box, box), self.trials)

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


def product_form(dist, matrix: TransformMatrix, box, bounds) -> TruncatedSeries:
    """prod_r sum_{x <= bounds[r]} w_r(x) z^(x * column r), expanded on `box`.

    The factors are independent, so cutting factor r at bounds[r] is exactly
    confining X_r to [0, bounds[r]]; a zero column contributes the scalar
    sum of its weights. Poisson weights are exp(-rate_r) rate_r**x / x!, in
    float mode. A multinomial is independent Poisson(p_r) counts conditioned
    on their total: its weights are p_r**x / x!, exact, and the matrix gains
    an all-ones row, so the result has one more variable, the number of
    balls, on the box `box` followed by `trials` (see `trials_slice`).
    """
    if isinstance(dist, Poisson):
        mode, one, coeffs, rows = FLOAT, 1.0, dist.rates, matrix.rows
    else:
        mode, one, coeffs = EXACT, Fraction(1), dist.probs
        rows = matrix.rows + ((1,) * dist.dim,)
        box = tuple(box) + (dist.trials,)
    out = TruncatedSeries.one(box, mode)
    for c, b, column in zip(coeffs, bounds, zip(*rows)):
        # c**x / x! by recurrence; exponents only grow with x, so the first
        # one outside the box ends the factor
        scale, weight, factor = (math.exp(-c) if mode == FLOAT else 1), one, {}
        for x in range(b + 1):
            k = tuple(a * x for a in column)
            if not within_box(k, box):
                break
            factor[k] = factor.get(k, 0) + scale * weight
            weight = weight * c * (one / (x + 1))
        out = out * TruncatedSeries(box, mode, factor)
    return out


def trials_slice(series: TruncatedSeries, trials: int) -> TruncatedSeries:
    """trials! times the terms of a multinomial product form whose last
    exponent, the number of balls, is `trials`, as a series in the other
    variables."""
    scale = math.factorial(trials)
    terms = {e[:-1]: scale * c for e, c in series.terms.items() if e[-1] == trials}
    return TruncatedSeries(series.bounds[:-1], EXACT, terms)


def _identity(dim: int) -> TransformMatrix:
    return TransformMatrix([[int(i == r) for r in range(dim)] for i in range(dim)])
