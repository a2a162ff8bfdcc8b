"""The three supported laws for the source count vector.

Each distribution knows its dimension, its natural coefficient mode, how to
build its probability generating function on a degree box, and how to
evaluate its pmf pointwise. Poisson and multinomial also expand the
generating function of an aggregate image(X) from their closed-form factors,
directly in the target box. The pgf paths feed the series pipeline; the pmf
path exists so that brute-force verification can price outcomes without
touching any series code.

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

from .core import EXACT, FLOAT, check_bounds, check_exponents, within_box
from .series import TruncatedSeries, exp_truncated


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
        """prod_r exp(rate_r * (t_r - 1)), truncated to the box.

        Built through the series exponential rather than from the pmf formula
        on purpose: tests compare the two routes against each other.
        """
        box = (
            self.default_truncation()
            if bounds is None
            else check_bounds(bounds, self.dim)
        )
        out = TruncatedSeries.one(box, FLOAT)
        for r, rate in enumerate(self.rates):
            arg_terms = {(0,) * self.dim: -rate}
            unit = tuple(1 if i == r else 0 for i in range(self.dim))
            if within_box(unit, box):
                arg_terms[unit] = rate
            out = out * exp_truncated(TruncatedSeries(box, FLOAT, arg_terms))
        return out

    def image_pgf(self, matrix, target, bounds) -> TruncatedSeries:
        """Generating function of image(X) on [0, target], X confined to [0, bounds].

        The product over r of exp(rate_r * (t_r - 1)), each factor truncated
        at degree bounds[r] and substituted t_r -> z^(column r) before any
        expansion. The factors are independent, so truncating each one is
        exactly confining X to the box; a zero column contributes the scalar
        P(X_r <= bounds[r]).
        """
        box = check_bounds(bounds, self.dim)
        out = TruncatedSeries.one(target, FLOAT)
        for rate, b, column in zip(self.rates, box, zip(*matrix.rows)):
            # rate**x / x! by recurrence, scaled by exp(-rate) at the end, as
            # exp_truncated does in Poisson.pgf
            scale, weight, factor = math.exp(-rate), 1.0, {}
            for x in range(b + 1):
                k = tuple(a * x for a in column)
                if not within_box(k, target):
                    break
                factor[k] = factor.get(k, 0.0) + scale * weight
                weight = weight * rate * (1.0 / (x + 1))
            out = out * TruncatedSeries(target, FLOAT, factor)
        return out

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
        """(p_1 t_1 + ... + p_d t_d) ** trials, truncated to the box."""
        box = (
            self.support_bound()
            if bounds is None
            else check_bounds(bounds, self.dim)
        )
        units = [tuple(int(i == r) for i in range(self.dim)) for r in range(self.dim)]
        return self._base_power(units, box)

    def image_pgf(self, matrix, target) -> TruncatedSeries:
        """Generating function of image(X) on [0, target]:
        (p_1 z^(column 1) + ... + p_d z^(column d)) ** trials, expanded in the
        target box only."""
        return self._base_power(zip(*matrix.rows), target)

    def _base_power(self, monomials, box) -> TruncatedSeries:
        """(sum_r p_r x^(monomials[r])) ** trials on the box, by `trials`
        multiplications by the short base: squaring would multiply two series
        each about as long as the result. Truncated products stay exact on the
        box: exponents only grow, so a discarded intermediate term can never
        re-enter the box later."""
        base_terms = {}
        for p, m in zip(self.probs, monomials):
            if within_box(m, box):
                base_terms[m] = base_terms.get(m, 0) + p
        base = TruncatedSeries(box, EXACT, base_terms)
        out = TruncatedSeries.one(box, EXACT)
        for _ in range(self.trials):
            out = out * base
        return out

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
