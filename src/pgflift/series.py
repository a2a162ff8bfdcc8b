"""Sparse truncated multivariate formal power series.

A series is a finite dict {exponent tuple: coefficient} together with a hard
per-variable degree box. Truncation is a window, not an approximation scheme:
every coefficient inside the box is exactly the coefficient of the underlying
series (operations discard products that land outside the box, they never
smear error into retained terms). Zero coefficients are never stored, and
only exact zeros count: a float however small (a subnormal) is kept.

Coefficients are exact `Fraction`s in "exact" mode or Python floats in
"float" mode; a single series never mixes the two.
"""

import math
from collections.abc import Sequence
from fractions import Fraction

from .core import (
    EXACT,
    FLOAT,
    Coefficient,
    DimensionMismatch,
    ExactModeError,
    Frozen,
    TruncationError,
    check_bounds,
    check_exponents,
    coerce_coefficient,
    within_box,
)


class TruncatedSeries(Frozen):
    """One element of the truncated power series ring.

    An immutable record: operations return new instances. The constructor
    validates that every exponent fits the box, coerces coefficients to the
    declared mode, and drops zeros, so any reachable instance satisfies the
    storage invariants. Equal series compare equal, but a series holds a
    dict and is unhashable.
    """

    __slots__ = ("bounds", "mode", "terms")

    def __init__(self, bounds: Sequence[int], mode: str = EXACT, terms=None):
        if len(bounds) == 0:
            raise ValueError("a series needs at least one variable")
        bounds = check_bounds(bounds, len(bounds))
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        clean = {}
        for exponents, value in (terms or {}).items():
            e = check_exponents(exponents)
            if len(e) != len(bounds):
                raise DimensionMismatch(
                    f"exponent {e} has length {len(e)}, series has "
                    f"{len(bounds)} variables"
                )
            if not within_box(e, bounds):
                raise TruncationError(
                    f"exponent {e} lies outside the truncation box {bounds}"
                )
            c = coerce_coefficient(value, mode)
            if c != 0:
                clean[e] = c
        super().__init__(bounds, mode, clean)

    @property
    def num_vars(self) -> int:
        return len(self.bounds)

    @classmethod
    def one(cls, bounds, mode=EXACT) -> "TruncatedSeries":
        return cls(bounds, mode, {(0,) * len(bounds): 1})

    def _zero_coeff(self) -> Coefficient:
        return Fraction(0) if self.mode == EXACT else 0.0

    def coefficient(self, exponents: Sequence[int]) -> Coefficient:
        """Exact coefficient at `exponents`; errors outside the box.

        Asking for a coefficient the truncation discarded would silently
        return a wrong 0, so that case raises instead.
        """
        e = check_exponents(exponents)
        if len(e) != self.num_vars:
            raise DimensionMismatch(
                f"exponent {e} has length {len(e)}, series has "
                f"{self.num_vars} variables"
            )
        if not within_box(e, self.bounds):
            raise TruncationError(
                f"coefficient at {e} was truncated away (box {self.bounds})"
            )
        return self.terms.get(e, self._zero_coeff())

    def partial_derivative(self, var: int, order: int = 1) -> "TruncatedSeries":
        """Differentiate `order` times with respect to variable `var`.

        c * x^e maps to c * e_var!/(e_var-order)! * x^(e - order*unit); terms
        of degree below `order` in the variable vanish. The box shrinks by
        `order` in that variable since higher coefficients of the result
        would need discarded input terms.
        """
        if not 0 <= var < self.num_vars:
            raise DimensionMismatch(f"variable index {var} out of range")
        if not isinstance(order, int) or order < 0:
            raise ValueError("derivative order must be a nonnegative integer")
        if order == 0:
            return self
        new_bounds = tuple(
            max(b - order, 0) if r == var else b for r, b in enumerate(self.bounds)
        )
        out = {}
        for e, c in self.terms.items():
            if e[var] < order:
                continue
            factor = math.perm(e[var], order)
            shifted = tuple(
                x - order if r == var else x for r, x in enumerate(e)
            )
            out[shifted] = c * factor
        return TruncatedSeries(new_bounds, self.mode, out)

    def scale(self, scalar) -> "TruncatedSeries":
        a = coerce_coefficient(scalar, self.mode)
        return TruncatedSeries(
            self.bounds, self.mode, {e: a * c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        _require_same_ring(self, other)
        out = {}
        zero = self._zero_coeff()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if within_box(e, self.bounds):
                    out[e] = out.get(e, zero) + c1 * c2
        return TruncatedSeries(self.bounds, self.mode, out)

    def __repr__(self):
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"TruncatedSeries(bounds={self.bounds}, mode={self.mode!r}, {{{body}}})"


def _require_same_ring(s: TruncatedSeries, t: TruncatedSeries):
    if s.bounds != t.bounds:
        raise DimensionMismatch(
            f"series live in different boxes: {s.bounds} vs {t.bounds}"
        )
    if s.mode != t.mode:
        raise ValueError(f"cannot mix coefficient modes {s.mode!r} and {t.mode!r}")


def exp_truncated(s: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series, exact on the truncation box.

    With S = c + S0 (S0 the zero-constant part), exp(S) = exp(c) * exp(S0),
    and exp(S0) needs only sum(bounds) powers of S0 inside the box because S0
    has no constant term. Float mode folds exp(c) in. In exact mode a nonzero
    c has no rational exp(c), so the call errors.
    """
    zero_exp = (0,) * s.num_vars
    c = s.terms.get(zero_exp, 0)
    if c != 0 and s.mode == EXACT:
        raise ExactModeError(
            "exp of a nonzero constant term is irrational; factor "
            "exp(constant) out and exponentiate the rest"
        )
    s0 = TruncatedSeries(
        s.bounds, s.mode, {e: v for e, v in s.terms.items() if e != zero_exp}
    )
    term = TruncatedSeries.one(s.bounds, s.mode)
    acc = dict(term.terms)
    for n in range(1, sum(s.bounds) + 1):
        inv_n = Fraction(1, n) if s.mode == EXACT else 1.0 / n
        term = (term * s0).scale(inv_n)
        if not term.terms:
            break
        for e, v in term.terms.items():
            # a cancelled term leaves now and goes last if it returns: the key
            # order (which later float products sum in) of a sum of series
            acc[e] = acc.get(e, 0) + v
            if not acc[e]:
                del acc[e]
    out = TruncatedSeries(s.bounds, s.mode, acc)
    return out.scale(math.exp(c)) if c != 0 else out
