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
    TruncationError,
    check_bounds,
    check_exponents,
    coerce_coefficient,
    within_box,
)


class TruncatedSeries:
    """One element of the truncated power series ring.

    Immutable by convention: operations return new instances. The constructor
    validates that every exponent fits the box, coerces coefficients to the
    declared mode, and drops zeros, so any reachable instance satisfies the
    storage invariants.
    """

    __slots__ = ("bounds", "mode", "terms")

    def __init__(self, bounds: Sequence[int], mode: str = EXACT, terms=None):
        if len(bounds) == 0:
            raise ValueError("a series needs at least one variable")
        object.__setattr__(self, "bounds", check_bounds(bounds, len(bounds)))
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown coefficient mode {mode!r}")
        object.__setattr__(self, "mode", mode)
        clean = {}
        for exponents, value in (terms or {}).items():
            e = check_exponents(exponents)
            if len(e) != self.num_vars:
                raise DimensionMismatch(
                    f"exponent {e} has length {len(e)}, series has "
                    f"{self.num_vars} variables"
                )
            if not within_box(e, self.bounds):
                raise TruncationError(
                    f"exponent {e} lies outside the truncation box {self.bounds}"
                )
            c = coerce_coefficient(value, mode)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __delattr__(self, name):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # pickle and deepcopy would restore the slots through __setattr__
        return TruncatedSeries, (self.bounds, self.mode, self.terms)

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

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * self.num_vars, self._zero_coeff())

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

    def evaluate(self, point: Sequence[Coefficient]) -> Coefficient:
        """Sum c * prod(point_i ** e_i) over all retained terms."""
        if len(point) != self.num_vars:
            raise DimensionMismatch(
                f"point has length {len(point)}, series has {self.num_vars} variables"
            )
        vals = [coerce_coefficient(p, self.mode) for p in point]
        total = self._zero_coeff()
        for e, c in self.terms.items():
            term = c
            for p, x in zip(vals, e):
                term *= p**x
            total += term
        return total

    # arithmetic

    def __add__(self, other):
        return linear_combine(1, self, 1, other)

    def __sub__(self, other):
        return linear_combine(1, self, -1, other)

    def __neg__(self):
        return self.scale(-1)

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

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.mode == other.mode
            and self.terms == other.terms
        )

    __hash__ = None

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


def linear_combine(alpha, s: TruncatedSeries, beta, t: TruncatedSeries) -> TruncatedSeries:
    """alpha*S + beta*T for two series in the same ring."""
    _require_same_ring(s, t)
    a = coerce_coefficient(alpha, s.mode)
    b = coerce_coefficient(beta, s.mode)
    out = dict()
    zero = s._zero_coeff()
    for e, c in s.terms.items():
        out[e] = out.get(e, zero) + a * c
    for e, c in t.terms.items():
        out[e] = out.get(e, zero) + b * c
    return TruncatedSeries(s.bounds, s.mode, out)


def exp_truncated(s: TruncatedSeries, split_constant: bool = False):
    """Exponential of a series, exact on the truncation box.

    With S = c + S0 (S0 the zero-constant part), exp(S) = exp(c) * exp(S0),
    and exp(S0) needs only sum(bounds) powers of S0 inside the box because S0
    has no constant term. In exact mode a nonzero c has no rational exp(c):
    pass split_constant=True to receive (c, exp(S0)) and carry the scalar
    factor yourself, otherwise the call errors. Float mode folds exp(c) in
    unless split_constant is requested.
    """
    c = s.constant_term()
    zero_exp = (0,) * s.num_vars
    s0 = TruncatedSeries(
        s.bounds, s.mode, {e: v for e, v in s.terms.items() if e != zero_exp}
    )
    acc = TruncatedSeries.one(s.bounds, s.mode)
    term = acc
    for n in range(1, sum(s.bounds) + 1):
        inv_n = Fraction(1, n) if s.mode == EXACT else 1.0 / n
        term = (term * s0).scale(inv_n)
        if not term.terms:
            break
        acc = acc + term
    if split_constant:
        return c, acc
    if c != 0:
        if s.mode == EXACT:
            raise ExactModeError(
                "exp of a nonzero constant term is irrational; use "
                "split_constant=True and carry exp(constant) separately"
            )
        acc = acc.scale(math.exp(c))
    return acc
