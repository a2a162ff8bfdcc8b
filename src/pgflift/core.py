"""Shared vocabulary for the whole package.

Exponent vectors are plain tuples of nonnegative ints, coefficients are either
exact `Fraction`s or Python floats (one mode per series, never mixed), and the
integer matrix that pushes a multi-index forward lives in `TransformMatrix`.
Everything downstream (series, transforms, conditioning, the brute-force
oracle) depends on this module and on nothing else inside the package.

Python ints are arbitrary precision, so exponent arithmetic cannot overflow;
there is deliberately no checked-arithmetic layer here.
"""

import functools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import sub

EXACT = "exact"
FLOAT = "float"

Coefficient = Fraction | float


class DimensionMismatch(ValueError):
    """Vector length or matrix shape does not match what an operation needs."""


class TruncationError(ValueError):
    """A coefficient was requested, or required, outside the retained box."""


class ExactModeError(ValueError):
    """An operation has no exact-rational result for the given input."""


class FiberError(ValueError):
    """Base class for failures of conditioning on a target vector."""


class EmptyFiber(FiberError):
    """No nonnegative integer solution to matrix @ j == target exists."""


class ZeroProbability(FiberError):
    """Solutions exist, but the event conditioned on carries zero mass."""


class UnboundedFiber(FiberError):
    """The solution set is infinite and no support bound was supplied."""


def check_exponents(entries: Sequence[int]) -> tuple:
    """Return `entries` as a tuple after checking every entry is an int >= 0."""
    out = tuple(entries)
    for e in out:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponents must be nonnegative integers, got {entries!r}")
    return out


def check_bounds(bounds: Sequence[int], num_vars: int) -> tuple:
    """Validate per-variable truncation bounds (one int >= 0 per variable)."""
    out = check_exponents(bounds)
    if len(out) != num_vars:
        raise DimensionMismatch(
            f"expected {num_vars} truncation bounds, got {len(out)}"
        )
    return out


def within_box(exponents: Sequence[int], bounds: Sequence[int]) -> bool:
    return all(e <= b for e, b in zip(exponents, bounds))


def as_exact(value) -> Fraction:
    """Coerce to Fraction. Floats are rejected: their binary expansion is
    almost never what an exact-mode caller meant. Use a string literal
    ("0.3", "1/3") or a Fraction instead."""
    if isinstance(value, float):
        raise ExactModeError(
            f"refusing to coerce float {value!r} to an exact rational; "
            "pass a string or Fraction"
        )
    return Fraction(value)


def coerce_coefficient(value, mode: str) -> Coefficient:
    if mode == EXACT:
        return as_exact(value)
    if mode == FLOAT:
        return float(value)
    raise ValueError(f"unknown coefficient mode {mode!r}")


class Frozen:
    """Base of the immutable value records. A subclass names its fields in
    `__slots__`, in the order its constructor takes them, and its constructor
    ends by passing their values to this one. Equality, hashing and repr read
    that field tuple, as a frozen dataclass would, and pickle and deepcopy
    rebuild the record through the constructor."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class TransformMatrix(Frozen):
    """Nonnegative integer matrix mapping source multi-indices to target ones.

    `rows[i][r]` is the weight of source coordinate r in target coordinate i.
    The matrix acts on exponent vectors via `monomial_image` and on nothing
    else; it is shape-validated at construction and immutable afterwards.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        frozen = tuple(tuple(row) for row in rows)
        if not frozen or not frozen[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(frozen[0])
        for row in frozen:
            if len(row) != width:
                raise DimensionMismatch("matrix rows have unequal lengths")
            for a in row:
                if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                    raise ValueError(
                        f"matrix entries must be nonnegative integers, got {a!r}"
                    )
        super().__init__(frozen)

    @property
    def num_targets(self) -> int:
        return len(self.rows)

    @property
    def num_sources(self) -> int:
        return len(self.rows[0])

    def column(self, r: int) -> tuple:
        return tuple(row[r] for row in self.rows)


def monomial_image(matrix: TransformMatrix, exponents: Sequence[int]) -> tuple:
    """Push a source exponent vector forward: component i is sum_r a[i][r]*j[r].

    This is the exponent bookkeeping behind substituting a monomial for each
    source variable: t_r -> prod_i z_i^(a[i][r]) sends z-degree j to image(j).
    """
    j = check_exponents(exponents)
    if len(j) != matrix.num_sources:
        raise DimensionMismatch(
            f"exponent vector has length {len(j)}, matrix has "
            f"{matrix.num_sources} source coordinates"
        )
    return tuple(sum(a * e for a, e in zip(row, j)) for row in matrix.rows)


def fiber_degree_bounds(matrix: TransformMatrix, target: Sequence[int]):
    """Largest value each source coordinate can take inside the fiber box.

    For a target box bounded by `target`, coordinate r of any solution of
    image(j) <= target satisfies j_r <= min over rows i with a[i][r] > 0 of
    target_i // a[i][r]. Columns of zeros constrain nothing: the bound for
    those coordinates is None (infinite).
    """
    k = check_exponents(target)
    if len(k) != matrix.num_targets:
        raise DimensionMismatch(
            f"target has length {len(k)}, matrix has {matrix.num_targets} rows"
        )
    bounds = []
    for r in range(matrix.num_sources):
        col = matrix.column(r)
        caps = [k[i] // a for i, a in enumerate(col) if a > 0]
        bounds.append(min(caps) if caps else None)
    return bounds


def _steps(column, table, residual, last=False) -> list:
    """(x, residual - x * column) for each x with a nonzero table[x] that
    keeps the residual nonnegative, each residual the one before it less the
    column; for the last coordinate only those that empty it, found
    directly: just the largest x can, unless column is 0."""
    hi = min([len(table) - 1] + [v // a for v, a in zip(residual, column) if a > 0])
    if last and any(column):
        residual = tuple(v - hi * a for v, a in zip(residual, column))
        return [] if any(residual) or not table[hi] else [(hi, residual)]
    steps = []
    for x in range(hi + 1):
        if table[x]:
            steps.append((x, residual))
        residual = tuple(map(sub, residual, column))
    return [] if last and any(residual) else steps


def fiber_sum(matrix: TransformMatrix, target: Sequence[int], tables, start=1):
    """start * sum of prod_r tables[r][j_r] over j with image(j) == target and
    j_r < len(tables[r]), by a dynamic program over the coordinates that
    keeps one partial sum per residual target - partial image. Unit tables
    count the fiber; an unreachable target gives the zero of start's type."""
    sums = {tuple(target): start}
    for r, table in enumerate(tables):
        column, step, last = matrix.column(r), {}, r == len(tables) - 1
        for residual, acc in sums.items():
            for x, nxt in _steps(column, table, residual, last):
                step[nxt] = step.get(nxt, 0) + acc * table[x]
        sums = step
    return sums.get((0,) * matrix.num_targets, 0 * start)


def fiber_points(matrix: TransformMatrix, target: Sequence[int], tables, start=1) -> list:
    """[(j, start * prod_r tables[r][j_r])] over the j of fiber_sum with every
    table entry nonzero, in lexicographic order. Each residual is entered
    once, with the tails that take it to 0; one that cannot adds no point."""
    d = len(tables)

    @functools.cache
    def tails(r, residual):
        if r == d:
            return [()]  # the last step emptied the residual
        steps = _steps(matrix.column(r), tables[r], residual, r == d - 1)
        return [(x,) + tail for x, nxt in steps for tail in tails(r + 1, nxt)]

    return [(j, math.prod((table[x] for table, x in zip(tables, j)), start=start))
            for j in tails(0, tuple(target))]
