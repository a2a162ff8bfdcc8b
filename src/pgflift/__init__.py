"""Generating functions of linearly aggregated count vectors.

Build the probability generating function of a nonnegative integer random
vector, push it through a nonnegative integer matrix to get the generating
function of the aggregate, and condition on an observed aggregate to recover
conditional pmfs and conditional factorial moments. Exact rational
arithmetic where the family allows it, plain floats where it does not, and a
brute-force enumeration oracle to check either against.
"""

from .core import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    EmptyFiber,
    ExactModeError,
    FiberError,
    TransformMatrix,
    TruncationError,
    UnboundedFiber,
    ZeroProbability,
    fiber_degree_bounds,
    monomial_image,
)
from .series import TruncatedSeries, exp_truncated
from .transform import joint_pgf, monomial_substitute
from .distributions import Distribution, Multinomial, Poisson, Table, to_fraction
from .conditioning import (
    ConditionalQuery,
    closed_form_moment,
    conditional_factorial_moment,
    conditional_pmf,
    effective_source_bounds,
    multinomial_conditional_moment,
    pgf_of_Y,
    poisson_conditional_moment,
)
from .oracle import enumerate_fiber, oracle_conditional_moment, oracle_conditional_pmf

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "ConditionalQuery",
    "DimensionMismatch",
    "Distribution",
    "EmptyFiber",
    "ExactModeError",
    "FiberError",
    "Multinomial",
    "Poisson",
    "Table",
    "TransformMatrix",
    "TruncatedSeries",
    "TruncationError",
    "UnboundedFiber",
    "ZeroProbability",
    "closed_form_moment",
    "conditional_factorial_moment",
    "conditional_pmf",
    "effective_source_bounds",
    "enumerate_fiber",
    "exp_truncated",
    "fiber_degree_bounds",
    "joint_pgf",
    "monomial_image",
    "monomial_substitute",
    "multinomial_conditional_moment",
    "oracle_conditional_moment",
    "oracle_conditional_pmf",
    "pgf_of_Y",
    "poisson_conditional_moment",
    "to_fraction",
]
