"""Tensor-product cubature over Cartesian grids of one-dimensional rules.

Grid nodes are tuples drawn from the per-dimension node lists and the
grid weight is the plain product of the per-dimension weights.  A rule
that is exact for each factor's eigenfunctions is exact for products of
them, which is what transfers the one-dimensional exactness to the
separable Gaussian kernel.

The integrand is a ``ProductIntegrand``, one factor per axis, as the
paper's test integrand is.  Its cubature sum over a product grid is the
product of the per-axis sums, so no grid is built: each factor is
evaluated once per node of its own axis, and the result is the
correctly rounded product of exact per-axis sums.
"""

import math
import operator
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, SizeError, as_index, as_real
from .gauss_hermite import QuadratureRule
from .mercer import check_length_scale

__all__ = [
    "DIM_MAX",
    "ProductIntegrand",
    "TensorRule",
    "tensor_rule",
    "tensor_integrate",
    "gaussian_poly_integrand",
]

DIM_MAX = 6


@dataclass(frozen=True)
class TensorRule:
    """Cartesian product of one-dimensional quadrature rules.

    Raises
    ------
    SizeError
        If the dimension is outside [1, DIM_MAX].
    DomainError
        If a factor is not a QuadratureRule.
    """

    factors: tuple[QuadratureRule, ...]

    def __post_init__(self):
        # A tuple, so that no factor can be added once the guards have run.
        object.__setattr__(self, "factors", tuple(self.factors))
        as_index(len(self.factors), "dimension", 1, DIM_MAX, SizeError)
        if not all(isinstance(f, QuadratureRule) for f in self.factors):
            raise DomainError("factors must be QuadratureRule instances")

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def size(self) -> int:
        return math.prod(len(f) for f in self.factors)


def tensor_rule(factors) -> TensorRule:
    """Assemble a tensor rule from a sequence of one-dimensional rules."""
    return TensorRule(factors)


@dataclass(frozen=True)
class ProductIntegrand:
    """f(x) = g_0(x_0) g_1(x_1) ... g_{d-1}(x_{d-1}), one factor per axis.

    Calling it on a point of d coordinates multiplies the factor values
    from left to right, starting from 1.0; :func:`tensor_integrate` calls
    each factor only on its own axis's nodes, as Python floats.  The
    factors are kept as a tuple; DomainError if one is not callable.
    """

    factors: tuple[Callable[[float], float], ...]

    def __post_init__(self):
        try:
            factors = tuple(self.factors)
        except TypeError:
            raise DomainError("factors must be a sequence of callables, one per axis") from None
        if not all(callable(g) for g in factors):
            raise DomainError("each factor must be callable")
        object.__setattr__(self, "factors", factors)

    def __call__(self, x) -> float:
        _check_dimension(self, len(x))
        value = 1.0
        for g, xi in zip(self.factors, x):
            value *= g(xi)
        return value


def _check_dimension(f: ProductIntegrand, d: int) -> None:
    if d != len(f.factors):
        raise DomainError(f"integrand of dimension {len(f.factors)} given {d} coordinates")


def _factor_values(axis: int, g, nodes) -> np.ndarray:
    with np.errstate(all="ignore"):  # non-finite values are refused by the caller
        values = [g(x) for x in nodes]
    try:
        with warnings.catch_warnings():  # a complex value or a cast overflow only warns
            warnings.simplefilter("error", RuntimeWarning)  # ComplexWarning's base class
            table = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError, RuntimeWarning) as exc:  # not real numbers
        raise DomainError(f"factor {axis} must return one number per node: {exc}") from exc
    if table.shape != (len(values),):
        raise DomainError(f"factor {axis} must return one number per node, "
                          f"not values of shape {table.shape[1:]}")
    return table


def tensor_integrate(rule: TensorRule, f: ProductIntegrand) -> float:
    """Apply the cubature rule to the product integrand f.

    The result is the correctly rounded product of exact per-axis sums,
    prod_k sum_j w_kj g_k(x_kj): the sum of weight * f(node) over the
    grid without rounding.  No grid is built: g_k is called once per node
    of axis k, as Python floats.  An axis where that raises or gives
    anything but one finite float per node is evaluated again on
    np.float64 nodes, on which x**300 gives inf where a float's raises.

    Raises
    ------
    DomainError
        If f is not a ProductIntegrand, its dimension differs from the
        rule's, or a factor does not return one real number per node.
    EvaluationError
        If a factor value is non-finite, with the first multi-index in
        odometer order (last index fastest) whose grid point holds one
        and f there, the left-to-right product of its factor values; or,
        with no multi-index, if the integral lies beyond the float range.
    """
    if not isinstance(f, ProductIntegrand):
        raise DomainError("the integrand must be a ProductIntegrand")
    _check_dimension(f, rule.dimension)
    tables = []
    for axis, (g, r) in enumerate(zip(f.factors, rule.factors)):
        try:
            table = _factor_values(axis, g, r.nodes.tolist())
        except Exception:  # evaluated again below, where a failure is reported
            table = None
        if table is None or not np.isfinite(table).all():
            table = _factor_values(axis, g, r.nodes)
        tables.append(table)
    # An axis's first non-finite value j is first met at grid point
    # (0, ..., j, ..., 0); the least such point comes first in odometer order.
    points = [tuple(int(np.argmin(np.isfinite(t))) if k == axis else 0 for k in range(len(tables)))
              for axis, t in enumerate(tables) if not np.isfinite(t).all()]
    if points:
        index = min(points)
        value = math.prod((float(t[i]) for t, i in zip(tables, index)), start=1.0)
        raise EvaluationError(f"integrand returned {value} at grid point {index}", index)
    numerator, shift = 1, 0
    for r, values in zip(rule.factors, tables):
        # w v = a c 2**(p + q - 106) for frexp's w = (a / 2**53) 2**p and
        # v = (c / 2**53) 2**q, with a and c integers below 2**53.
        (a, p), (c, q) = np.frexp(r.weights), np.frexp(values)
        a, c = (np.ldexp(m, 53).astype(np.int64).tolist() for m in (a, c))
        exponents = p + q - 106
        low = min(int(exponents.min()), 0)
        numerator *= sum(map(operator.lshift, map(operator.mul, a, c), (exponents - low).tolist()))
        shift -= low
    try:
        return numerator / (1 << shift)  # int true division rounds correctly
    except OverflowError:
        raise EvaluationError("the integral lies beyond the float range") from None


def gaussian_poly_integrand(d: int, m, c, ell: float):
    """Monomial-times-Gaussian test integrand with a closed-form integral.

    f(x) = prod_i exp(-c_i x_i^2 / (2 l^2)) x_i^{m_i}, integrated against
    the d-dimensional standard Gaussian measure.  Odd powers integrate
    to zero; for even powers each factor contributes

        (m_i - 1)!! * (1 + c_i / l^2)^(-(m_i + 1) / 2).

    Parameters
    ----------
    d : int
        Dimension in [1, DIM_MAX]; must match len(m) == len(c).
    m : sequence of int
        Nonnegative monomial powers; a float such as 2.5 or 2.0 is refused.
    c : sequence of float
        Gaussian sharpness parameters, each in (0, 4).
    ell : float
        Kernel length scale in about [1.49e-154, 4.74e153] entering the exponent scaling.

    Returns
    -------
    (f, exact) : ProductIntegrand and float
        f takes a d-tuple; exact is the closed-form integral value.

    Raises
    ------
    DomainError
        If an argument is out of range, or if the closed-form integral
        does not fit in a float.
    """
    d = as_index(d, "dimension", 1, DIM_MAX)
    m = tuple(as_index(v, "power", 0, sys.maxsize) for v in m)
    c = tuple(as_real(v, "each c_i") for v in c)
    if len(m) != d or len(c) != d:
        raise DomainError("m and c must both have length d")
    if any(not 0.0 < v < 4.0 for v in c):
        raise DomainError("each c_i must lie in the open interval (0, 4)")
    ell = check_length_scale(ell)

    two_ell_sq = 2.0 * ell * ell

    def factor(mi: int, ci: float) -> Callable[[float], float]:
        return lambda xi: math.exp(-ci * xi * xi / two_ell_sq) * xi**mi

    f = ProductIntegrand(tuple(factor(mi, ci) for mi, ci in zip(m, c)))

    if any(mi % 2 == 1 for mi in m):
        return f, 0.0

    exact = 1.0
    for mi, ci in zip(m, c):
        # (m_i - 1)!! fits in a float up to m_i = 300; past it, inf is refused below.
        double_fact = math.prod(range(mi - 1, 0, -2)) if mi <= 300 else math.inf
        exact *= double_fact * (1.0 + ci / (ell * ell)) ** (-(mi + 1) / 2.0)
    if not math.isfinite(exact):
        raise DomainError(f"the closed-form integral for powers {m} overflows a float")
    return f, exact
