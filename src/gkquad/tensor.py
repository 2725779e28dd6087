"""Tensor-product cubature over Cartesian grids of one-dimensional rules.

Grid nodes are tuples drawn from the per-dimension node lists and the
grid weight is the plain product of the per-dimension weights.  A rule
that is exact for each factor's eigenfunctions is exact for products of
them, which is what transfers the one-dimensional exactness to the
separable Gaussian kernel.

Grids are enumerated lazily in odometer order (last index fastest), so
no d-dimensional array is ever materialized; a size guard caps the
total point count.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, EvaluationError, SizeError
from .gauss_hermite import QuadratureRule
from .mercer import check_length_scale

__all__ = [
    "DIM_MAX",
    "GRID_MAX",
    "SeparableGaussianKernel",
    "TensorRule",
    "tensor_rule",
    "tensor_integrate",
    "gaussian_poly_integrand",
]

DIM_MAX = 6
GRID_MAX = 10**7


@dataclass(frozen=True)
class SeparableGaussianKernel:
    """Product of one-dimensional Gaussian kernels, one length scale each."""

    length_scales: tuple[float, ...]

    def __post_init__(self):
        if len(self.length_scales) == 0:
            raise DomainError("at least one length scale is required")
        for ell in self.length_scales:
            check_length_scale(ell)

    def value(self, x, y) -> float:
        if len(x) != len(self.length_scales) or len(y) != len(self.length_scales):
            raise DomainError("point dimension does not match the kernel")
        exponent = 0.0
        for xi, yi, ell in zip(x, y, self.length_scales):
            exponent += (xi - yi) ** 2 / (2.0 * ell * ell)
        return math.exp(-exponent)


@dataclass(frozen=True)
class TensorRule:
    """Cartesian product of one-dimensional quadrature rules."""

    factors: tuple[QuadratureRule, ...]

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def size(self) -> int:
        return math.prod(len(f) for f in self.factors)

    def points(self) -> Iterator[tuple[tuple[int, ...], tuple[float, ...], float]]:
        """Yield (multi_index, node_tuple, weight) in odometer order.

        The weight is the left-to-right product of the factor weights,
        with no further arithmetic.
        """
        ranges = [range(len(f)) for f in self.factors]
        for idx in itertools.product(*ranges):
            node = tuple(f.nodes[i] for f, i in zip(self.factors, idx))
            weight = math.prod(f.weights[i] for f, i in zip(self.factors, idx))
            yield idx, node, weight


def tensor_rule(factors) -> TensorRule:
    """Assemble a tensor rule from a sequence of one-dimensional rules.

    Raises
    ------
    SizeError
        If the dimension is outside [1, DIM_MAX] or the grid would
        exceed GRID_MAX points.
    """
    factors = tuple(factors)
    if not 1 <= len(factors) <= DIM_MAX:
        raise SizeError(f"dimension must be in [1, {DIM_MAX}], got {len(factors)}")
    for f in factors:
        if not isinstance(f, QuadratureRule):
            raise DomainError("factors must be QuadratureRule instances")
    size = math.prod(len(f) for f in factors)
    if size > GRID_MAX:
        raise SizeError(f"grid of {size} points exceeds the guard {GRID_MAX}")
    return TensorRule(factors=factors)


def tensor_integrate(rule: TensorRule, f: Callable[..., float]) -> float:
    """Apply the cubature rule to f, called with one node tuple per point.

    Accumulation uses exact compensated summation over the full grid in
    odometer order, so the result is independent of any partitioning of
    the enumeration.

    Raises
    ------
    EvaluationError
        If f returns a non-finite value; the error carries the offending
        multi-index.
    """
    def terms():
        for idx, node, weight in rule.points():
            value = f(node)
            if not math.isfinite(value):
                raise EvaluationError(
                    f"integrand returned {value} at grid point {idx}", idx
                )
            yield weight * value

    return math.fsum(terms())


def gaussian_poly_integrand(d: int, m, c, ell: float):
    """Monomial-times-Gaussian test integrand with a closed-form integral.

    f(x) = prod_i exp(-c_i x_i^2 / (2 l^2)) x_i^{m_i}, integrated against
    the d-dimensional standard Gaussian measure.  Odd powers integrate
    to zero; for even powers each factor contributes

        (m_i - 1)!! * (1 + c_i / l^2)^(-(m_i + 1) / 2).

    Parameters
    ----------
    d : int
        Dimension; must match len(m) == len(c).
    m : sequence of int
        Nonnegative monomial powers.
    c : sequence of float
        Gaussian sharpness parameters, each in (0, 4).
    ell : float
        Kernel length scale l > 0 entering the exponent scaling.

    Returns
    -------
    (f, exact) : callable and float
        f takes a d-tuple; exact is the closed-form integral value.
    """
    m = tuple(int(v) for v in m)
    c = tuple(float(v) for v in c)
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    if len(m) != d or len(c) != d:
        raise DomainError("m and c must both have length d")
    if any(v < 0 for v in m):
        raise DomainError("powers must be nonnegative")
    if any(not 0.0 < v < 4.0 for v in c):
        raise DomainError("each c_i must lie in the open interval (0, 4)")
    check_length_scale(ell)

    two_ell_sq = 2.0 * ell * ell

    def f(x) -> float:
        value = 1.0
        for xi, mi, ci in zip(x, m, c):
            value *= math.exp(-ci * xi * xi / two_ell_sq) * xi**mi
        return value

    if any(mi % 2 == 1 for mi in m):
        return f, 0.0

    exact = 1.0
    for mi, ci in zip(m, c):
        double_fact = 1
        for k in range(mi - 1, 0, -2):
            double_fact *= k
        exact *= double_fact * (1.0 + ci / (ell * ell)) ** (-(mi + 1) / 2.0)
    return f, exact
