"""Tensor-product cubature over Cartesian grids of one-dimensional rules.

Grid nodes are tuples drawn from the per-dimension node lists and the
grid weight is the plain product of the per-dimension weights.  A rule
that is exact for each factor's eigenfunctions is exact for products of
them, which is what transfers the one-dimensional exactness to the
separable Gaussian kernel.

Grids are enumerated in odometer order (last index fastest) along one
of two paths, and a size guard caps the total point count.  An arbitrary
callable is called once per grid point while the grid is enumerated
lazily.  A ``ProductIntegrand`` is evaluated once per one-dimensional
node instead, and its grid values and weights are formed one slab of
the last two axes at a time, so at most N_MAX² points are held at once
whatever the dimension.  Neither path builds the d-dimensional grid.
Both produce the same terms and take one exactly rounded sum of them
(``math.fsum``); the product path feeds each slab largest-first, which
is cheaper and, the sum being exact, returns the same bits.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, EvaluationError, SizeError
from .gauss_hermite import QuadratureRule
from .mercer import check_length_scale
from .wce import _fsum_largest_first

__all__ = [
    "DIM_MAX",
    "GRID_MAX",
    "ProductIntegrand",
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


@dataclass(frozen=True)
class ProductIntegrand:
    """f(x) = g_0(x_0) g_1(x_1) ... g_{d-1}(x_{d-1}), one factor per axis.

    Calling it on a point of d coordinates multiplies the factor values
    from left to right, starting from 1.0; :func:`tensor_integrate` uses
    the factors to evaluate each one only at its own axis's nodes.
    """

    factors: tuple[Callable[[float], float], ...]

    def __call__(self, x) -> float:
        _check_dimension(self, len(x))
        value = 1.0
        for g, xi in zip(self.factors, x):
            value *= g(xi)
        return value


def _check_dimension(f: ProductIntegrand, d: int) -> None:
    if d != len(f.factors):
        raise DomainError(f"integrand of dimension {len(f.factors)} given {d} coordinates")


def tensor_integrate(rule: TensorRule, f: Callable[..., float]) -> float:
    """Apply the cubature rule to f, a function of one node tuple.

    The terms w * f(node) over the full grid are summed exactly rounded
    (``math.fsum``), so the result is independent of the order and of any
    partitioning of the enumeration.  A :class:`ProductIntegrand` is not
    called per point: its factors are tabulated at each axis's nodes and
    multiplied out slab by slab, in the same rounding order as a call,
    and each slab is fed to the sum largest-first, so the result is the
    same bits at a fraction of the cost.

    Raises
    ------
    DomainError
        If f is a ProductIntegrand whose dimension differs from the rule's.
    EvaluationError
        If f returns a non-finite value; the error carries the offending
        multi-index.
    """
    if isinstance(f, ProductIntegrand):
        _check_dimension(f, rule.dimension)
        return _fsum_largest_first(_product_slabs(rule, f))

    def terms():
        for idx, node, weight in rule.points():
            value = f(node)
            if not math.isfinite(value):
                raise _non_finite(value, idx)
            yield weight * value

    return math.fsum(terms())


def _non_finite(value, idx: tuple[int, ...]) -> EvaluationError:
    return EvaluationError(f"integrand returned {value} at grid point {idx}", idx)


def _product_slabs(rule: TensorRule, f: ProductIntegrand) -> Iterator[np.ndarray]:
    """Yield the terms weight * f(node), one array per slab, in odometer order.

    A slab fixes every index but the last two.  Values and weights are
    products taken from left to right, as ``f(node)`` and
    ``TensorRule.points`` take them.  Before a non-finite value the
    slab's earlier terms are yielded, then the error is raised, exactly
    where the per-point loop would raise it.  Overflow and invalid
    operations are not warned about: the non-finite check reports them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tables = [np.array([g(x) for x in r.nodes], dtype=float)
                  for g, r in zip(f.factors, rule.factors)]
    weights = [r.weights for r in rule.factors]
    head_axes = max(rule.dimension - 2, 0)
    for head in itertools.product(*(range(len(t)) for t in tables[:head_axes])):
        with np.errstate(over="ignore", invalid="ignore"):
            value, weight = 1.0, 1.0
            for i, t, w in zip(head, tables, weights):
                value *= t[i]
                weight *= w[i]
            for t, w in zip(tables[head_axes:], weights[head_axes:]):
                value = np.multiply.outer(value, t)
                weight = np.multiply.outer(weight, w)
            shape, value, weight = value.shape, value.ravel(), weight.ravel()
            bad = np.flatnonzero(~np.isfinite(value))
            end = int(bad[0]) if bad.size else value.size
            terms = weight[:end] * value[:end]
        yield terms
        if bad.size:
            tail = np.unravel_index(end, shape)
            raise _non_finite(value[end], head + tuple(int(j) for j in tail))


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
    (f, exact) : ProductIntegrand and float
        f takes a d-tuple; exact is the closed-form integral value.

    Raises
    ------
    DomainError
        If an argument is out of range, or if the closed-form integral
        does not fit in a float.
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

    def factor(mi: int, ci: float) -> Callable[[float], float]:
        return lambda xi: math.exp(-ci * xi * xi / two_ell_sq) * xi**mi

    f = ProductIntegrand(tuple(factor(mi, ci) for mi, ci in zip(m, c)))

    if any(mi % 2 == 1 for mi in m):
        return f, 0.0

    exact = 1.0
    try:
        for mi, ci in zip(m, c):
            double_fact = 1
            for k in range(mi - 1, 0, -2):
                double_fact *= k
            exact *= double_fact * (1.0 + ci / (ell * ell)) ** (-(mi + 1) / 2.0)
    except OverflowError:
        exact = math.inf  # (m_i - 1)!! exceeds the float range from m_i = 302
    if not math.isfinite(exact):
        raise DomainError(f"the closed-form integral for powers {m} overflows a float")
    return f, exact
