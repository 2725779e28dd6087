"""Gaussian kernel eigendecomposition under the standard Gaussian measure.

For the kernel k(x, y) = exp(-(x - y)^2 / (2 l^2)) and the measure with
density (a / sqrt(pi)) exp(-a^2 x^2), the eigenpairs are known in closed
form.  The measure is fixed at the standard Gaussian, a = 1/sqrt(2)
(``ALPHA_DEFAULT``).  With

    eps = 1 / (sqrt(2) l),
    beta = (1 + (2 eps / a)^2)^(1/4),
    delta^2 = (a^2 / 2) (beta^2 - 1),

the eigenvalues and L2-normalized eigenfunctions are

    lambda_n = sqrt(a^2 / (a^2 + delta^2 + eps^2))
               * (eps^2 / (a^2 + delta^2 + eps^2))^n,
    phi_n(x) = sqrt(beta / n!) * exp(-delta^2 x^2) * H_n(sqrt(2) a beta x).

The means of the eigenfunctions under the standard Gaussian vanish for
odd n and for n = 2m equal

    mu(phi_2m) = sqrt(beta / (1 + 2 delta^2)) * r_m * g^m,

with g = 2 a^2 beta^2 / (1 + 2 delta^2) - 1 and the square-root central
binomial ratio r_m = sqrt(C(2m, m) / 4^m), computed by the recurrence
r_m = r_{m-1} sqrt((2m - 1) / (2m)).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_index, as_real
from .hermite import DEGREE_MAX, normalized_table

__all__ = [
    "ALPHA_DEFAULT",
    "MercerBasis",
    "basis_from",
    "check_length_scale",
    "eigenvalue",
    "eigenfunction_table",
    "eigenfunction_means",
    "even_mean_ratios",
]

# The measure parameter a.  Formulas use it as written: in floating point
# a**2 is 0.5000000000000001 and sqrt(2) * a is 1.0000000000000002, so
# folding it into 0.5 or 1 would change the printed tables.
ALPHA_DEFAULT = math.sqrt(0.5)


def check_length_scale(ell) -> float:
    """ell as a float; DomainError unless l^2 and 1 / (2 l^2) are normal floats.

    That is 1.4917e-154 <= l <= 4.7404e153, the largest float 4.740375954054588e153.
    """
    x = as_real(ell, "length scale")
    if not 0.0 < x < math.inf:  # also refuses an int with no float
        raise DomainError(f"length scale must be positive and finite, got {ell}")
    if x * x < sys.float_info.min:  # 4 / l^2 in beta would overflow
        raise DomainError(f"length scale {x} is too small: its square is subnormal")
    if 1.0 / (2.0 * x * x) < sys.float_info.min:  # eps^2, then the eigenvalue ratio, lose digits
        raise DomainError(f"length scale {x} is too large: 1 / (2 l^2) is subnormal")
    return x


@dataclass(frozen=True)
class MercerBasis:
    """Derived constants of the eigendecomposition for one length scale l."""

    length_scale: float
    epsilon: float
    beta: float
    delta_sq: float

    @property
    def gamma(self) -> float:
        """Geometric ratio of the even eigenfunction means."""
        a2 = ALPHA_DEFAULT**2
        return 2.0 * a2 * self.beta**2 / (1.0 + 2.0 * self.delta_sq) - 1.0

    @property
    def eigenvalue_ratio(self) -> float:
        """lambda_{n+1} / lambda_n, constant in n."""
        e2 = self.epsilon**2
        return e2 / (ALPHA_DEFAULT**2 + self.delta_sq + e2)


def basis_from(length_scale: float) -> MercerBasis:
    """Build the eigendecomposition constants for kernel length-scale l > 0.

    The measure is the standard Gaussian, a = 1/sqrt(2), for every basis.
    """
    length_scale = check_length_scale(length_scale)
    epsilon = 1.0 / (math.sqrt(2.0) * length_scale)
    beta = (1.0 + (2.0 * epsilon / ALPHA_DEFAULT) ** 2) ** 0.25
    delta_sq = 0.5 * ALPHA_DEFAULT**2 * (beta**2 - 1.0)
    return MercerBasis(
        length_scale=length_scale,
        epsilon=epsilon,
        beta=beta,
        delta_sq=delta_sq,
    )


def eigenvalue(basis: MercerBasis, n: int) -> float:
    """n-th kernel eigenvalue lambda_n, a geometric sequence in n.

    lambda_0 = sqrt(a^2 / (a^2 + delta^2 + eps^2)) doubles as the
    constant tau of the convergence bound.
    """
    n = as_index(n, "eigenvalue index", 0, sys.maxsize)
    a2 = ALPHA_DEFAULT**2
    denom = a2 + basis.delta_sq + basis.epsilon**2
    return math.sqrt(a2 / denom) * basis.eigenvalue_ratio**n


def eigenfunction_table(basis: MercerBasis, x: np.ndarray, count: int) -> np.ndarray:
    """Values phi_n(x_i) for n < count, 1 <= count <= DEGREE_MAX + 1; shape (len(x), count).

    Values past the float range turn inf or nan without a warning.
    """
    count = as_index(count, "count", 1, DEGREE_MAX + 1)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # callers refuse non-finite values
        scaled = math.sqrt(2.0) * ALPHA_DEFAULT * basis.beta * x
        envelope = math.sqrt(basis.beta) * np.exp(-basis.delta_sq * x * x)
        return np.multiply(envelope[:, None], normalized_table(scaled, count - 1), order="C")


# r_m = r_{m-1} sqrt((2m - 1) / 2m), one rounding a step in order, so
# every prefix of the full table is the recurrence run to that length.
_EVEN_MEAN_RATIOS = np.multiply.accumulate(
    [1.0] + [math.sqrt((2.0 * m - 1.0) / (2.0 * m)) for m in range(1, DEGREE_MAX // 2 + 1)])


def even_mean_ratios(m_max: int) -> np.ndarray:
    """r_m = sqrt(C(2m, m) / 4^m) for m = 0..m_max, by stable recurrence (a fresh array)."""
    m_max = as_index(m_max, "m_max", 0, DEGREE_MAX // 2)
    return _EVEN_MEAN_RATIOS[: m_max + 1].copy()


def eigenfunction_means(basis: MercerBasis, count: int) -> np.ndarray:
    """Vector of mu(phi_n) for n < count, 1 <= count <= DEGREE_MAX + 1 (the table's limit)."""
    count = as_index(count, "count", 1, DEGREE_MAX + 1)
    out = np.zeros(count)
    m_top = (count - 1) // 2
    ratios = even_mean_ratios(m_top)
    lead = math.sqrt(basis.beta / (1.0 + 2.0 * basis.delta_sq))
    powers = basis.gamma ** np.arange(m_top + 1)
    out[0 : 2 * m_top + 1 : 2] = lead * ratios * powers
    return out

