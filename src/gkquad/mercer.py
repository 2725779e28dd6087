"""Gaussian kernel eigendecomposition under the standard Gaussian measure.

For the kernel k(x, y) = exp(-(x - y)^2 / (2 l^2)) and the measure with
density (a / sqrt(pi)) exp(-a^2 x^2), the eigenpairs are known in closed
form.  The measure is fixed at the standard Gaussian, a = 1/sqrt(2)
(``ALPHA_DEFAULT``).  There every constant is a function of

    r = 2 / l,   s = sqrt(1 + r^2) = beta^2,

with beta = (1 + (2 eps / a)^2)^(1/4) and eps = 1 / (sqrt(2) l):

    delta^2 = (s - 1) / 4 = (r / (s + 1)) r / 4,   u = 1 / s = 1 / beta^2,
    tau = 2 / (s + 1) = 1 / (1 + 2 delta^2),
    lambda = (s - 1) / (s + 1) = 1 - tau = q / (2 + q + 2 s),   q = r^2.

No computed form cancels: s is ``math.hypot(1, r)``, as r^2 overflows at
the bottom of the length scale domain, and for s >= 3 (l <= 0.71), where
tau <= 1/2, tau is 2 / (s + 1) and lambda = 1 - tau; above, tau is
1 / (1 + 2 delta^2) and lambda the quotient, q = 4 / l^2.  The
eigenvalues and L2-normalized eigenfunctions are

    lambda_n = tau lambda^n,
    phi_n(x) = sqrt(beta / n!) * exp(-delta^2 x^2) * H_n(sqrt(2) a beta x).

The means of the eigenfunctions under the standard Gaussian vanish for
odd n and for n = 2m equal

    mu(phi_2m) = sqrt(beta tau) * r_m * lambda^m,

with the square-root central binomial ratio r_m = sqrt(C(2m, m) / 4^m),
computed by the recurrence r_m = r_{m-1} sqrt((2m - 1) / (2m)).
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_index, as_real
from .hermite import DEGREE_MAX, _continue_recurrence

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

# The measure parameter a.  It enters only beta's formula, the node scaling
# t / (sqrt(2) a beta) and eigenfunction_table, as written: in floating
# point a**2 is 0.5000000000000001 and sqrt(2) * a is 1.0000000000000002,
# so folding it into 0.5 or 1 would move beta and every node.  lambda,
# delta^2, tau and u take a = 1/sqrt(2) exactly, through r and s.
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
    if 1.0 / (2.0 * x * x) < sys.float_info.min:  # delta^2 and lambda / 2, near it, lose digits
        raise DomainError(f"length scale {x} is too large: 1 / (2 l^2) is subnormal")
    return x


@dataclass(frozen=True)
class MercerBasis:
    """Derived constants for one length scale l: eigenvalue_ratio is lambda = lambda_{n+1} /
    lambda_n, also the ratio of the even eigenfunction means; tau = lambda_0, u = 1 / beta^2."""

    length_scale: float
    epsilon: float
    beta: float
    delta_sq: float
    eigenvalue_ratio: float
    tau: float
    u: float


def basis_from(length_scale: float) -> MercerBasis:
    """Build the eigendecomposition constants for kernel length-scale l > 0.

    The measure is the standard Gaussian, a = 1/sqrt(2), for every basis.
    """
    length_scale = check_length_scale(length_scale)
    epsilon = 1.0 / (math.sqrt(2.0) * length_scale)
    beta = (1.0 + (2.0 * epsilon / ALPHA_DEFAULT) ** 2) ** 0.25
    r = 2.0 / length_scale
    s = math.hypot(1.0, r)
    delta_sq = r / (s + 1.0) * r / 4.0
    if s >= 3.0:  # tau <= 1/2 <= lambda
        tau = 2.0 / (s + 1.0)
        lam = 1.0 - tau
    else:  # lambda < 1/2 < tau, with (s + 1) / 2 = 1 + 2 delta^2 and (s + 1)^2 = 2 + q + 2 s
        q = 4.0 / (length_scale * length_scale)
        tau, lam = 1.0 / (1.0 + 2.0 * delta_sq), q / (2.0 + q + 2.0 * s)
    return MercerBasis(length_scale, epsilon, beta, delta_sq, lam, tau, 1.0 / s)


def eigenvalue(basis: MercerBasis, n: int) -> float:
    """n-th kernel eigenvalue lambda_n = tau lambda^n, a geometric sequence in n."""
    n = as_index(n, "eigenvalue index", 0, sys.maxsize)
    return basis.tau * basis.eigenvalue_ratio**n


def eigenfunction_table(basis: MercerBasis, x: np.ndarray, count: int) -> np.ndarray:
    """Values phi_n(x_i) for n < count, 1 <= count <= DEGREE_MAX + 1; shape (len(x), count).

    The normalized Hermite recurrence runs on phi_n itself, from phi_0 =
    sqrt(beta) exp(-delta^2 x^2), so where that envelope underflows the
    row reads 0, not 0 times an overflowed hhat_n.  Values past the float
    range turn inf or nan without a warning.
    """
    count = as_index(count, "count", 1, DEGREE_MAX + 1)
    x = np.asarray(x, dtype=float)
    buffer = np.zeros((count + 1, x.size))  # row 0 stands for phi_{-1}
    with np.errstate(over="ignore", invalid="ignore"):  # callers refuse non-finite values
        buffer[1] = math.sqrt(basis.beta) * np.exp(-basis.delta_sq * x * x)
        _continue_recurrence(math.sqrt(2.0) * ALPHA_DEFAULT * basis.beta * x, buffer, 0)
    return np.ascontiguousarray(buffer[1:].T)


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
    out, m_top, lead = np.zeros(count), (count - 1) // 2, math.sqrt(basis.beta * basis.tau)
    out[::2] = lead * even_mean_ratios(m_top) * _ratio_powers(basis.eigenvalue_ratio)[: m_top + 1]
    return out


@functools.lru_cache(maxsize=16)
def _ratio_powers(ratio: float) -> np.ndarray:
    """ratio^0..ratio^DEGREE_MAX, read-only: each prefix has the bits of ratio ** np.arange(k)."""
    with np.errstate(over="ignore"):  # past the prefix a caller reads
        powers = ratio ** np.arange(DEGREE_MAX + 1)
    powers.setflags(write=False)
    return powers

