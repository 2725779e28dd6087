"""Worst-case error in the Gaussian-kernel RKHS and convergence constants.

For a rule Q with nodes x and weights w, the squared worst-case error
over the unit ball of the kernel's RKHS is

    e(Q)^2 = mu(k_mu) + sum_ij w_i w_j k(x_i, x_j) - 2 sum_i w_i k_mu(x_i).

Each of the sums is exactly rounded (see ``_exact_sum``), and the
square root is taken last; tiny negative values from cancellation are
clamped, anything below -1e-14 signals broken inputs and raises.  So
does a term that is not finite, or a sum beyond the float range.  The
quadratic sum runs over the full N x N matrix of terms.

The geometric convergence constants for the scaled-node rules are, in
the terms r = 2 / l and s = sqrt(1 + r^2) of ``gkquad.mercer``,

    tau = 2 / (s + 1),   lam = (s - 1) / (s + 1),   u = 1 / s,
    eta = sqrt(lam) exp(u),   C1 = 1.087 sqrt(beta),   C2 = (1 + sqrt(lam)) / sqrt(tau),

read from the basis, where each is formed once.  The rule's error obeys
e(Q_N) <= (1 + C1 W_N) C2 eta^N, where W_N bounds the absolute weight
sum.  The rate -ln(eta) = artanh(u) - u is summed as u^k / k over odd
k >= 3 where u < 0.875 (l < 3.61), with eta = exp(-rate), so no digits
cancel as l -> 0: eta <= 1, and eta < 1 wherever -ln(eta) > eps / 2.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, as_index
from .exact import kernel, kernel_mean, kernel_mean_mean
from .gauss_hermite import QuadratureRule
from .mercer import MercerBasis

__all__ = [
    "HERMITE_SUP_CONSTANT",
    "WceReport",
    "ConvergenceConstants",
    "worst_case_error",
    "theoretical_constants",
    "multivariate_constants",
]

# Sharp constant K with hhat_n(x)^2 <= K^2 exp(x^2 / 2) for all n, x.
HERMITE_SUP_CONSTANT = 1.087

_NEGATIVE_TOL = 1e-14


@dataclass(frozen=True)
class WceReport:
    """Worst-case error of a rule."""

    wce: float


@dataclass(frozen=True)
class ConvergenceConstants:
    """Bound constants for one length scale, beside the basis's tau and lam: the rate -ln(eta),
    at most 352.85 (at l = 4.74e153), is artanh(u) - u = sum of u^k / k over odd k >= 3."""

    eta: float
    rate: float
    c1: float
    c2: float


def worst_case_error(rule: QuadratureRule, ell: float) -> WceReport:
    """Worst-case integration error of a rule in the RKHS of scale ell.

    Raises
    ------
    NumericalFailureError
        If the squared error evaluates below -1e-14, which only happens
        for inconsistent inputs (e.g. weights from a failed solve); if a
        term w_i w_j k(x_i, x_j) or w_i k_mu(x_i) is not finite; or if
        the quadratic or the cross sum lies beyond the float range.
    """
    nodes = rule.nodes
    weights = rule.weights

    with np.errstate(over="ignore", invalid="ignore"):  # such terms are refused below
        quadratic = np.multiply.outer(weights, weights) * kernel(ell, nodes[:, None], nodes[None, :])
        cross = weights * kernel_mean(ell, nodes)
    squared = kernel_mean_mean(ell) + _exact_sum(quadratic) - 2.0 * _exact_sum(cross)
    if squared < -_NEGATIVE_TOL:
        raise NumericalFailureError(
            f"squared worst-case error {squared:.3e} is negative beyond "
            f"roundoff; inputs are inconsistent"
        )
    return WceReport(wce=math.sqrt(max(squared, 0.0)))


# Window j of _exact_sum holds the terms whose leading bit lies in
# [u, u + 26), u = 26 j + _UNIT_LOW; _UNIT_LOW is the lowest subnormal
# bit, so every finite term has a window.  Terms are binned _BLOCK at a
# time, a size whose temporaries stay in cache; a bin then takes at most
# _BLOCK pieces, and _BLOCK * (2**_SPLIT - 1) < 2**53.
_WINDOW = 26
_SPLIT = 39
_UNIT_LOW = -1074
_BINS = (1023 - _UNIT_LOW) // _WINDOW + 1
# Shifts of the bins _window_bins returns, the high pieces' units
# 2**(u - 13) for each window and then the low pieces' 2**(u - 52), over
# the lowest of them, 2**(_UNIT_LOW - 52); _ONE is 1.0 in that unit.
_SHIFTS = [j * _WINDOW + k * _SPLIT for k in (1, 0) for j in range(_BINS)]
_ONE = 1 << (2 * _SPLIT - _WINDOW - _UNIT_LOW)
_BLOCK = 8192


def _exact_sum(terms: np.ndarray) -> float:
    """The exactly rounded sum of the terms: ``math.fsum``'s bits where it has a value.

    A finite term t whose leading bit lies in the 26-bit window of unit
    2**u is written, without rounding, as high 2**(u - 13) + low
    2**(u - 52): high is t scaled by 2**(13 - u) and truncated, low the
    fraction left times 2**39, both integers below 2**39 that together
    carry t's 53 significant bits.  Each piece is added into its
    window's bin of its kind; a bin that takes at most 2**14 pieces
    holds an integer below 2**53, which float64 adds exactly in any
    order.  The bins of every block, shifted to their units as Python
    integers, sum to the terms' sum in units of 2**-1126 exactly, and
    int true division by _ONE rounds that once.  NumericalFailureError
    if a term is nan or infinite, or if the sum is beyond the float range.
    """
    t = np.ravel(terms)
    finite = np.isfinite(t)
    if not finite.all():
        raise NumericalFailureError(f"a worst-case error term is {t[np.argmin(finite)]}")
    total = 0
    for start in range(0, t.size, _BLOCK):
        bins = _window_bins(t[start:start + _BLOCK])
        nonzero = np.flatnonzero(bins).tolist()
        total += sum(b << _SHIFTS[j] for b, j in zip(bins[nonzero].astype(np.int64).tolist(), nonzero))
    try:
        return total / _ONE  # int true division rounds correctly
    except OverflowError:
        raise NumericalFailureError("a worst-case error sum lies beyond the float range") from None


def _window_bins(t: np.ndarray) -> np.ndarray:
    """Per-window sums of the high pieces of the finite terms t, then of the low pieces."""
    s, exponent = np.frexp(t)  # |t| in [2**(exponent - 1), 2**exponent)
    window = (exponent - (1 + _UNIT_LOW)) // _WINDOW  # holds the leading bit
    scale = window * -_WINDOW
    scale += _SPLIT - _WINDOW - _UNIT_LOW  # 13 - u
    np.ldexp(t, scale, out=s)  # below 2**39
    high = np.trunc(s)
    s -= high
    s *= 2.0**_SPLIT  # low
    return np.concatenate([np.bincount(window, high, _BINS), np.bincount(window, s, _BINS)])


def theoretical_constants(basis: MercerBasis) -> ConvergenceConstants:
    """Constants (eta, rate, C1, C2) of the error bound for this basis."""
    tau, lam, u = basis.tau, basis.eigenvalue_ratio, basis.u
    if u < 0.875:  # the series keeps the digits -ln(eta) loses; its tail from k = 267 is < 0.1 ulp
        rate = math.fsum(u**k / k for k in range(3, 267, 2))
        eta = math.exp(-rate)
    else:
        eta = math.sqrt(lam) * math.exp(u)
        rate = -math.log(eta)
    c1 = HERMITE_SUP_CONSTANT * math.sqrt(basis.beta)
    c2 = (1.0 + math.sqrt(lam)) / math.sqrt(tau)
    return ConvergenceConstants(eta=eta, rate=rate, c1=c1, c2=c2)


def multivariate_constants(basis: MercerBasis, d: int) -> tuple[float, float]:
    """Constants (C, eta) of the tensor-product bound C W^d eta^M.

    W >= 1 bounds every factor's absolute weight sum and enters the bound
    as W^d on the caller's side.  The measure is the standard Gaussian,
    a = 1/sqrt(2), in every dimension.
    """
    d = as_index(d, "dimension", 1, sys.maxsize)
    consts = theoretical_constants(basis)
    if consts.rate < sys.float_info.min:  # then so is 1 - eta = -expm1(-rate): l < 8.1e-103
        raise NumericalFailureError(f"1 - eta is below the smallest normal float at length scale "
                                    f"{basis.length_scale}; the multivariate bound degenerates")
    factor = HERMITE_SUP_CONSTANT * math.sqrt(basis.tau * basis.beta) / -math.expm1(-consts.rate)
    try:
        big_c = 2.0 * d * factor**d
    except OverflowError:
        big_c = math.inf
    if big_c == math.inf:
        raise NumericalFailureError(
            f"the multivariate bound constant C overflows a float at dimension {d}")
    return big_c, consts.eta
