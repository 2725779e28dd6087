"""Worst-case error in the Gaussian-kernel RKHS and convergence constants.

For a rule Q with nodes x and weights w, the squared worst-case error
over the unit ball of the kernel's RKHS is

    e(Q)^2 = mu(k_mu) + sum_ij w_i w_j k(x_i, x_j) - 2 sum_i w_i k_mu(x_i).

Each of the sums is exactly rounded (``math.fsum``) with its terms fed
largest-first, and the square root is taken last; tiny negative values
from cancellation are clamped, anything below -1e-14 signals broken
inputs and raises.  The quadratic sum runs over w_i^2 and twice the
strict upper triangle, half the kernel evaluations of the full matrix.

The geometric convergence constants for the scaled-node rules are

    tau = sqrt(a^2 / (a^2 + d^2 + e^2)),   lam = e^2 / (a^2 + d^2 + e^2),
    eta = sqrt(lam) exp(1 / b^2),          C1 = 1.087 sqrt(b),
    C2 = sqrt(tau) / (1 - sqrt(lam)),

with a = 1/sqrt(2) fixed by the standard Gaussian measure.  The rule's
error obeys e(Q_N) <= (1 + C1 W_N) C2 eta^N, where W_N bounds the
absolute weight sum.  eta < 1 for every length scale.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NumericalFailureError, as_index
from .exact import kernel_mean, kernel_mean_mean
from .gauss_hermite import QuadratureRule
from .mercer import GaussianKernel, MercerBasis, eigenvalue

__all__ = [
    "HERMITE_SUP_CONSTANT",
    "RATE_CAP",
    "WceReport",
    "ConvergenceConstants",
    "worst_case_error",
    "theoretical_constants",
    "multivariate_constants",
]

# Sharp constant K with hhat_n(x)^2 <= K^2 exp(x^2 / 2) for all n, x.
HERMITE_SUP_CONSTANT = 1.087

# Cap applied when -ln(eta) overflows (eta underflowing to zero in the
# flat-kernel limit).
RATE_CAP = 1e4

_NEGATIVE_TOL = 1e-14


@dataclass(frozen=True)
class WceReport:
    """Worst-case error and its three accumulation terms."""

    wce: float
    term_mean_mean: float
    term_quadratic: float
    term_cross: float


@dataclass(frozen=True)
class ConvergenceConstants:
    """Constants of the geometric error bound for one length scale."""

    tau: float
    lam: float
    eta: float
    c1: float
    c2: float

    @property
    def rate(self) -> float:
        """Theoretical decay rate -ln(eta), capped when eta underflows."""
        if self.eta <= 0.0:
            return RATE_CAP
        return min(-math.log(self.eta), RATE_CAP)


def worst_case_error(rule: QuadratureRule, ell: float) -> WceReport:
    """Worst-case integration error of a rule in the RKHS of scale ell.

    Raises
    ------
    NumericalFailureError
        If the squared error evaluates below -1e-14, which only happens
        for inconsistent inputs (e.g. weights from a failed solve).
    """
    kern = GaussianKernel(ell)
    nodes = rule.nodes
    weights = rule.weights

    term_mean_mean = kernel_mean_mean(ell)
    # w_i w_j k(x_i, x_j) equals w_j w_i k(x_j, x_i) to the bit and
    # k(x_i, x_i) = exp(-0.0) = 1, so doubling the strict upper triangle
    # leaves the exact sum, and so the rounded one, unchanged.
    i, j = np.triu_indices(len(nodes), 1)
    upper = weights[i] * weights[j] * kern.value(nodes[i], nodes[j])
    term_quadratic = _fsum_largest_first([weights * weights, 2.0 * upper])
    term_cross = _fsum_largest_first([weights * np.atleast_1d(kernel_mean(ell, nodes))])

    squared = term_mean_mean + term_quadratic - 2.0 * term_cross
    if squared < -_NEGATIVE_TOL:
        raise NumericalFailureError(
            f"squared worst-case error {squared:.3e} is negative beyond "
            f"roundoff; inputs are inconsistent"
        )
    return WceReport(
        wce=math.sqrt(max(squared, 0.0)),
        term_mean_mean=term_mean_mean,
        term_quadratic=term_quadratic,
        term_cross=term_cross,
    )


def _fsum_largest_first(chunks: Iterable[np.ndarray]) -> float:
    """``math.fsum`` of all the chunks' terms, each chunk fed largest-first.

    fsum is exactly rounded, so the order of its inputs cannot change the
    result, a nan, or the ValueError for +inf with -inf; it only sets the
    cost, which is far lower for terms in decreasing magnitude than for
    terms that swing across hundreds of decades.  Sorting each chunk on
    its own bounds the extra memory by the largest chunk; nan sorts last
    and is still fed.
    """
    return math.fsum(itertools.chain.from_iterable(
        t[np.argsort(-np.abs(t))].tolist() for t in chunks))


def theoretical_constants(basis: MercerBasis) -> ConvergenceConstants:
    """Constants (tau, lam, eta, C1, C2) of the error bound for this basis."""
    tau = eigenvalue(basis, 0)
    lam = basis.eigenvalue_ratio
    if lam == 1.0:  # l below about 7e-17
        raise NumericalFailureError(
            f"the eigenvalue ratio rounds to 1 at length scale {basis.length_scale}; "
            "the bound constant C2 is infinite"
        )
    eta = math.sqrt(lam) * math.exp(1.0 / basis.beta**2)
    c1 = HERMITE_SUP_CONSTANT * math.sqrt(basis.beta)
    c2 = math.sqrt(tau) / (1.0 - math.sqrt(lam))
    return ConvergenceConstants(tau=tau, lam=lam, eta=eta, c1=c1, c2=c2)


def multivariate_constants(basis: MercerBasis, d: int) -> tuple[float, float]:
    """Constants (C, eta) of the tensor-product bound C W^d eta^M.

    W >= 1 bounds every factor's absolute weight sum and enters the bound
    as W^d on the caller's side.  The measure is the standard Gaussian,
    a = 1/sqrt(2), in every dimension.
    """
    d = as_index(d, "dimension", 1, sys.maxsize)
    consts = theoretical_constants(basis)
    eta = consts.eta
    if eta >= 1.0:
        raise NumericalFailureError("eta >= 1; the multivariate bound degenerates")
    factor = HERMITE_SUP_CONSTANT * math.sqrt(consts.tau * basis.beta) / (1.0 - eta)
    try:
        big_c = 2.0 * d * factor**d
    except OverflowError:
        big_c = math.inf
    if big_c == math.inf:
        raise NumericalFailureError(
            f"the multivariate bound constant C overflows a float at dimension {d}")
    return big_c, eta
