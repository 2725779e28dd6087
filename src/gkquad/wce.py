"""Worst-case error in the Gaussian-kernel RKHS and convergence constants.

For a rule Q with nodes x and weights w, the squared worst-case error
over the unit ball of the kernel's RKHS is

    e(Q)^2 = mu(k_mu) + sum_ij w_i w_j k(x_i, x_j) - 2 sum_i w_i k_mu(x_i).

The three terms are accumulated with compensated summation and the
square root is taken last; tiny negative values from cancellation are
clamped, anything below -1e-14 signals broken inputs and raises.

The geometric convergence constants for the scaled-node rules are

    tau = sqrt(a^2 / (a^2 + d^2 + e^2)),   lam = e^2 / (a^2 + d^2 + e^2),
    eta = sqrt(lam) exp(1 / b^2),          C1 = 1.087 sqrt(b),
    C2 = sqrt(tau) / (1 - sqrt(lam)),

with a = 1/sqrt(2) fixed by the standard Gaussian measure.  The rule's
error obeys e(Q_N) <= (1 + C1 W_N) C2 eta^N, where W_N bounds the
absolute weight sum.  eta < 1 for every length scale; the generalized
check with exponent rho/(2 b^2) stays below one for all length scales
exactly when rho <= 2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailureError
from .exact import kernel_mean, kernel_mean_mean
from .gauss_hermite import QuadratureRule
from .mercer import GaussianKernel, MercerBasis, basis_from, eigenvalue

__all__ = [
    "HERMITE_SUP_CONSTANT",
    "RATE_CAP",
    "WceReport",
    "ConvergenceConstants",
    "worst_case_error",
    "theoretical_constants",
    "eta_lemma_check",
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
    kmat = kern.value(nodes[:, None], nodes[None, :])
    term_quadratic = math.fsum((weights[:, None] * weights[None, :] * kmat).ravel())
    term_cross = math.fsum(weights * np.atleast_1d(kernel_mean(ell, nodes)))

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


def theoretical_constants(basis: MercerBasis) -> ConvergenceConstants:
    """Constants (tau, lam, eta, C1, C2) of the error bound for this basis."""
    tau = eigenvalue(basis, 0)
    lam = basis.eigenvalue_ratio
    eta = math.sqrt(lam) * math.exp(1.0 / basis.beta**2)
    c1 = HERMITE_SUP_CONSTANT * math.sqrt(basis.beta)
    c2 = math.sqrt(tau) / (1.0 - math.sqrt(lam))
    return ConvergenceConstants(tau=tau, lam=lam, eta=eta, c1=c1, c2=c2)


def eta_lemma_check(ell: float, rho: float) -> bool:
    """Whether sqrt(lam) * exp(rho / (2 beta^2)) < 1 at this length scale.

    True for every ell > 0 exactly when rho <= 2; for rho > 2 the value
    crosses one near eps^2 = 1 / (4 (rho - 2)).
    """
    if rho < 0 or not math.isfinite(rho):
        raise DomainError(f"rho must be finite and nonnegative, got {rho}")
    basis = basis_from(ell)
    lam = basis.eigenvalue_ratio
    return math.sqrt(lam) * math.exp(rho / (2.0 * basis.beta**2)) < 1.0


def multivariate_constants(basis: MercerBasis, d: int) -> tuple[float, float]:
    """Constants (C, eta) of the tensor-product bound C W^d eta^M.

    W >= 1 bounds every factor's absolute weight sum and enters the bound
    as W^d on the caller's side.  The measure is the standard Gaussian,
    a = 1/sqrt(2), in every dimension.
    """
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    consts = theoretical_constants(basis)
    eta = consts.eta
    if eta >= 1.0:
        raise NumericalFailureError("eta >= 1; the multivariate bound degenerates")
    factor = HERMITE_SUP_CONSTANT * math.sqrt(consts.tau * basis.beta) / (1.0 - eta)
    big_c = 2.0 * d * factor**d
    return big_c, eta
