"""Worst-case error in the Gaussian-kernel RKHS and convergence constants.

For a rule Q with nodes x and weights w, the squared worst-case error
over the unit ball of the kernel's RKHS is the RKHS norm of the error
representer, in the kernel's Mercer coordinates

    e(Q)^2 = sum_n lambda_n (Q(phi_n) - mu(phi_n))^2,

a sum of non-negative terms, truncated where its neglected tail is below
machine precision (see ``worst_case_error``).  No kernel matrix is formed.

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

from .approx import _eigenvalues, _mercer_residuals, machine_truncation
from .errors import DomainError, NumericalFailureError, as_index
from .gauss_hermite import QuadratureRule
from .mercer import MercerBasis, basis_from

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


@dataclass(frozen=True)
class WceReport:
    """Worst-case error e of a rule, its truncation length M and bound B on the terms past M."""

    wce: float
    m_terms: int
    dropped_bound: float


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

    e^2 = sum_{n < M} lambda_n r_n^2 with the residuals r_n of ``_mercer_residuals``, summed with
    numpy's pairwise add over non-negative terms, at M = ``machine_truncation``.  By Cramer's
    bound |phi_n(x)| <= 1.087 sqrt(beta) e^{x^2 / 4}, and |mu(phi_n)| <= 1, every
    |r_n| <= R = 1 + 1.087 sqrt(beta) sum_i |w_i| e^{x_i^2 / 4}, so the neglected terms sum to at
    most R^2 lambda^M < R^2 eps lambda^N, as tau = 1 - lambda.  R grows as e^{x^2 / 4}: where
    the M terms' kernel at (x, x) misses k = 1 past rounding, they drop at most about B^2 of
    e^2, B the residual core's bound, and e is refused where B > 2^-26 e, as that could move
    it by eps / 2.  Gauss-Hermite rules read B / e <= 1.1e-11 (70 l in [1e-4, 1e6], each N).
    A miss within rounding, up to 16 M eps a node, can move e^2 by 16 M eps W^2, W = sum |w_i|:
    nodes -3, 14, 18 at l = 95, exact weights, read e 2.4e-12 off: the direct form's eps W^2 / e.

    Raises
    ------
    DomainError
        If rule is not a QuadratureRule (an ApproxRule's is its ``.rule``).
    NumericalFailureError
        If ``machine_truncation`` refuses, if a term lambda_n r_n^2 is not finite, if
        their sum lies beyond the float range, or if B > 2^-26 e.
    """
    if not isinstance(rule, QuadratureRule):
        raise DomainError(f"rule must be a QuadratureRule, got {type(rule).__name__}")
    basis = basis_from(ell)
    m_terms = machine_truncation(basis, len(rule))
    residuals, dropped = _mercer_residuals(basis, rule, m_terms)
    with np.errstate(over="ignore", invalid="ignore"):  # such terms are refused below
        terms = _eigenvalues(basis, m_terms) * residuals * residuals
        finite = np.isfinite(terms)
        if not finite.all():
            raise NumericalFailureError(f"a worst-case error term is {terms[np.argmin(finite)]}")
        squared = float(np.add.reduce(terms))
    if squared == math.inf:
        raise NumericalFailureError("a worst-case error sum lies beyond the float range")
    wce = math.sqrt(squared)
    if not dropped <= 2.0**-26 * wce:
        raise NumericalFailureError(f"the {m_terms} terms do not reach these nodes: the rest may "
                                    f"move the worst-case error {wce:.3e} by {dropped:.3e}")
    return WceReport(wce=wce, m_terms=m_terms, dropped_bound=dropped)


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
