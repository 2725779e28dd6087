"""The Gaussian kernel, its means, and exact weights in the kernel's Mercer coordinates.

The kernel is k(x, y) = exp(-(x - y)^2 / (2 l^2)).  Under the standard
Gaussian measure its mean has the closed form

    k_mu(x) = l / sqrt(1 + l^2) * exp(-x^2 / (2 (1 + l^2))),

and the mean of that is mu(k_mu) = l / sqrt(2 + l^2).  Both are taken as
written: 2 (1 + l^2) is a float at every l that check_length_scale accepts.

Given nodes x_1..x_N, the exact weights solve K w = k_mu with
[K]_ij = k(x_i, x_j) and [k_mu]_i the kernel mean at x_i.  They are
solved in the kernel's Mercer coordinates, by RBF-QR (Fasshauer and
McCourt, SIAM J. Sci. Comput. 34(2), 2012): ``qr_weights`` at the
truncation length ``machine_truncation``, whose neglected eigenvalues
are below machine precision, so no N x N kernel matrix is formed or
factored.  A solve is refused, with ``NumericalFailureError``, where
``machine_truncation`` or ``qr_weights`` refuses, the latter also where
that many terms do not reach a node: their kernel sum at (x, x) falls
short of 1.
"""

import math

import numpy as np

from .approx import _qr_path, machine_truncation
from .gauss_hermite import check_nodes
from .mercer import basis_from, check_length_scale

__all__ = [
    "kernel",
    "kernel_mean",
    "kernel_mean_mean",
    "exact_weights",
]


def kernel(ell: float, x, y):
    """Kernel values k(x, y) for scalar or broadcast array arguments."""
    ell = check_length_scale(ell)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # a distance or square past the float range gives 0
        d = x - y
        return np.exp(-(d * d) / (2.0 * ell**2))


def kernel_mean(ell: float, x):
    """Kernel mean k_mu(x) under the standard Gaussian measure.

    Accepts scalar or array x; values lie in [0, l / sqrt(1 + l^2)].
    """
    ell = check_length_scale(ell)
    xs = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # a square past the float range gives 0
        out = ell / math.sqrt(1.0 + ell * ell) * np.exp(-(xs * xs) / (2.0 * (1.0 + ell * ell)))
    if xs.ndim == 0:
        return float(out)
    return out


def kernel_mean_mean(ell: float) -> float:
    """Initial error mu(k_mu) = l / sqrt(2 + l^2), in (0, 1]."""
    ell = check_length_scale(ell)
    return ell / math.sqrt(2.0 + ell * ell)


def kernel_system(nodes, ell: float) -> tuple[np.ndarray, np.ndarray]:
    """Checked nodes and K at them: no solve reads it, the benchmark still names it as a span."""
    nodes = check_nodes(nodes)
    return nodes, kernel(ell, nodes[:, None], nodes[None, :])


def exact_weights(nodes, ell: float) -> tuple[np.ndarray, int]:
    """Exact kernel quadrature weights: ``qr_weights`` at ``machine_truncation``.

    Returns
    -------
    (weights, m_terms)
        The weights in node order and the truncation length M they were solved at.

    Raises
    ------
    SizeError
        If the node count is outside [1, N_MAX].
    DomainError
        If nodes are non-finite or duplicated, or parameters are out of
        range.
    NumericalFailureError
        If ``machine_truncation`` refuses M (at l <= 0.04 from N = 20), or
        ``qr_weights`` does: at a zero or non-finite eigenfunction row, where
        R1's condition estimate is past ``FACTOR_CONDITION_MAX``, or at a
        node other than the scaled ones where the M-term kernel
        sum_n lambda_n phi_n(x)^2 misses k(x, x) = 1 by more than 16 M eps,
        as the truncation does not reach it.  No jitter is applied implicitly.
    """
    basis = basis_from(ell)
    nodes, solve = _qr_path(basis, nodes)  # the nodes are checked once, as in qr_weights
    m_terms = machine_truncation(basis, nodes.size)
    return solve(basis, nodes, m_terms), m_terms
