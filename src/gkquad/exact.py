"""The Gaussian kernel, its means, and exact weights from the kernel linear system.

The kernel is k(x, y) = exp(-(x - y)^2 / (2 l^2)).  Under the standard
Gaussian measure its mean has the closed form

    k_mu(x) = l / sqrt(1 + l^2) * exp(-x^2 / (2 (1 + l^2))),

and the mean of that is mu(k_mu) = l / sqrt(2 + l^2).  Both are taken as
written: 2 (1 + l^2) is a float at every l that check_length_scale accepts.

Given nodes x_1..x_N, the weights solve K w = k_mu with
[K]_ij = k(x_i, x_j) and [k_mu]_i the kernel mean at x_i.  The system is
solved by Cholesky factorization with no automatic regularization.  A
solve is refused, with an ill-conditioning error that carries the
condition estimate and names the check, exactly when

  - the spectral condition estimate exceeds CONDITION_MAX = 1e15, or
  - the Cholesky factorization breaks down.

The threshold makes refusals independent of the LAPACK build: below it
the estimate is stable, while past about 1e16 whether Cholesky completes
depends on the build, so the Cholesky check is only a backstop.
"""

import math

import numpy as np

from .errors import IllConditionedError
from .gauss_hermite import check_nodes
from .mercer import check_length_scale

__all__ = [
    "CONDITION_MAX",
    "kernel",
    "kernel_mean",
    "kernel_mean_mean",
    "exact_weights",
]

# Largest condition estimate at which a solve is attempted.  On
# Gauss-Hermite nodes the eigvalsh estimate rises monotonically in N up
# to this crossing, and it turns noisy only past about 1e16.
CONDITION_MAX = 1e15


def kernel(ell: float, x, y):
    """Kernel values k(x, y) for scalar or broadcast array arguments."""
    ell = check_length_scale(ell)
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # a distance or square past the float range gives 0
        d = x - y
        return np.exp(-(d * d) / (2.0 * ell**2))


def kernel_mean(ell: float, x):
    """Kernel mean k_mu(x) under the standard Gaussian measure.

    Accepts scalar or array x; values lie in (0, l / sqrt(1 + l^2)].
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


def kernel_system(nodes, ell: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Checked nodes, K and its estimate: a step of exact_weights the benchmark times alone."""
    nodes = check_nodes(nodes)
    matrix = kernel(ell, nodes[:, None], nodes[None, :])
    eigs = np.abs(np.linalg.eigvalsh(matrix))
    cond = eigs.max() / eigs.min() if 0.0 < eigs.min() < math.inf else math.inf
    return nodes, matrix, float(cond)


def exact_weights(nodes, ell: float) -> tuple[np.ndarray, float]:
    """Solve K w = k_mu for the exact kernel quadrature weights.

    Returns
    -------
    (weights, condition_estimate)
        The estimate is max|eig| / min|eig| of K from ``eigvalsh``; it
        is infinite when the smallest |eig| is zero or not finite.

    Raises
    ------
    SizeError
        If the node count is outside [1, N_MAX].
    DomainError
        If nodes are non-finite or duplicated, or parameters are out of
        range.
    IllConditionedError
        If the condition estimate exceeds CONDITION_MAX (``check`` is
        ``"condition"``), or else if the Cholesky factorization breaks
        down (``check`` is ``"cholesky"``); the error carries the
        condition estimate.  No jitter is applied implicitly.
    """
    nodes, matrix, cond = kernel_system(nodes, ell)
    if cond > CONDITION_MAX:
        raise IllConditionedError(
            f"condition estimate {cond:.3e} exceeds CONDITION_MAX = {CONDITION_MAX:.0e}",
            cond,
            "condition",
        )
    try:
        lower = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"kernel matrix is numerically not positive definite "
            f"(condition estimate {cond:.3e}): {exc}",
            cond,
            "cholesky",
        ) from exc
    half = np.linalg.solve(lower, kernel_mean(ell, nodes))
    weights = np.linalg.solve(lower.T, half)
    return weights, cond
