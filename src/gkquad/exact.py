"""The Gaussian kernel, its means, and exact weights from the kernel linear system.

The kernel is k(x, y) = exp(-(x - y)^2 / (2 l^2)).  Under the standard
Gaussian measure its mean has the closed form

    k_mu(x) = l / sqrt(1 + l^2) * exp(-x^2 / (2 (1 + l^2))),

and the mean of that is mu(k_mu) = l / sqrt(2 + l^2).  Above
l = 1.34e154, where l^2 has no float, the kernel and both means are 1.

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
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError
from .gauss_hermite import check_nodes
from .mercer import check_length_scale

__all__ = [
    "CONDITION_MAX",
    "KernelSystem",
    "kernel",
    "kernel_mean",
    "kernel_mean_mean",
    "kernel_system",
    "exact_weights",
]

# Largest condition estimate at which a solve is attempted.  On
# Gauss-Hermite nodes the eigvalsh estimate rises monotonically in N up
# to this crossing, and it turns noisy only past about 1e16.
CONDITION_MAX = 1e15


@dataclass(frozen=True)
class KernelSystem:
    """Kernel matrix, embedding vector and condition estimate for a node set."""

    kernel_matrix: np.ndarray
    embedding_vector: np.ndarray
    condition_estimate: float

    def __post_init__(self):
        self.kernel_matrix.setflags(write=False)
        self.embedding_vector.setflags(write=False)


def kernel(ell: float, x, y):
    """Kernel values k(x, y) for scalar or broadcast array arguments."""
    ell = check_length_scale(ell)
    try:
        scale = 2.0 * ell**2
    except OverflowError:
        scale = math.inf
    with np.errstate(over="ignore"):  # a distance squared past the float range gives k = 0
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return np.exp(-(d * d) / scale)


def kernel_mean(ell: float, x):
    """Kernel mean k_mu(x) under the standard Gaussian measure.

    Accepts scalar or array x; values lie in (0, l / sqrt(1 + l^2)].
    """
    ell = check_length_scale(ell)
    xs = np.asarray(x, dtype=float)
    ell_sq = ell * ell
    amp = ell / math.sqrt(1.0 + ell_sq) if ell_sq < math.inf else 1.0
    with np.errstate(over="ignore"):  # a square past the float range gives k_mu = 0
        out = amp * np.exp(-(xs * xs) / (2.0 * (1.0 + ell_sq)))
    if xs.ndim == 0:
        return float(out)
    return out


def kernel_mean_mean(ell: float) -> float:
    """Initial error mu(k_mu) = l / sqrt(2 + l^2), in (0, 1]."""
    ell = check_length_scale(ell)
    return ell / math.sqrt(2.0 + ell * ell) if ell * ell < math.inf else 1.0


def _condition_estimate(matrix: np.ndarray) -> float:
    """Spectral condition estimate max|eig| / min|eig| of a symmetric matrix."""
    eigs = np.abs(np.linalg.eigvalsh(matrix))
    smallest = eigs[eigs > 0].min(initial=np.inf)
    if not np.isfinite(smallest):
        return np.inf
    return float(eigs.max() / smallest)


def kernel_system(nodes, ell: float) -> KernelSystem:
    """Assemble the kernel matrix and embedding vector for a node set.

    Raises
    ------
    SizeError
        If the node count is outside [1, N_MAX].
    DomainError
        If nodes are non-finite or duplicated, or parameters are out of
        range.
    """
    nodes = check_nodes(nodes)
    matrix = kernel(ell, nodes[:, None], nodes[None, :])
    return KernelSystem(
        kernel_matrix=matrix,
        embedding_vector=kernel_mean(ell, nodes),
        condition_estimate=_condition_estimate(matrix),
    )


def exact_weights(nodes, ell: float) -> tuple[np.ndarray, float]:
    """Solve K w = k_mu for the exact kernel quadrature weights.

    Returns
    -------
    (weights, condition_estimate)

    Raises
    ------
    IllConditionedError
        If the condition estimate exceeds CONDITION_MAX (``check`` is
        ``"condition"``), or else if the Cholesky factorization breaks
        down (``check`` is ``"cholesky"``); the error carries the
        condition estimate.  No jitter is applied implicitly.
    """
    system = kernel_system(nodes, ell)
    cond = system.condition_estimate
    if cond > CONDITION_MAX:
        raise IllConditionedError(
            f"condition estimate {cond:.3e} exceeds CONDITION_MAX = {CONDITION_MAX:.0e}",
            cond,
            "condition",
        )
    try:
        lower = np.linalg.cholesky(system.kernel_matrix)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"kernel matrix is numerically not positive definite "
            f"(condition estimate {cond:.3e}): {exc}",
            cond,
            "cholesky",
        ) from exc
    half = np.linalg.solve(lower, system.embedding_vector)
    weights = np.linalg.solve(lower.T, half)
    return weights, cond
