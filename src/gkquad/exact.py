"""Exact Gaussian-kernel quadrature weights from the kernel linear system.

Given nodes x_1..x_N, the weights solve K w = k_mu with
[K]_ij = k(x_i, x_j) and [k_mu]_i the kernel mean at x_i.  Under the
standard Gaussian measure the kernel mean has the closed form

    k_mu(x) = l / sqrt(1 + l^2) * exp(-x^2 / (2 (1 + l^2))),

and its own mean is mu(k_mu) = l / sqrt(2 + l^2).

The system is solved by Cholesky factorization with no automatic
regularization: if the matrix is numerically indefinite the solve is
rejected with an ill-conditioning error carrying the condition estimate.
An optional ridge (default 0) is available for callers who explicitly
want K + ridge I.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError
from .gauss_hermite import check_size
from .mercer import GaussianKernel, check_length_scale

__all__ = [
    "KernelSystem",
    "kernel_mean",
    "kernel_mean_mean",
    "kernel_system",
    "exact_weights",
]


@dataclass(frozen=True)
class KernelSystem:
    """Kernel matrix, embedding vector and condition estimate for a node set."""

    kernel_matrix: np.ndarray
    embedding_vector: np.ndarray
    condition_estimate: float

    def __post_init__(self):
        self.kernel_matrix.setflags(write=False)
        self.embedding_vector.setflags(write=False)


def kernel_mean(ell: float, x):
    """Kernel mean k_mu(x) under the standard Gaussian measure.

    Accepts scalar or array x; values lie in (0, l / sqrt(1 + l^2)].
    """
    check_length_scale(ell)
    xs = np.asarray(x, dtype=float)
    amp = ell / math.sqrt(1.0 + ell * ell)
    out = amp * np.exp(-(xs * xs) / (2.0 * (1.0 + ell * ell)))
    if xs.ndim == 0:
        return float(out)
    return out


def kernel_mean_mean(ell: float) -> float:
    """Initial error mu(k_mu) = l / sqrt(2 + l^2), in (0, 1)."""
    check_length_scale(ell)
    return ell / math.sqrt(2.0 + ell * ell)


def _condition_estimate(matrix: np.ndarray) -> float:
    """Spectral condition estimate max|eig| / min|eig| of a symmetric matrix."""
    eigs = np.abs(np.linalg.eigvalsh(matrix))
    smallest = eigs[eigs > 0].min(initial=np.inf)
    if not np.isfinite(smallest):
        return np.inf
    return float(eigs.max() / smallest)


def kernel_system(nodes, ell: float, ridge: float = 0.0) -> KernelSystem:
    """Assemble the kernel matrix and embedding vector for a node set.

    Raises
    ------
    SizeError
        If the node count is outside [1, N_MAX].
    DomainError
        If nodes are non-finite or duplicated, or parameters are out of
        range.
    """
    nodes = np.asarray(nodes, dtype=float).ravel()
    check_size(nodes.size, "node count")
    if not np.all(np.isfinite(nodes)):
        raise DomainError("nodes must be finite")
    if np.unique(nodes).size != nodes.size:
        raise DomainError("nodes must be distinct")
    if ridge < 0 or not math.isfinite(ridge):
        raise DomainError(f"ridge must be a finite nonnegative value, got {ridge}")
    kern = GaussianKernel(ell)
    matrix = kern.value(nodes[:, None], nodes[None, :])
    if ridge:
        matrix = matrix + ridge * np.eye(nodes.size)
    embedding = np.atleast_1d(kernel_mean(ell, nodes))
    return KernelSystem(
        kernel_matrix=matrix,
        embedding_vector=embedding,
        condition_estimate=_condition_estimate(matrix),
    )


def exact_weights(nodes, ell: float, ridge: float = 0.0) -> tuple[np.ndarray, float]:
    """Solve K w = k_mu for the exact kernel quadrature weights.

    Returns
    -------
    (weights, condition_estimate)

    Raises
    ------
    IllConditionedError
        If the Cholesky factorization breaks down (matrix numerically
        not positive definite); the error carries the condition
        estimate.  No jitter is applied implicitly.
    """
    system = kernel_system(nodes, ell, ridge)
    try:
        lower = np.linalg.cholesky(system.kernel_matrix)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(
            f"kernel matrix is numerically not positive definite "
            f"(condition estimate {system.condition_estimate:.3e}): {exc}",
            system.condition_estimate,
        ) from exc
    half = np.linalg.solve(lower, system.embedding_vector)
    weights = np.linalg.solve(lower.T, half)
    return weights, system.condition_estimate
