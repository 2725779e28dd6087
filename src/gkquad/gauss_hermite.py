"""Gauss-Hermite quadrature for the standard Gaussian measure.

The rules do not depend on any kernel length scale, and there is one
per supported size, so the package ships all of them: ``gh_rules.npy``
beside this module holds a float64 array of shape (2, N_MAX (N_MAX + 1)
/ 2), nodes in row 0 and weights in row 1, with the N-point rule at
columns N (N - 1) / 2 up to N (N + 1) / 2 - 1.  ``gh_rule`` reads the
file on its first call, not at import.

The table was made by ``_golub_welsch``, which stays here as the
reference the tests compare the shipped rules against.  Nodes are the
roots of the probabilists' Hermite polynomial H_N, computed as
eigenvalues of the symmetric tridiagonal Jacobi matrix (zero diagonal,
off-diagonals sqrt(1..N-1)) and polished with one Newton step.  Weights
use the Christoffel-function identity

    w_n = 1 / sum_{k<N} hhat_k(x_n)^2,

which equals the squared first eigenvector component of the Jacobi
matrix but stays componentwise accurate down to the extreme nodes,
whose weights sit far below the eigensolver's absolute eigenvector
accuracy.  Weights are positive by construction and sum to one; the
largest node is below 2 sqrt(N - 1).  Regenerate the file with

    PYTHONPATH=src python tools/make_gh_rules.py

which rewrites it in place; with numpy 2.4.6 and OpenBLAS 0.3.31 it
reproduces the shipped bytes.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericalFailureError, SizeError, as_index
from .hermite import normalized_table

__all__ = [
    "N_MAX",
    "QuadratureRule",
    "NodeResidualWarning",
    "check_size",
    "check_nodes",
    "gh_rule",
]

N_MAX = 200

_TABLE_PATH = Path(__file__).with_name("gh_rules.npy")
_TABLE_SHAPE = (2, N_MAX * (N_MAX + 1) // 2)
_TABLE_DTYPE = np.dtype("<f8")

# Polished nodes are expected to satisfy |hhat_N(x_n)| below this times
# the largest |hhat_k(x_n)| over k <= N; worse residuals are flagged
# with a warning rather than failing the construction.
_RESIDUAL_TOL = 1e-8


class NodeResidualWarning(UserWarning):
    """A polished node left a larger-than-expected polynomial residual."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a rule for the standard Gaussian measure."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.ndim != 1:
            raise DomainError("nodes and weights must be one-dimensional")
        if nodes.size != weights.size:
            raise DomainError("nodes and weights must have equal length")
        if nodes.size == 0:
            raise DomainError("a rule needs at least one node")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise DomainError("nodes and weights must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise DomainError("nodes must be strictly ascending")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        nodes.setflags(write=False)
        weights.setflags(write=False)

    def __len__(self) -> int:
        return self.nodes.size


def check_size(n, what: str = "rule size") -> int:
    """Return n as an int; raise SizeError unless it is an integer in [1, N_MAX]."""
    return as_index(n, what, 1, N_MAX, SizeError)


def check_nodes(nodes) -> np.ndarray:
    """A flat float array of 1..N_MAX finite, distinct nodes; else SizeError or DomainError."""
    nodes = np.asarray(nodes, dtype=float).ravel()
    check_size(nodes.size, "node count")
    if not np.all(np.isfinite(nodes)):
        raise DomainError("nodes must be finite")
    if np.unique(nodes).size != nodes.size:
        raise DomainError("nodes must be distinct")
    return nodes


def gh_rule(n: int) -> QuadratureRule:
    """Gauss-Hermite rule with n nodes for the standard Gaussian measure.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= N_MAX.

    Returns
    -------
    QuadratureRule
        Strictly ascending nodes, positive weights summing to one,
        symmetric about the origin.  The same object for every call
        with the same n.

    Raises
    ------
    SizeError
        If n is not an integer in [1, N_MAX].
    NumericalFailureError
        If the shipped rule table is missing, unreadable, or not a
        float64 array of the expected shape.
    """
    return _gh_rule_cached(check_size(n))


@functools.lru_cache(maxsize=None)
def _gh_rule_cached(n: int) -> QuadratureRule:
    table = _shipped_table()
    start = n * (n - 1) // 2
    return QuadratureRule(table[0, start : start + n], table[1, start : start + n])


@functools.cache
def _shipped_table() -> np.ndarray:
    try:
        table = np.load(_TABLE_PATH, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise NumericalFailureError(
            f"cannot read the Gauss-Hermite rule table {_TABLE_PATH}: {exc}"
        ) from exc
    if table.shape != _TABLE_SHAPE or table.dtype != _TABLE_DTYPE:
        raise NumericalFailureError(
            f"the Gauss-Hermite rule table {_TABLE_PATH} holds {table.dtype} of "
            f"shape {table.shape}, expected {_TABLE_DTYPE} of shape {_TABLE_SHAPE}"
        )
    table.setflags(write=False)
    return table


def _golub_welsch(n: int) -> QuadratureRule:
    """The n-point rule computed anew: the construction that made the shipped table."""
    if n == 1:
        return QuadratureRule(np.array([0.0]), np.array([1.0]))

    jacobi = np.diag(np.sqrt(np.arange(1.0, n)), 1)
    try:
        nodes = np.linalg.eigvalsh(jacobi + jacobi.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigensolver did not converge for n={n}: {exc}"
        ) from exc

    # One Newton step per node against hhat_N; hhat_N'(x) = sqrt(N) hhat_{N-1}(x).
    table = normalized_table(nodes, n)
    nodes = nodes - table[:, n] / (math.sqrt(n) * table[:, n - 1])

    # Enforce exact symmetry by averaging mirrored pairs.
    nodes = 0.5 * (nodes - nodes[::-1])

    # Christoffel weights from the polished nodes.  The row sums involve
    # only even powers under the mirror map, so mirrored weights agree
    # to the bit without extra averaging.
    table = normalized_table(nodes, n)
    weights = 1.0 / np.sum(table[:, :n] ** 2, axis=1)

    residual = np.abs(table)
    rel = residual[:, n] / residual.max(axis=1)
    if np.any(rel > _RESIDUAL_TOL):
        worst = int(np.argmax(rel))
        warnings.warn(
            f"node {worst} of the {n}-point rule has polynomial residual "
            f"{rel[worst]:.3e} above {_RESIDUAL_TOL:.1e}",
            NodeResidualWarning,
            stacklevel=2,
        )
    return QuadratureRule(nodes, weights)
