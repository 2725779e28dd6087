"""Gauss-Hermite quadrature for the standard Gaussian measure.

The rules do not depend on any kernel length scale, and there is one
per supported size, so the package ships all of them: ``gh_rules.npy``
beside this module holds a float64 array of shape (2, N_MAX (N_MAX + 1)
/ 2), nodes in row 0 and weights in row 1, with the N-point rule at
columns N (N - 1) / 2 up to N (N + 1) / 2 - 1.  ``gh_rule`` reads the
file on its first call, not at import.  Weights are positive and sum to
one; the largest node is below 2 sqrt(N - 1).

The table is built by ``tools/make_gh_rules.py``, which holds the
construction (Golub-Welsch eigenvalues, one Newton step, Christoffel
weights) and its residual check; regenerate the file with

    PYTHONPATH=src python tools/make_gh_rules.py

which rewrites it in place; with numpy 2.4.6 and OpenBLAS 0.3.31 it
reproduces the shipped bytes.
"""

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericalFailureError, SizeError, as_index

__all__ = [
    "N_MAX",
    "QuadratureRule",
    "check_size",
    "check_nodes",
    "gh_rule",
]

N_MAX = 200

_TABLE_PATH = Path(__file__).with_name("gh_rules.npy")
_TABLE_SHAPE = (2, N_MAX * (N_MAX + 1) // 2)
_TABLE_DTYPE = np.dtype("<f8")

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a rule for the standard Gaussian measure."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # Copies: the caller's arrays stay writable, and no view reaches the rule.
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or weights.ndim != 1:
            raise DomainError("nodes and weights must be one-dimensional")
        if nodes.size != weights.size:
            raise DomainError("nodes and weights must have equal length")
        if nodes.size == 0:
            raise DomainError("a rule needs at least one node")
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise DomainError("nodes and weights must be finite")
        if not (nodes[1:] > nodes[:-1]).all():
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
