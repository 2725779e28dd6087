"""Write the Gauss-Hermite rule table that the gkquad package ships.

Builds every rule n = 1..N_MAX with ``_golub_welsch`` below and saves
them as one float64 array of shape (2, N_MAX (N_MAX + 1) / 2): nodes in
row 0, weights in row 1, the n-point rule at columns n (n - 1) / 2 up
to n (n + 1) / 2 - 1.  Run from the repository root:

    PYTHONPATH=src python tools/make_gh_rules.py [OUT]

OUT defaults to src/gkquad/gh_rules.npy, the file the package reads.
A node whose polynomial residual exceeds the bound aborts the run with
a non-zero exit before anything is written.

Nodes are the roots of the probabilists' Hermite polynomial H_N,
computed as eigenvalues of the symmetric tridiagonal Jacobi matrix
(zero diagonal, off-diagonals sqrt(1..N-1)) and polished with one
Newton step.  Weights use the Christoffel-function identity

    w_n = 1 / sum_{k<N} hhat_k(x_n)^2,

which equals the squared first eigenvector component of the Jacobi
matrix but stays componentwise accurate down to the extreme nodes,
whose weights sit far below the eigensolver's absolute eigenvector
accuracy.  Weights are positive by construction and sum to one; the
largest node is below 2 sqrt(N - 1).
"""

import math
import sys

import numpy as np

from gkquad.errors import NumericalFailureError
from gkquad.gauss_hermite import _TABLE_PATH, N_MAX, QuadratureRule
from gkquad.hermite import normalized_table

# Polished nodes are expected to satisfy |hhat_N(x_n)| below this times
# the largest |hhat_k(x_n)| over k <= N; a worse residual raises
# NumericalFailureError.
_RESIDUAL_TOL = 1e-8


def _golub_welsch(n: int) -> QuadratureRule:
    """The n-point rule computed anew: the construction of the shipped table."""
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
    # to the bit without extra averaging.  Squaring into a C-ordered
    # array makes each row contiguous, so np.sum adds it pairwise, the
    # order the shipped table was built with.
    table = normalized_table(nodes, n)
    weights = 1.0 / np.sum(np.square(table[:, :n], order="C"), axis=1)

    residual = np.abs(table)
    rel = residual[:, n] / residual.max(axis=1)
    if np.any(rel > _RESIDUAL_TOL):
        worst = int(np.argmax(rel))
        raise NumericalFailureError(
            f"node {worst} of the {n}-point rule has polynomial residual "
            f"{rel[worst]:.3e} above {_RESIDUAL_TOL:.1e}"
        )
    return QuadratureRule(nodes, weights)


def main(argv: list[str]) -> int:
    out = argv[0] if argv else _TABLE_PATH
    rules = [_golub_welsch(n) for n in range(1, N_MAX + 1)]
    table = np.stack([
        np.concatenate([rule.nodes for rule in rules]),
        np.concatenate([rule.weights for rule in rules]),
    ])
    np.save(out, table, allow_pickle=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
