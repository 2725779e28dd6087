"""Closed-form approximate kernel quadrature on scaled Gauss-Hermite nodes.

The N-point rule places its nodes at x_n = t_n / (sqrt(2) a b), where
t_n are the Gauss-Hermite nodes and b the eigendecomposition constant
beta.  Its weights admit a closed form that needs no linear solve:

    w_n = sqrt(tau) * v_n * exp(d^2 x_n^2) * S_N(t_n),

with v_n the Gauss-Hermite weights, tau = 1 / (1 + 2 d^2) = lambda_0,
d^2 = delta^2, and the even series

    S_N(t) = sum_{m <= (N-1)/2} g^m r_m hhat_{2m}(t),

where g = lambda, the eigenvalue ratio, r_m = sqrt(C(2m, m) / 4^m) and
hhat the normalized Hermite values.  Every term in S_N is bounded on the node
range, so the rule evaluates stably far past the sizes at which the
kernel linear system becomes numerically singular.  The rule integrates
the first N kernel eigenfunctions exactly.  The values hhat_{2m}(t_n)
depend on N alone, so each size computes them once and caches them as
rows, one per m, on the non-positive half of the nodes (at most 5.4 MB
for all 200 sizes).  The series adds the rows in ascending m and is
mirrored onto the rest, exact as the nodes are antisymmetric to the bit
and each Hermite recurrence step flips sign exactly.

The module also provides the QR-based weights for arbitrary nodes and
truncation length M >= N: with Phi = Q [R1 R2] the N x M eigenfunction
matrix and p = (p_1, p_2) the eigenfunction means,

    w = Q (R1^T + D R2^T)^(-1) (p_1 + D p_2),   D = L1^(-1) R1^(-1) R2 L2,

where the eigenvalue products L1^(-1) (.) L2 are elementwise powers of
the eigenvalue ratio, so only decaying factors appear.  At the rule's
own nodes no QR is needed.  With s(x) = sqrt(b) exp(-d^2 x^2) and H the
normalized Hermite table at t, U = diag(sqrt(v)) H[:, :N] is orthogonal,
as the rule is exact to degree 2N - 1, so Phi = diag(s / sqrt(v)) U [I B]
with B = H[:, :N]^T diag(v) H[:, N:M]: R1 = I, R2 = B, and B_jk = 0
unless j + k >= 2N is even.  With mu_2m = sqrt(b tau) c_m,
the system divided by that factor reads in the closed-form series
coefficients c_m = g^m r_m, and w is the closed form with those of
even j from j0 = max(0, 2N - M + 1), rounded up to even, solved: at
most (M - N) / 2 + 1 of them.  With none solved (M <= N + 1, or M = N + 2
at even N) w is the closed form to the bit, as every prefix of the
coefficients has the same bits at any length.  Every product in B is
even in t, so B sums over the cached half of the nodes with doubled
weights (the centre node once).  The rows hhat_N .. hhat_{M-1} continue
the recurrence on that half from the cached top even row and the odd
one beside it; no table is built per call.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, as_index
from .gauss_hermite import N_MAX, QuadratureRule, check_nodes, check_size, gh_rule
from .hermite import DEGREE_MAX, _continue_recurrence, normalized_table
from .mercer import (
    ALPHA_DEFAULT,
    MercerBasis,
    eigenfunction_means,
    eigenfunction_table,
    even_mean_ratios,
)

__all__ = [
    "ApproxRule",
    "scaled_nodes",
    "approx_rule",
    "even_hermite_series",
    "eigen_exactness_residual",
    "machine_truncation",
    "qr_weights",
]


@dataclass(frozen=True)
class ApproxRule:
    """A scaled Gauss-Hermite rule with closed-form kernel weights."""

    rule: QuadratureRule
    basis: MercerBasis

    def __len__(self) -> int:
        return len(self.rule)


def scaled_nodes(basis: MercerBasis, n: int) -> np.ndarray:
    """Gauss-Hermite nodes divided by sqrt(2) a beta, with a = 1/sqrt(2)."""
    return gh_rule(n).nodes / (math.sqrt(2.0) * ALPHA_DEFAULT * basis.beta)


def even_hermite_series(ratio: float, n: int) -> np.ndarray:
    """The weight series S_N at the n Gauss-Hermite nodes of gh_rule(n).

    Sums g^m r_m hhat_{2m} over m = 0..floor((n-1)/2) in ascending m, g the ratio.  Each
    factor is bounded (0 <= g < 1 in the kernel setting, r_m < 1, hhat bounded by
    1.087 exp(t^2/4)), which keeps the closed-form weights finite where the naive form overflows.
    """
    n = check_size(n)
    return _series(n, _series_coeffs(ratio, (n - 1) // 2))


def _series_coeffs(ratio: float, m_top: int) -> np.ndarray:
    """The closed-form series coefficients c_m = g^m r_m for m = 0..m_top, a fresh array."""
    return ratio ** np.arange(m_top + 1) * even_mean_ratios(m_top)


def _series(n: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] hhat_{2m} at gh_rule(n)'s nodes: the cached half, mirrored.

    numpy reduces the C-ordered (m, node) terms row by row, in ascending m
    from 0.0; one node, which numpy would sum pairwise, comes with one row.
    """
    rows = _hermite_half(n)[0]
    half = np.add.reduce(np.multiply(rows, coeffs[:, None], order="C"), axis=0)
    return np.concatenate([half, half[: n // 2][::-1]])


@functools.cache
def _hermite_half(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows from one table of degree n - 1 at the first ceil(n/2) nodes of gh_rule(n).

    The C-ordered even rows hhat_0, hhat_2, ... and the odd row beside the top one (zero at n = 1).
    """
    half = gh_rule(n).nodes[: (n + 1) // 2]
    table = normalized_table(half, n - 1)
    rows = np.array(table[:, ::2].T, order="C")
    odd = table[:, 2 * (n // 2) - 1].copy() if n > 1 else np.zeros(half.size)
    rows.setflags(write=False)
    odd.setflags(write=False)
    return rows, odd


def _hermite_half_past(n: int, m_terms: int) -> np.ndarray:
    """Rows hhat_n .. hhat_{m_terms - 1} at the cached half, continuing the cached rows."""
    rows, odd = _hermite_half(n)
    buffer = np.empty((m_terms - n + 2, odd.size))
    buffer[0], buffer[1] = (odd, rows[-1]) if n % 2 else (rows[-1], odd)  # hhat_{n-2}, hhat_{n-1}
    _continue_recurrence(gh_rule(n).nodes[: odd.size], buffer, n - 1)
    return buffer[2:]


def approx_rule(basis: MercerBasis, n: int) -> ApproxRule:
    """Build the N-point scaled Gauss-Hermite rule with closed-form weights.

    Every weight is finite: at a Gauss-Hermite node t, t^2 <= 4(N - 1) <= 796 and
    delta^2 x^2 <= t^2 / 4, so with |hhat_m(t)| <= 1.087 exp(t^2 / 4) and c_m <= 1 each
    |w| < 1e175.  QuadratureRule's finite check (DomainError) is the backstop.

    Raises
    ------
    SizeError
        If n is not an integer in [1, N_MAX].
    """
    nodes = scaled_nodes(basis, n)
    weights = _rule_weights(basis, nodes, even_hermite_series(basis.eigenvalue_ratio, nodes.size))
    return ApproxRule(rule=QuadratureRule(nodes, weights), basis=basis)


def _rule_weights(basis: MercerBasis, nodes: np.ndarray, series: np.ndarray) -> np.ndarray:
    """The closed-form weights at nodes == scaled_nodes(basis, n) for the series S at them."""
    lead = math.sqrt(basis.tau)
    return lead * gh_rule(nodes.size).weights * np.exp(basis.delta_sq * nodes * nodes) * series


def eigen_exactness_residual(approx: ApproxRule, n: int) -> float:
    """|Q(phi_n) - mu(phi_n)| for eigenfunction index n < N.

    Zero up to roundoff by construction for n < N; generally nonzero for
    n >= N, which is why the index is guarded.
    """
    n = as_index(n, "eigenfunction index", 0, len(approx) - 1, range_error=IndexError)
    values = eigenfunction_table(approx.basis, approx.rule.nodes, n + 1)[:, n]
    applied = math.fsum(approx.rule.weights * values)
    target = eigenfunction_means(approx.basis, n + 1)[n]
    return float(abs(applied - target))


def machine_truncation(basis: MercerBasis, n: int) -> int:
    """Truncation length M >= n whose neglected tail is below machine precision.

    Smallest M with lambda_M / lambda_n < machine epsilon, i.e. n plus
    ceil(ln eps / ln ratio) extra terms.  DEGREE_MAX = 921 is this M at
    l = 0.05, n = 200.  A larger M, at l <= 0.04 from n = 20 or infinite
    once the ratio rounds to 1 (at every l <= 2^-54 = 5.55e-17 and at none
    above), raises NumericalFailureError with the tail at the guard.
    """
    n = check_size(n)
    ratio = basis.eigenvalue_ratio
    m_terms = n + math.ceil(math.log(math.ulp(1.0)) / math.log(ratio)) if ratio < 1.0 else math.inf
    if m_terms > DEGREE_MAX:
        raise NumericalFailureError(
            f"truncation to machine precision at length scale {basis.length_scale} and N = {n} "
            f"needs M = {m_terms} terms, past the degree guard {DEGREE_MAX}, where "
            f"lambda_{DEGREE_MAX} / lambda_{n} is {ratio ** (DEGREE_MAX - n):.3g}")
    return m_terms


def qr_weights(basis: MercerBasis, nodes, m_terms: int) -> np.ndarray:
    """Weights of the M-term truncated-kernel rule at arbitrary nodes.

    Parameters
    ----------
    basis : MercerBasis
    nodes : array_like
        Distinct finite node locations, any order, 1 <= N <= N_MAX of them.
    m_terms : int
        Truncation length M, N <= M <= degree guard.

    Returns
    -------
    ndarray
        Weights in node order, which approach the exact kernel weights as M grows.

    Notes
    -----
    Nodes equal to ``scaled_nodes(basis, N)`` bit for bit, tested before
    any other node check, take the module docstring's closed-form rule
    with at most (M - N) / 2 + 1 of its series coefficients g^m r_m
    solved: weights symmetric to the bit, and with none solved (M <= N + 1)
    exactly those of :func:`approx_rule`; once the size's rows are cached,
    no Hermite table is built.  Other nodes take a Householder QR of Phi,
    row-equilibrated first: with Phi = D G for the diagonal of row maxima
    D, w = D^(-1) g(G) for g the displayed formula.  The scaling commutes
    through the algebra exactly, and it removes the exp-scale dynamic
    range between central and extreme rows that would otherwise dominate
    the factorization error.
    """
    x = np.asarray(nodes, dtype=float).ravel()
    # Scaled rule nodes are finite and distinct at every basis: equal bits need no check_nodes.
    own = 1 <= x.size <= N_MAX and x.tobytes() == scaled_nodes(basis, x.size).tobytes()
    nodes = x if own else check_nodes(x)
    m_terms = as_index(m_terms, "truncation length", nodes.size, DEGREE_MAX)
    if own:
        return _gauss_hermite_qr_weights(basis, nodes, m_terms)
    return _householder_qr_weights(basis, nodes, m_terms)


def _gauss_hermite_qr_weights(basis: MercerBasis, nodes: np.ndarray, m_terms: int) -> np.ndarray:
    """qr_weights at nodes == scaled_nodes(basis, n): R1 = I, and only the even j >= j0 move."""
    n = nodes.size
    js = np.arange(max(0, 2 * (n - (m_terms - 1) // 2)), n, 2)
    ks = np.arange(n + n % 2, m_terms, 2)
    coeffs = _series_coeffs(basis.eigenvalue_ratio, (m_terms - 1) // 2)
    v, rows = gh_rule(n).weights, _hermite_half(n)[0]
    h = rows.shape[1]
    doubled = 2.0 * v[:h]
    doubled[n // 2 :] = v[n // 2 : h]  # the centre node, at odd n, counts once
    b = (rows[js // 2] * doubled) @ _hermite_half_past(n, m_terms)[ks - n].T
    b[js[:, None] + ks < 2 * n] = 0.0  # zero by the rule's exactness
    b_tilde = b * basis.eigenvalue_ratio ** (ks - js[:, None])
    lhs, rhs = np.eye(js.size) + b_tilde @ b.T, coeffs[js // 2] + b_tilde @ coeffs[ks // 2]
    coeffs[js // 2] = np.linalg.solve(lhs, rhs)
    return _rule_weights(basis, nodes, _series(n, coeffs[: rows.shape[0]]))


def _householder_qr_weights(basis: MercerBasis, nodes: np.ndarray, m_terms: int) -> np.ndarray:
    """qr_weights at checked nodes and M, by a Householder QR of Phi."""
    n = nodes.size
    phi = eigenfunction_table(basis, nodes, m_terms)
    means = eigenfunction_means(basis, m_terms)
    row_scale = np.max(np.abs(phi), axis=1)
    if not (np.all(np.isfinite(row_scale)) and row_scale.min() > 0.0):
        raise NumericalFailureError("eigenfunction matrix has a zero or non-finite row at "
                                    "these nodes")
    q, r = np.linalg.qr(phi / row_scale[:, None], mode="reduced")
    r1, r2 = r[:, :n], r[:, n:]
    diag = np.abs(np.diag(r1))
    if diag.min() == 0.0 or not np.all(np.isfinite(diag)):
        raise NumericalFailureError("eigenfunction matrix is numerically rank deficient at "
                                    "these nodes")
    exponents = n + np.arange(m_terms - n)[None, :] - np.arange(n)[:, None]
    correction = np.linalg.solve(r1, r2) * basis.eigenvalue_ratio**exponents
    lhs = r1.T + correction @ r2.T
    rhs = means[:n] + correction @ means[n:]
    return (q @ np.linalg.solve(lhs, rhs)) / row_scale

