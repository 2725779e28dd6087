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
depend on N alone, so each size keeps them in one store of rows, one per
m, on the non-positive half of the nodes.  The series adds the rows in
ascending m and is mirrored onto the rest, exact as the nodes are
antisymmetric to the bit and each Hermite recurrence step flips sign
exactly.

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
coefficients has the same bits at any length.  B depends on N and M
alone, so each size stores it beside its rows: pairwise sums over the
stored half (B is even in t), weights doubled, the centre node once, no
BLAS call.  Rows start from (hhat_{-1}, hhat_0) = (0, 1) and run on from
a store's kept top pair, once per size and degree at any l, and give the
Mercer residuals Q(phi_n) - mu(phi_n) of a rule at its own nodes, which
``worst_case_error`` and ``eigen_exactness_residual`` read.  The rows
hold at most 37.4 MB and B 31.8 MB (all 200 sizes at DEGREE_MAX).  The
rule-node weights of the last 16 (basis, N, M) are kept: see qr_weights.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailureError, as_index
from .gauss_hermite import N_MAX, QuadratureRule, check_nodes, check_size, gh_rule
from .hermite import DEGREE_MAX, _continue_recurrence
from .mercer import (
    ALPHA_DEFAULT,
    MercerBasis,
    _ratio_powers,
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

# Largest 1-norm condition estimate of the Householder factor R1 at which
# qr_weights at other nodes returns weights (see its Notes).
FACTOR_CONDITION_MAX = 1e8


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


def _at_scaled_nodes(basis: MercerBasis, x: np.ndarray) -> bool:
    """Whether the flat float array x is scaled_nodes(basis, N) to the bit, for some N."""
    return 1 <= x.size <= N_MAX and x.tobytes() == scaled_nodes(basis, x.size).tobytes()


def even_hermite_series(ratio: float, n: int) -> np.ndarray:
    """The weight series S_N at the n Gauss-Hermite nodes of gh_rule(n).

    Sums g^m r_m hhat_{2m} over m = 0..floor((n-1)/2) in ascending m, g the ratio.  Each
    factor is bounded (0 <= g < 1 in the kernel setting, r_m < 1, hhat bounded by
    1.087 exp(t^2/4)), which keeps the closed-form weights finite where the naive form overflows.
    """
    n = check_size(n)
    return _series(n, _series_coeffs(float(ratio), (n - 1) // 2))


def _series_coeffs(ratio: float, m_top: int) -> np.ndarray:
    """The closed-form series coefficients c_m = g^m r_m for m = 0..m_top, a fresh array."""
    return _ratio_powers(ratio)[: m_top + 1] * even_mean_ratios(m_top)


def _series(n: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] hhat_{2m} at gh_rule(n)'s nodes: the stored half, mirrored.

    numpy reduces the C-ordered (m, node) terms row by row, in ascending m
    from 0.0; one node, which numpy would sum pairwise, comes with one row.
    """
    rows = _even_rows(n, n)
    half = np.add.reduce(np.multiply(rows, coeffs[:, None], order="C"), axis=0)
    return np.concatenate([half, half[: n // 2][::-1]])


# Per rule size n: the read-only C-ordered rows hhat_0, hhat_2, ... below degree D at the first
# ceil(n/2) nodes of gh_rule(n), D, and hhat_{D-2}, hhat_{D-1}, copied out of the growth block.
_HERMITE_ROWS: dict[int, tuple] = {}


def _even_rows(n: int, degrees: int) -> np.ndarray:
    """The stored rows hhat_0, hhat_2, ... below degree `degrees` >= n for gh_rule(n): a view.

    Each size starts from (hhat_{-1}, hhat_0) = (0, 1); a call past the rows runs the recurrence
    from the kept top pair into one block, whose even rows extend a new array, so no view changes.
    """
    h = (n + 1) // 2
    stored = _HERMITE_ROWS.get(n) or (np.ones((1, h)), 1, np.array([np.zeros(h), np.ones(h)]))
    if degrees > stored[1]:
        rows, top, pair = stored
        block = np.concatenate([pair, np.empty((degrees - top, h))])  # up to hhat_{degrees - 1}
        _continue_recurrence(gh_rule(n).nodes[:h], block, top - 1)
        stored = np.concatenate([rows, block[2 + top % 2 :: 2]]), degrees, block[-2:].copy()
    if _HERMITE_ROWS.get(n) is not stored:
        stored[0].setflags(write=False)
        _HERMITE_ROWS[n] = stored
    return stored[0][: (degrees + 1) // 2]


_GRAM_BLOCKS: dict[int, np.ndarray] = {}  # per rule size n, its B below the largest degree asked


def _gram_block(n: int, degrees: int) -> np.ndarray:
    """gh_rule(n)'s B_jk for the even j < n and k in [n, degrees), 0.0 where j + k < 2n, read-only:
    numpy's pairwise sums over the half nodes (weights doubled, the centre once), whose bits no
    BLAS kernel or block shape moves; more columns go, 2^14 products at a time, to a new array."""
    h = (n + 1) // 2
    stored, width = _GRAM_BLOCKS.get(n, np.empty((h, 0))), (degrees + 1) // 2 - h
    if width > stored.shape[1]:
        rows, done, step = _even_rows(n, degrees), stored.shape[1], max(1, 2**14 // (h * h))
        doubled = np.where(np.arange(h) < n // 2, 2.0, 1.0) * gh_rule(n).weights[:h]  # centre once
        weighted, past = rows[:h, None] * doubled, rows[h:]
        stored = np.concatenate([stored, np.empty((h, width - done))], axis=1)
        for k in range(done, width, step):
            np.add.reduce(weighted * past[k : k + step], axis=2, out=stored[:, k : k + step])
        stored[np.add.outer(np.arange(h), np.arange(width)) < n // 2] = 0.0
        stored.setflags(write=False)
        _GRAM_BLOCKS[n] = stored
    return stored[:, :width]


def _eigenvalues(basis: MercerBasis, m_terms: int) -> np.ndarray:
    """lambda_n = tau lambda^n for n < m_terms."""
    return basis.tau * _ratio_powers(basis.eigenvalue_ratio)[:m_terms]


def _unreached(basis: MercerBasis, table: np.ndarray) -> np.ndarray:
    """Per node of the N x M table, d = |1 - sum_n lambda_n phi_n(x)^2| where d > 16 M eps, else 0.

    1 = k(x, x), so past machine_truncation d is the tail the M terms drop at x.  Its rounding
    reaches 2.3 M eps at the scaled nodes and np.linspace between their outer ones (l from 0.05
    to 1e150, N <= 200); past 16 M eps the terms do not reach x.  Non-finite entries give nan.
    """
    m_terms = table.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = table * np.sqrt(_eigenvalues(basis, m_terms))  # sqrt(lambda_n) phi_n(x) <= 1
        deficit = np.abs(1.0 - np.add.reduce(terms * terms, axis=1))
    return np.where(deficit <= 16 * m_terms * math.ulp(1.0), 0.0, deficit)


def _mercer_residuals(basis: MercerBasis, rule: QuadratureRule,
                      m_terms: int) -> tuple[np.ndarray, float]:
    """r_n = Q(phi_n) - mu(phi_n) for n < m_terms >= len(rule), and a bound on the dropped ones.

    Q(phi_n) = sum_i w_i sqrt(b) exp(-d^2 x_i^2) hhat_n(t_i); non-finite r_n do not warn.
    At nodes == scaled_nodes(basis, N) with weights symmetric to the bit, r_n is zero at odd n
    and the even n take hhat_n at the Gauss-Hermite nodes t from the size's stored rows: each
    row is numpy's pairwise sum over the half of the nodes, weights doubled and the centre
    node once.  Other rules take t = sqrt(2) a b x in eigenfunction_table, summed in order.

    B = sum_i |w_i| sqrt(d_i), d_i from _unreached (0.0 at the own nodes, which M reaches),
    bounds (sum_{n >= M} lambda_n Q(phi_n)^2)^(1/2) past machine_truncation, by Minkowski.
    """
    n, x, w = len(rule), rule.nodes, rule.weights
    means = eigenfunction_means(basis, m_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        if not _at_scaled_nodes(basis, x) or w.tobytes() != w[::-1].tobytes():
            table = eigenfunction_table(basis, x, m_terms)
            q = np.add.reduce(np.multiply(table, w[:, None], order="C"), axis=0)
            return q - means, float(np.add.reduce(np.abs(w) * np.sqrt(_unreached(basis, table))))
        h = (n + 1) // 2
        half = w[:h] * (math.sqrt(basis.beta) * np.exp(-basis.delta_sq * x[:h] * x[:h]))
        half[: n // 2] *= 2.0
        residuals = np.zeros(m_terms)
        residuals[0::2] = np.add.reduce(_even_rows(n, m_terms) * half, axis=1) - means[0::2]
    return residuals, 0.0


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
    """|Q(phi_n) - mu(phi_n)| for eigenfunction index n < N, zero up to roundoff by construction.

    Raises
    ------
    DomainError
        If approx is not an ApproxRule.
    IndexError
        If n lies outside [0, N), as the residual is generally nonzero from n = N on.
    """
    if not isinstance(approx, ApproxRule):
        raise DomainError(f"approx must be an ApproxRule, got {type(approx).__name__}")
    n = as_index(n, "eigenfunction index", 0, len(approx) - 1, range_error=IndexError)
    return float(abs(_mercer_residuals(approx.basis, approx.rule, len(approx))[0][n]))


def machine_truncation(basis: MercerBasis, n: int) -> int:
    """Truncation length M >= n whose neglected tail is below machine precision.

    Smallest M with lambda_M / lambda_n < machine epsilon, i.e. n plus
    ceil(ln eps / ln ratio) extra terms.  DEGREE_MAX = 921 is this M at
    l = 0.05, n = 200.  A larger M, at l <= 0.04 from n = 20 or infinite
    once the ratio rounds to 1 (at every l <= 2^-54 = 5.55e-17 and at none
    above), raises NumericalFailureError with the tail at the guard.
    """
    n = check_size(n)
    m_terms = _truncation(basis, n)
    if m_terms > DEGREE_MAX:
        raise NumericalFailureError(
            f"truncation to machine precision at length scale {basis.length_scale} and N = {n} "
            f"needs M = {m_terms} terms, past the degree guard {DEGREE_MAX}, where "
            f"lambda_{DEGREE_MAX} / lambda_{n} is {basis.eigenvalue_ratio**(DEGREE_MAX - n):.3g}")
    return m_terms


def _truncation(basis: MercerBasis, n: int) -> float:
    """machine_truncation's M without its guard: inf once the ratio rounds to 1."""
    ratio = basis.eigenvalue_ratio
    return n + math.ceil(math.log(math.ulp(1.0)) / math.log(ratio)) if ratio < 1.0 else math.inf


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
    exactly those of :func:`approx_rule`; once the size's rows are stored,
    no recurrence step runs.  The last 16 such solves, keyed on
    (basis, N, M) and at most 16 N_MAX floats, are kept, and each call
    gets a fresh copy.  Other nodes take a Householder QR of Phi,
    row-equilibrated first: with Phi = D G for the diagonal of row maxima
    D, w = D^(-1) g(G) for g the displayed formula.  The scaling commutes
    through the algebra exactly, and it removes the exp-scale dynamic
    range between central and extreme rows that would otherwise dominate
    the factorization error.  That path raises NumericalFailureError where
    a row of Phi is zero or not finite; where the 1-norm condition
    estimate of R1 exceeds FACTOR_CONDITION_MAX = 1e8: nodes 1e-9 apart
    at l = 1 read 1.3e9 there, and would give weights 1.7e-9 off in the
    RKHS norm, and np.linspace nodes pass it up to N = 78 at every l; and,
    from M = machine_truncation(basis, N) on, where the M-term kernel
    sum_n lambda_n phi_n(x)^2 misses k(x, x) = 1 at a node by more than
    16 M eps, as the M terms do not reach it: one node at x = 19, l = 1.3,
    where the 31-term kernel is 2e-30, reads a weight 2.9 off in the RKHS norm.
    Below that M no node is refused: the weights are the M-term kernel's even
    where its terms miss a node, so that node at M = 30 reads 16.93, where the
    exact weight is 5.7e-30.
    """
    nodes, solve = _qr_path(basis, nodes)
    return solve(basis, nodes, as_index(m_terms, "truncation length", nodes.size, DEGREE_MAX))


def _qr_path(basis: MercerBasis, nodes) -> tuple[np.ndarray, object]:
    """Flat float nodes and their qr_weights solve; scaled rule nodes need no check_nodes."""
    x = np.asarray(nodes, dtype=float).ravel()
    if _at_scaled_nodes(basis, x):
        return x, _gauss_hermite_qr_weights
    return check_nodes(x), _householder_qr_weights


def _gauss_hermite_qr_weights(basis: MercerBasis, nodes: np.ndarray, m_terms: int) -> np.ndarray:
    """qr_weights at nodes == scaled_nodes(basis, n): a fresh copy of the memo's weights."""
    return _rule_node_weights(basis, nodes.size, m_terms).copy()


@functools.lru_cache(maxsize=16)
def _rule_node_weights(basis: MercerBasis, n: int, m_terms: int) -> np.ndarray:
    """qr_weights at scaled_nodes(basis, n), read-only: R1 = I, B stored, even j >= j0 move."""
    nodes, h = scaled_nodes(basis, n), (n + 1) // 2
    j0 = max(0, 2 * (n - (m_terms - 1) // 2))
    js, ks = np.arange(j0, n, 2), np.arange(n + n % 2, m_terms, 2)
    coeffs = _series_coeffs(basis.eigenvalue_ratio, (m_terms - 1) // 2)
    b = _gram_block(n, m_terms)[j0 // 2 :]  # the even degrees js by ks
    b_tilde = b * _ratio_powers(basis.eigenvalue_ratio)[ks - js[:, None]]
    lhs, rhs = np.eye(js.size) + b_tilde @ b.T, coeffs[js // 2] + b_tilde @ coeffs[ks // 2]
    coeffs[js // 2] = np.linalg.solve(lhs, rhs)
    weights = _rule_weights(basis, nodes, _series(n, coeffs[:h]))
    weights.setflags(write=False)
    return weights


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
    try:
        cond = np.linalg.cond(r1, 1)
    except np.linalg.LinAlgError:  # r1 is singular
        cond = math.inf
    if not cond <= FACTOR_CONDITION_MAX:
        raise NumericalFailureError(f"eigenfunction factor R1 has condition estimate {cond:.3e} "
                                    f"at these nodes, past {FACTOR_CONDITION_MAX:.0e}")
    if m_terms >= _truncation(basis, n):
        deficit = _unreached(basis, phi).max()
        if deficit != 0.0:
            raise NumericalFailureError(f"the {m_terms}-term kernel misses k(x, x) = 1 by "
                                        f"{deficit:.3e} at these nodes")
    exponents = n + np.arange(m_terms - n)[None, :] - np.arange(n)[:, None]
    correction = np.linalg.solve(r1, r2) * _ratio_powers(basis.eigenvalue_ratio)[exponents]
    lhs = r1.T + correction @ r2.T
    rhs = means[:n] + correction @ means[n:]
    return (q @ np.linalg.solve(lhs, rhs)) / row_scale

