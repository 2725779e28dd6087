"""Exact kernel quadrature weights, the kernel means, and the solve's refusals."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gkquad import approx, exact, gh_rule
from gkquad.approx import FACTOR_CONDITION_MAX, machine_truncation, qr_weights, scaled_nodes
from gkquad.errors import DomainError, NumericalFailureError, SizeError
from gkquad.exact import exact_weights, kernel, kernel_mean, kernel_mean_mean
from gkquad.gauss_hermite import N_MAX, QuadratureRule
from gkquad.mercer import basis_from, eigenfunction_table
from gkquad.wce import worst_case_error
from oracles import ELL_MAX, TOO_LARGE, gaussian_pdf, kernel_matrix, rkhs_weight_error_mp

EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("ell", [0.2, 1.0, 4.0])
def test_kernel_mean_matches_quadrature(ell):
    for x0 in (-2.0, 0.0, 0.7, 3.5):
        val, _ = quad(
            lambda t: math.exp(-((x0 - t) ** 2) / (2.0 * ell * ell)) * gaussian_pdf(t),
            -np.inf,
            np.inf,
            limit=200,
        )
        assert abs(val - kernel_mean(ell, x0)) <= 1e-10


def test_kernel_mean_special_values_and_shapes():
    assert kernel_mean(1.0, 0.0) == 1.0 / math.sqrt(2.0)
    xs = np.array([-1.0, 0.0, 2.0])
    out = kernel_mean(0.5, xs)
    assert out.shape == (3,)
    assert out[1] == 0.5 / math.sqrt(1.25)
    assert np.all(out > 0.0)
    assert out.max() == out[1]


@pytest.mark.parametrize("ell", [0.2, 1.0, 4.0])
def test_initial_error_matches_quadrature_of_kernel_mean(ell):
    val, _ = quad(lambda x: kernel_mean(ell, x) * gaussian_pdf(x), -np.inf, np.inf, limit=200)
    assert abs(val - kernel_mean_mean(ell)) <= 1e-12


def test_initial_error_special_value():
    assert kernel_mean_mean(1.0) == 1.0 / math.sqrt(3.0)


def test_single_node_weight_is_mean_ratio():
    # k_mu(0) / k(0, 0) = 1 / sqrt(2), whose correctly rounded float is
    # 0.7071067811865476 (1 / math.sqrt(2.0) is one ulp below it).
    w, m_terms = exact_weights([0.0], 1.0)
    assert w.tolist() == [float(mpmath.sqrt(mpmath.mpf(1) / 2))] == [0.7071067811865476]
    assert m_terms == machine_truncation(basis_from(1.0), 1) == 39


@pytest.mark.parametrize("n", [2, 5, 8, 15])
def test_solution_satisfies_the_linear_system(n):
    nodes = gh_rule(n).nodes
    w, _ = exact_weights(nodes, 1.0)
    resid = np.abs(kernel_matrix(nodes, 1.0) @ w - kernel_mean(1.0, nodes)).max()
    assert resid <= 1e-14


def test_weights_minimize_worst_case_error():
    # The exact weights are the WCE minimizer for fixed nodes, so any
    # perturbation can only increase the error.
    nodes = gh_rule(8).nodes
    w, _ = exact_weights(nodes, 1.0)
    base = worst_case_error(QuadratureRule(nodes, w), 1.0).wce
    rng = np.random.default_rng(0)
    for _ in range(100):
        pert = w + rng.normal(scale=1e-3, size=w.size)
        alt = worst_case_error(QuadratureRule(nodes, pert), 1.0).wce
        assert alt >= base - 1e-12


def test_wide_kernel_solve_is_solved_not_regularized():
    # At l = 4 the kernel matrix at 20 Gauss-Hermite nodes is numerically
    # singular, yet the Mercer-coordinate solve needs no jitter: its
    # RKHS-norm error is 5.9e-17 (60-digit oracle), and at most 1.27e-16
    # under the OpenBLAS SkylakeX, Haswell and Prescott kernels.
    nodes = gh_rule(20).nodes
    eigs = np.abs(np.linalg.eigvalsh(kernel_matrix(nodes, 4.0)))
    assert eigs.max() / eigs.min() >= 1e15
    weights, _ = exact_weights(nodes, 4.0)
    assert rkhs_weight_error_mp(nodes, 4.0, weights, 60) <= 2.6e-16


def test_failure_onset_by_length_scale():
    # The Cholesky solve was refused from N = 14 at l = 4 and from N = 76
    # at l = 1, where K's condition estimate crossed 1e15.  In Mercer
    # coordinates no rule size is refused at either scale; a solve at the
    # scaled nodes is refused exactly where machine_truncation is, at
    # l <= 0.04 from N = 20 (M = 922 is past the degree guard).
    for ell in (4.0, 1.0):
        basis = basis_from(ell)
        for n in range(1, N_MAX + 1):
            weights, m_terms = exact_weights(scaled_nodes(basis, n), ell)
            assert np.isfinite(weights).all() and m_terms == machine_truncation(basis, n)
    basis = basis_from(0.04)
    assert exact_weights(scaled_nodes(basis, 19), 0.04)[1] == 921
    for n in range(20, N_MAX + 1):
        with pytest.raises(NumericalFailureError, match=f"^truncation .* N = {n} needs M = "):
            exact_weights(scaled_nodes(basis, n), 0.04)


@pytest.mark.parametrize("nodes, ell", [([0.0, 1e-9], 1.0), ([0.0, 0.1], 1e10)])
def test_kernel_matrix_of_ones_is_solved_or_refused_in_mercer_coordinates(nodes, ell):
    # K is all ones in floats either way.  Nodes 1e-9 apart at l = 1 give
    # the Householder factor R1 a condition estimate of 1.3e9, past
    # FACTOR_CONDITION_MAX, and are refused.  At l = 1e10 the same matrix
    # comes from a well-posed flat limit (R1's estimate is 21): the
    # weights are (1, -2e-16) against the oracle's (1, 5e-21), 3.1e-16
    # apart in the RKHS norm.
    assert kernel_matrix(nodes, ell).tolist() == [[1.0, 1.0], [1.0, 1.0]]
    if ell == 1.0:
        with pytest.raises(NumericalFailureError, match="^eigenfunction factor R1 has condition "
                                                        "estimate 1.337e\\+09"):
            exact_weights(nodes, ell)
        return
    weights, m_terms = exact_weights(nodes, ell)
    assert m_terms == 3
    assert rkhs_weight_error_mp(nodes, ell, weights, 60) <= 2 * EPS


def _factor_condition(nodes, ell, m_terms):
    """R1's 1-norm condition estimate from a Householder QR of the row-equilibrated table."""
    phi = eigenfunction_table(basis_from(ell), np.asarray(nodes, dtype=float), m_terms)
    r = np.linalg.qr(phi / np.abs(phi).max(axis=1)[:, None], mode="r")
    return np.linalg.cond(r[:, : len(nodes)], 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40, unique=True),
       st.floats(0.05, 1e10))
@example([-1.0, 0.25, 2.0], 0.7)
@example([0.0, 1e-7], 1.0)
@example([19.0], 1.3)
def test_every_solve_is_within_its_rkhs_norm_bound_or_refused(nodes, ell):
    # Every accepted solve has R1's condition estimate k <= 1e8 and an
    # RKHS-norm error ||w - w*||_H <= eps (k + 16 M) (1 + sum |w_i|),
    # w* the full-kernel weights in 40 or more digits, 16 M eps the
    # largest miss of k(x, x) = 1 that the solve accepts.  Measured over
    # 2,000 random inputs of this kind (1 to 40 nodes in [-20, 20], l
    # log-uniform in [0.05, 1e10]), the error reads at most 0.34 of it.
    # Before the condition and the k(x, x) refusals, nodes 1e-12 apart at
    # l = 1 read ||w - w*||_H = 1.8e-6, and one node at x = 19, l = 1.3,
    # where the 31-term kernel is 2e-30 in place of k(x, x) = 1, read 2.9.
    try:
        weights, m_terms = exact_weights(nodes, ell)
    except NumericalFailureError:
        return
    cond = _factor_condition(nodes, ell, m_terms)
    assert cond <= FACTOR_CONDITION_MAX
    bound = EPS * (cond + 16 * m_terms) * (1.0 + np.abs(weights).sum())
    assert rkhs_weight_error_mp(nodes, ell, weights, 40) <= bound


def test_reach_refusal_starts_at_machine_truncation():
    # The k(x, x) check is qr_weights' own, from M = machine_truncation on,
    # where the truncated kernel stands for k; below it the caller asked
    # for a coarser kernel and gets its weights.  One node at x = 19,
    # l = 1.3: the 31-term kernel there is 2e-30, the 100-term one 0.017.
    basis = basis_from(1.3)
    assert machine_truncation(basis, 1) == 31
    assert np.isfinite(qr_weights(basis, [19.0], 30)).all()
    for m_terms, miss in ((31, "1.000e+00"), (100, "9.834e-01")):
        want = f"the {m_terms}-term kernel misses k(x, x) = 1 by {miss} at these nodes"
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(want)}$"):
            qr_weights(basis, [19.0], m_terms)
    with pytest.raises(NumericalFailureError, match="^the 31-term kernel misses"):
        exact_weights([19.0], 1.3)


def test_system_matrix_structure():
    nodes = np.array([-1.0, 0.25, 2.0])
    K = kernel_matrix(nodes, 0.7)
    assert np.array_equal(kernel(0.7, nodes[:, None], nodes[None, :]), K)
    assert K.shape == (3, 3)
    assert np.array_equal(np.diag(K), np.ones(3))
    assert np.array_equal(K, K.T)
    assert np.linalg.eigvalsh(K).min() > 0.0


def test_guards():
    with pytest.raises(DomainError):
        kernel_mean(0.0, 1.0)
    with pytest.raises(DomainError):
        kernel_mean_mean(-2.0)
    with pytest.raises(DomainError):
        exact_weights([0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        exact_weights([0.0, float("nan")], 1.0)
    with pytest.raises(DomainError):
        exact_weights([0.0, float("inf")], 1.0)
    with pytest.raises(SizeError):
        exact_weights([], 1.0)
    with pytest.raises(SizeError):
        exact_weights(np.linspace(-1, 1, 201), 1.0)


@pytest.mark.parametrize("nodes, error, message", [
    ([0.0, 1.0, 0.0], DomainError, "nodes must be distinct"),
    (np.r_[np.arange(24.0), 5.0], DomainError, "nodes must be distinct"),
    ([0.0, math.nan], DomainError, "nodes must be finite"),
    ([math.nan, math.nan], DomainError, "nodes must be finite"),
    ([], SizeError, "node count must be in [1, 200], got 0"),
    (np.linspace(-1, 1, 201), SizeError, "node count must be in [1, 200], got 201"),
])
def test_exact_weights_checks_other_nodes_once_and_scaled_ones_not_at_all(
        monkeypatch, nodes, error, message):
    # The node errors come before machine_truncation's refusal, which l =
    # 0.01 would raise from N = 20; scaled rule nodes skip check_nodes.
    check, calls = approx.check_nodes, []

    def counted(x):
        calls.append(len(x))
        return check(x)

    for module in (approx, exact):
        monkeypatch.setattr(module, "check_nodes", counted)
    for ell in (1.0, 0.01):
        calls.clear()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            exact_weights(nodes, ell)
        assert calls == [len(nodes)], ell
    b = basis_from(1.0)
    calls.clear()
    exact_weights(scaled_nodes(b, 12), 1.0)
    exact_weights(np.linspace(-1.0, 1.0, 12), 1.0)
    assert calls == [12]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_node_is_a_domain_error_without_a_warning(bad):
    # Both solvers read their nodes through one reader, so a non-finite
    # node is refused before any arithmetic can warn about it.
    b = basis_from(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda x: exact_weights(x, 1.0), lambda x: qr_weights(b, x, 3)):
            with pytest.raises(DomainError, match="nodes must be finite"):
                call([0.0, bad])


def test_far_apart_nodes_are_refused_without_a_warning():
    # (x - y)^2 and x^2 overflow to inf, so k = 0 and k_mu = 0 there and
    # K is the identity with no warning.  In Mercer coordinates every
    # eigenfunction is 0 or not finite at +-1e160, and the solve is
    # refused with that evidence, also without a warning.
    nodes = np.array([-1e160, 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="^eigenfunction matrix has a zero or "
                                                        "non-finite row at these nodes$"):
            exact_weights(nodes, 1.0)
        matrix = kernel(1.0, nodes[:, None], nodes[None, :])
        rhs = kernel_mean(1.0, nodes)
    assert matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert rhs.tolist() == [0.0, 0.0]


def test_kernel_mean_far_from_the_origin_is_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_mean(1.0, np.array([1e200])).tolist() == [0.0]
        assert kernel_mean(1.0, -1e200) == 0.0
        assert kernel(1.0, 1e160, -1e160) == 0.0


def test_length_scale_whose_square_has_no_float():
    # From l = 1.34e154, l^2 has no float, and from the nearest float past
    # ELL_MAX = 4.74e153 every length scale is refused, as eps^2 = 1 / (2 l^2)
    # is subnormal there.  Up to the top of the range, at distances this
    # small against l, the kernel, k_mu and mu(k_mu) round to 1.
    for ell in (1e150, ELL_MAX):
        assert kernel(ell, 0.0, 3.0) == 1.0
        assert kernel_mean(ell, np.array([0.0, 5.0])).tolist() == [1.0, 1.0]
        assert kernel_mean(ell, 5.0) == kernel_mean_mean(ell) == 1.0
    for ell in TOO_LARGE:
        for call in (lambda: kernel(ell, 0.0, 3.0), lambda: kernel_mean(ell, 5.0),
                     lambda: kernel_mean_mean(ell)):
            with pytest.raises(DomainError, match="too large: 1 / \\(2 l\\^2\\) is subnormal$"):
                call()
    assert kernel(0.6, 0.0, 1.0) == math.exp(-1.0 / (2.0 * 0.6**2))
    assert kernel_mean_mean(0.6) == 0.6 / math.sqrt(2.0 + 0.6 * 0.6)


def test_length_scale_whose_doubled_square_has_no_float():
    # Up to ELL_MAX = 4.74e153, 2 l^2 and 2 (1 + l^2) are floats, so a
    # distance of the order of l keeps its kernel value exp(-(d / l)^2 / 2)
    # with no warning.  Past it the length scale is refused, so no l whose
    # 2 l^2 overflows (from 9.5e153) reaches the kernel.
    half = math.exp(-0.5)
    for ell in (1e150, ELL_MAX):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kernel(ell, 0.0, ell) == pytest.approx(half, rel=4 * EPS, abs=0)
            assert kernel_mean(ell, np.array([ell])) == pytest.approx([half], rel=4 * EPS, abs=0)
            # K = [[1, a], [a, 1]] and k_mu = [1, a] with a = exp(-1/2), so
            # the exact weights are (1, 0), whose error reads 0.0.  The
            # Mercer-coordinate solve is refused: at x = l the equilibrated
            # eigenfunction row holds phi_1 and phi_2 150 orders apart.
            nodes = np.array([0.0, ell])
            refusal = "^eigenfunction factor R1 has condition estimate [0-9.]+e\\+1(49|53) "
            with pytest.raises(NumericalFailureError, match=refusal):
                exact_weights(nodes, ell)
            wce = worst_case_error(QuadratureRule(nodes, np.array([1.0, 0.0])), ell).wce
        assert wce == 0.0
    rule = QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    for ell in TOO_LARGE:
        for call in (lambda: kernel(ell, 0.0, ell), lambda: exact_weights([0.0, 1.0], ell),
                     lambda: worst_case_error(rule, ell)):
            with pytest.raises(DomainError, match="too large: 1 / \\(2 l\\^2\\) is subnormal$"):
                call()


# (l, N, digits) of the oracle solves, the digits those of the weights-compare oracle points.
EXACT_WEIGHTS_ORACLE_POINTS = [
    (0.2, 10, 40), (0.2, 30, 40), (0.2, 60, 40), (1.0, 10, 40), (1.0, 20, 40), (1.0, 40, 60),
    (1.0, 60, 80), (4.0, 10, 40), (4.0, 20, 80), (4.0, 40, 100), (4.0, 60, 140),
]


def test_exact_weights_are_at_the_float_floor_in_the_rkhs_norm():
    # ||w - w*||_H against the full-kernel oracle w*, on the scaled nodes
    # (the closed-form factor) and on np.linspace between the outer ones
    # (Householder), as wce-sweep and integrate place them.  Measured
    # worst: 2.39e-16 on the scaled nodes at (0.2, 10) and 3.64e-16 on the
    # uniform nodes at (1, 60).  About 3 s.
    for ell, n, dps in EXACT_WEIGHTS_ORACLE_POINTS:
        nodes = scaled_nodes(basis_from(ell), n)
        for x, bound in ((nodes, 4.8e-16), (np.linspace(nodes[0], nodes[-1], n), 7.3e-16)):
            weights, _ = exact_weights(x, ell)
            assert rkhs_weight_error_mp(x, ell, weights, dps) <= bound, (ell, n, x is nodes)
