"""Exact kernel quadrature weights, means and conditioning diagnostics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gkquad import gh_rule
from gkquad.approx import qr_weights
from gkquad.errors import DomainError, IllConditionedError, SizeError
from gkquad.exact import (
    CONDITION_MAX,
    exact_weights,
    kernel,
    kernel_mean,
    kernel_mean_mean,
)
from gkquad.gauss_hermite import N_MAX, QuadratureRule
from gkquad.mercer import basis_from
from gkquad.wce import worst_case_error
from oracles import ELL_MAX, TOO_LARGE, gaussian_pdf, kernel_matrix

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
    w, cond = exact_weights([0.0], 1.0)
    assert w.tolist() == [1.0 / math.sqrt(2.0)]
    assert cond == 1.0


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


def test_condition_estimate_grows_with_size():
    conds = [exact_weights(gh_rule(n).nodes, 1.0)[1] for n in (2, 8, 15, 30)]
    assert all(b > a for a, b in zip(conds, conds[1:]))
    assert conds[0] > 1.0


def test_wide_kernel_solve_is_rejected_not_regularized():
    with pytest.raises(IllConditionedError) as info:
        exact_weights(gh_rule(20).nodes, 4.0)
    assert info.value.condition_estimate >= 1e15


def test_failure_onset_by_length_scale():
    # Wider kernels are refused at far smaller N.  The onsets follow from
    # CONDITION_MAX alone, not from where Cholesky happens to break down:
    # on Gauss-Hermite nodes the estimate rises monotonically up to the
    # crossing (1.99e14 -> 3.20e15 at ell=4, 8.39e14 -> 1.29e15 at ell=1)
    # and stays above it through N_MAX.
    for ell, last, first in ((4.0, 13, 14), (1.0, 75, 76)):
        _, cond = exact_weights(gh_rule(last).nodes, ell)
        assert cond <= CONDITION_MAX
        for n in range(first, N_MAX + 1):
            with pytest.raises(IllConditionedError) as info:
                exact_weights(gh_rule(n).nodes, ell)
            assert info.value.condition_estimate > CONDITION_MAX, (ell, n)
            assert info.value.check == "condition", (ell, n)


def test_cholesky_breakdown_is_a_refusal(monkeypatch):
    def broken(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    nodes = gh_rule(5).nodes
    _, cond = exact_weights(nodes, 1.0)
    monkeypatch.setattr(np.linalg, "cholesky", broken)
    with pytest.raises(IllConditionedError) as info:
        exact_weights(nodes, 1.0)
    assert info.value.check == "cholesky"
    assert info.value.condition_estimate == cond <= CONDITION_MAX


@pytest.mark.parametrize("nodes, ell", [([0.0, 1e-9], 1.0), ([0.0, 0.1], 1e10)])
def test_singular_matrix_is_refused_as_infinitely_ill_conditioned(nodes, ell):
    # K is all ones, so eigvalsh finds an exact zero eigenvalue: the
    # estimate is inf and the condition check refuses the solve, rather
    # than an estimate of 1 leaving the refusal to Cholesky.
    assert kernel_matrix(nodes, ell).tolist() == [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(IllConditionedError) as info:
        exact_weights(nodes, ell)
    assert info.value.check == "condition"
    assert info.value.condition_estimate == math.inf


@settings(max_examples=200)
@given(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40, unique=True),
       st.floats(0.05, 1e10))
@example([-1.0, 0.25, 2.0], 0.7)
def test_every_solve_is_backward_stable_or_refused_by_the_rule(nodes, ell):
    # The whole refusal rule: a solve either returns weights with a small
    # backward residual on K, or is refused past CONDITION_MAX, or is
    # refused by Cholesky with a finite estimate at or below it.
    try:
        weights, cond = exact_weights(nodes, ell)
    except IllConditionedError as exc:
        if exc.check == "condition":
            assert exc.condition_estimate > CONDITION_MAX
        else:
            assert exc.check == "cholesky"
            assert 1.0 <= exc.condition_estimate <= CONDITION_MAX
        return
    assert 1.0 <= cond <= CONDITION_MAX
    matrix = kernel_matrix(nodes, ell)
    rhs = kernel_mean(ell, np.asarray(nodes))
    resid = np.abs(matrix @ weights - rhs).max()
    scale = np.abs(matrix).sum(axis=1).max() * np.abs(weights).max() + np.abs(rhs).max()
    assert resid <= 100 * len(nodes) * EPS * scale


def test_system_matrix_structure():
    nodes = np.array([-1.0, 0.25, 2.0])
    K = kernel_matrix(nodes, 0.7)
    assert np.array_equal(kernel(0.7, nodes[:, None], nodes[None, :]), K)
    assert K.shape == (3, 3)
    assert np.array_equal(np.diag(K), np.ones(3))
    assert np.array_equal(K, K.T)
    eigs = np.linalg.eigvalsh(K)
    _, cond = exact_weights(nodes, 0.7)
    assert cond == eigs.max() / eigs.min() >= 1.0


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


def test_far_apart_nodes_are_solved_without_a_warning():
    # (x - y)^2 and x^2 overflow to inf, so k = 0 and k_mu = 0: the
    # weights are 0 and the system is the identity, as before, but the
    # overflow no longer warns.
    nodes = np.array([-1e160, 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights, cond = exact_weights(nodes, 1.0)
        matrix = kernel(1.0, nodes[:, None], nodes[None, :])
        rhs = kernel_mean(1.0, nodes)
    assert weights.tolist() == [0.0, 0.0] and cond == 1.0
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
            nodes = np.array([0.0, ell])
            weights, cond = exact_weights(nodes, ell)
            wce = worst_case_error(QuadratureRule(nodes, weights), ell).wce
        # K = [[1, a], [a, 1]] and k_mu = [1, a] with a = exp(-1/2).
        assert weights.tolist() == [1.0, 0.0]
        assert cond == pytest.approx((1.0 + half) / (1.0 - half), rel=1e-14, abs=0)
        assert wce == 0.0
    rule = QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    for ell in TOO_LARGE:
        for call in (lambda: kernel(ell, 0.0, ell), lambda: exact_weights([0.0, 1.0], ell),
                     lambda: worst_case_error(rule, ell)):
            with pytest.raises(DomainError, match="too large: 1 / \\(2 l\\^2\\) is subnormal$"):
                call()
