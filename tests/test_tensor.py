"""Tensor-grid cubature, separability and the closed-form test integrand."""

import math

import numpy as np
import pytest

from gkquad import approx_rule, basis_from, gh_rule, tensor_integrate, tensor_rule
from gkquad.errors import DomainError, EvaluationError, SizeError
from gkquad.exact import exact_weights
from gkquad.gauss_hermite import QuadratureRule
from gkquad.tensor import (
    DIM_MAX,
    GRID_MAX,
    ProductIntegrand,
    SeparableGaussianKernel,
    TensorRule,
    gaussian_poly_integrand,
)


def test_grid_weights_are_plain_products():
    f0, f1 = gh_rule(4), gh_rule(3)
    rule = tensor_rule([f0, f1])
    for idx, node, weight in rule.points():
        i, j = idx
        assert node == (f0.nodes[i], f1.nodes[j])
        assert weight == f0.weights[i] * f1.weights[j]


def test_enumeration_is_odometer_ordered_and_complete():
    rule = tensor_rule([gh_rule(2), gh_rule(3)])
    seen = [idx for idx, _, _ in rule.points()]
    assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert rule.size == 6
    assert rule.dimension == 2
    assert isinstance(rule, TensorRule)


def test_single_factor_reduces_to_the_base_rule():
    r = gh_rule(9)
    rule = tensor_rule([r])
    f, _ = gaussian_poly_integrand(1, [4], [0.8], 1.0)
    direct = math.fsum(w * f((x,)) for x, w in zip(r.nodes, r.weights))
    assert tensor_integrate(rule, f) == direct


def test_integral_factorizes_across_dimensions():
    # The cubature sum over the full grid must agree with the product of
    # the per-dimension sums; compensated summation keeps the two paths
    # within a unit or so of rounding of each other.
    powers, sharps, ell = (6, 4, 2), (1.5, 3.0, 0.5), 1.2
    f, _ = gaussian_poly_integrand(3, powers, sharps, ell)
    for n in (5, 9, 12):
        rule = tensor_rule([gh_rule(n)] * 3)
        tensored = tensor_integrate(rule, f)
        product = 1.0
        for mi, ci in zip(powers, sharps):
            g, _ = gaussian_poly_integrand(1, [mi], [ci], ell)
            r = gh_rule(n)
            product *= math.fsum(w * g((x,)) for x, w in zip(r.nodes, r.weights))
        assert abs(tensored - product) <= 4e-16 * abs(product)


def test_closed_form_integral_against_quadrature():
    f, exact = gaussian_poly_integrand(1, [6], [1.5], 1.2)
    r = gh_rule(60)
    q = math.fsum(w * f((x,)) for x, w in zip(r.nodes, r.weights))
    assert abs(q - exact) <= 1e-12


def test_odd_power_integral_is_literal_zero():
    f, exact = gaussian_poly_integrand(2, [3, 2], [1.0, 1.0], 1.0)
    assert exact == 0.0
    assert tensor_integrate(tensor_rule([gh_rule(7), gh_rule(5)]), f) == 0.0


def test_zero_power_closed_form():
    _, exact = gaussian_poly_integrand(2, [0, 0], [2.0, 0.3], 1.1)
    want = (1.0 + 2.0 / 1.21) ** -0.5 * (1.0 + 0.3 / 1.21) ** -0.5
    assert exact == want


def test_integrand_guards():
    with pytest.raises(DomainError):
        gaussian_poly_integrand(0, [], [], 1.0)
    with pytest.raises(DomainError):
        gaussian_poly_integrand(2, [1], [1.0, 1.0], 1.0)
    with pytest.raises(DomainError):
        gaussian_poly_integrand(1, [-2], [1.0], 1.0)
    with pytest.raises(DomainError):
        gaussian_poly_integrand(1, [2], [0.0], 1.0)
    with pytest.raises(DomainError):
        gaussian_poly_integrand(1, [2], [4.0], 1.0)
    with pytest.raises(DomainError):
        gaussian_poly_integrand(1, [2], [1.0], 0.0)
    # (m - 1)!! fits in a float up to m = 300, not at m = 302; a product
    # of factors that each fit can still overflow.
    assert math.isfinite(gaussian_poly_integrand(1, [300], [1.0], 1.0)[1])
    with pytest.raises(DomainError):
        gaussian_poly_integrand(1, [302], [1.0], 1.0)
    with pytest.raises(DomainError):
        gaussian_poly_integrand(2, [300, 300], [0.01, 0.01], 10.0)


def _per_point(f):
    """The same integrand as a plain callable, which takes the per-point path."""
    return lambda x: f(x)


def test_product_path_is_bit_identical_to_the_per_point_path():
    basis = basis_from(1.2)
    approx = [approx_rule(basis, n).rule for n in (3, 8, 13)]
    solved = [QuadratureRule(r.nodes, exact_weights(r.nodes, 1.2)[0]) for r in approx[:2]]
    uniform = []
    for n in (4, 9):
        x = np.linspace(-2.5, 2.5, n)
        uniform.append(QuadratureRule(x, exact_weights(x, 1.2)[0]))
    grids = [
        [gh_rule(7), gh_rule(5)],  # test_odd_power_integral_is_literal_zero's grid
        [gh_rule(9)],
        [approx[2]],
        [solved[0]],
        [uniform[1]],
        [gh_rule(6), approx[1]],
        [solved[1], uniform[0]],
        [approx[1], gh_rule(4), uniform[1]],
        [solved[0], approx[2], gh_rule(5)],
    ]
    powers = {1: [[6], [3]], 2: [[3, 2], [4, 0], [1, 5]], 3: [[6, 4, 2], [2, 3, 0], [1, 1, 1]]}
    # Criterion 10's integrand on its own rules, and on uniform nodes at
    # l = 0.6: grids where grouping the weight products differently
    # changes the sum.
    x = approx_rule(basis_from(0.6), 7).rule.nodes
    x = np.linspace(x[0], x[-1], 7)
    cases = [(g, m, 1.2) for g in grids for m in powers[len(g)]] + [
        ([approx_rule(basis, n).rule] * 3, [6, 4, 2], 1.2) for n in (12, 14, 22)
    ] + [([QuadratureRule(x, exact_weights(x, 0.6)[0])] * 3, [6, 4, 2], 0.6)]
    for factors, m, ell in cases:
        d = len(factors)
        rule = tensor_rule(factors)
        f, _ = gaussian_poly_integrand(d, m, [1.5, 3.0, 0.5][:d], ell)
        fast, slow = tensor_integrate(rule, f), tensor_integrate(rule, _per_point(f))
        assert fast.hex() == slow.hex(), ([len(r) for r in factors], m, ell, fast, slow)


def test_product_integrand_calls_each_factor_once_per_node():
    calls = []

    def counted(k):
        return lambda x: calls.append(k) or 1.0 + k * x * x

    rule = tensor_rule([gh_rule(4), gh_rule(6), gh_rule(5)])
    f = ProductIntegrand(tuple(counted(k) for k in range(3)))
    value = tensor_integrate(rule, f)
    assert sorted(calls) == [0] * 4 + [1] * 6 + [2] * 5
    calls.clear()
    assert value == tensor_integrate(rule, _per_point(f))
    assert len(calls) == 3 * rule.size


def test_product_integrand_of_another_dimension_is_refused():
    f, _ = gaussian_poly_integrand(2, [2, 2], [1.0, 1.0], 1.0)
    assert f((0.5, 0.25)) == f.factors[0](0.5) * f.factors[1](0.25)
    for x in [(0.5,), (0.5, 0.5, 0.5)]:
        with pytest.raises(DomainError):
            f(x)
    for factors in [[gh_rule(5)], [gh_rule(5)] * 3]:
        rule = tensor_rule(factors)
        with pytest.raises(DomainError):
            tensor_integrate(rule, f)
        with pytest.raises(DomainError):
            tensor_integrate(rule, _per_point(f))


def _evaluation_error(rule, f):
    with pytest.raises(EvaluationError) as info:
        tensor_integrate(rule, f)
    return str(info.value), info.value.multi_index


def test_non_finite_integrand_value_is_located():
    rule = tensor_rule([gh_rule(3), gh_rule(3)])

    def bad(x):
        return float("nan") if x[0] > 0 and x[1] > 0 else 1.0

    assert _evaluation_error(rule, bad) == (
        "integrand returned nan at grid point (2, 2)", (2, 2))

    # The product path reports the same point and value as the per-point
    # path: for one non-finite factor, for finite factors whose product
    # overflows (the head axis times a slab axis, and two slab axes),
    # and for the test integrand once x**m overflows.
    def huge_if_positive(x):
        return 1e200 if x > 0 else 1.0

    cases = [
        (ProductIntegrand((lambda x: 1.0, lambda x: math.inf if x > 0 else x, lambda x: 2.0)),
         tensor_rule([gh_rule(3)] * 3), "inf", (0, 2, 0)),
        (ProductIntegrand((huge_if_positive, lambda x: 1.0, huge_if_positive)),
         tensor_rule([gh_rule(3), gh_rule(2), gh_rule(3)]), "inf", (2, 0, 2)),
        (ProductIntegrand((huge_if_positive, huge_if_positive)),
         tensor_rule([gh_rule(4), gh_rule(5)]), "inf", (2, 3)),
        (gaussian_poly_integrand(2, [151, 151], [0.01, 0.01], 4.0)[0],
         tensor_rule([gh_rule(200)] * 2), "inf", (0, 0)),
    ]
    with np.errstate(over="ignore"):
        for f, grid, value, idx in cases:
            want = (f"integrand returned {value} at grid point {idx}", idx)
            assert _evaluation_error(grid, f) == want
            assert _evaluation_error(grid, _per_point(f)) == want


def test_dimension_and_grid_guards():
    with pytest.raises(SizeError):
        tensor_rule([])
    with pytest.raises(SizeError):
        tensor_rule([gh_rule(2)] * (DIM_MAX + 1))
    with pytest.raises(DomainError):
        tensor_rule([gh_rule(2), object()])
    assert tensor_rule([gh_rule(200)] * 3).size == 8_000_000 <= GRID_MAX
    with pytest.raises(SizeError):
        tensor_rule([gh_rule(200)] * 4)


def test_separable_kernel_values():
    k = SeparableGaussianKernel((1.0, 2.0))
    assert k.value((0.3, -1.0), (0.3, -1.0)) == 1.0
    a, b = (0.0, 0.0), (1.0, 2.0)
    assert k.value(a, b) == k.value(b, a)
    assert abs(k.value(a, b) - math.exp(-(0.5 + 0.5))) <= 1e-16
    with pytest.raises(DomainError):
        k.value((0.0,), (0.0, 1.0))
    with pytest.raises(DomainError):
        SeparableGaussianKernel(())
    with pytest.raises(DomainError):
        SeparableGaussianKernel((1.0, -2.0))


def test_tensor_rule_is_frozen():
    rule = tensor_rule([gh_rule(2)])
    with pytest.raises(Exception):
        rule.factors = ()


def _oracle_scaled_rule(mp, ell: float, n: int):
    """Nodes and weights of the n-point scaled Gauss-Hermite kernel rule.

    Built without the library at the working precision: the roots t_i
    of He_n, Newton-polished from numpy's hermegauss, scaled to t_i / beta
    with beta^2 = sqrt(1 + 4 / l^2).  The first n kernel eigenfunctions
    span exp(-delta^2 x^2) x^k for k < n, delta^2 = (beta^2 - 1) / 4, so
    the weights integrate those exactly; their Gaussian means are the
    moments (k - 1)!! (1 + 2 delta^2)^(-(k + 1) / 2) for even k.
    """
    beta_sq = mp.sqrt(1 + 4 / mp.mpf(ell) ** 2)
    delta_sq = (beta_sq - 1) / 4
    nodes = []
    for guess in np.polynomial.hermite_e.hermegauss(n)[0]:
        t = mp.mpf(float(guess))
        for _ in range(4):
            prev, cur = mp.mpf(1), t
            for k in range(1, n):
                prev, cur = cur, t * cur - k * prev
            t -= cur / (n * prev)  # He_n' = n He_{n-1}
        nodes.append(t / mp.sqrt(beta_sq))
    scale = 1 + 2 * delta_sq
    means = mp.matrix(
        [mp.fac2(k - 1) * scale ** (-mp.mpf(k + 1) / 2) if k % 2 == 0 else 0 for k in range(n)]
    )
    moments = mp.matrix([[mp.exp(-delta_sq * x * x) * x**k for x in nodes] for k in range(n)])
    return nodes, mp.lu_solve(moments, means)


def test_criterion_10_errors_match_a_50_digit_oracle():
    # Criterion 10's pin: with the d = 3 defaults the scaled-rule error
    # first reaches 1e-6 at n = 14.  The oracle gives 2.6408e-6 (n = 11),
    # 2.1779e-6 (12), 2.4805e-6 (13) and 9.6796e-8 (14), and the library
    # agrees with it to about 1e-10 relative.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    ell, m, c = 1.2, (6, 4, 2), (1.5, 3.0, 0.5)
    f, exact = gaussian_poly_integrand(3, m, c, ell)
    basis = basis_from(ell)
    with mpmath.workdps(50):
        def factor(x, mi, ci):
            return mp.exp(-mp.mpf(ci) * x * x / (2 * mp.mpf(ell) ** 2)) * x**mi

        # Each factor has an even power, so its integral is twice the half-line one.
        integral = mp.fprod(
            2 * mp.quad(lambda x: factor(x, mi, ci) * mp.npdf(x), [0, mp.inf])
            for mi, ci in zip(m, c)
        )
        assert abs(integral - exact) <= 1e-15 * integral
        for n in (11, 12, 13, 14):
            nodes, weights = _oracle_scaled_rule(mp, ell, n)
            estimate = mp.fprod(
                mp.fsum(w * factor(x, mi, ci) for x, w in zip(nodes, weights))
                for mi, ci in zip(m, c)
            )
            oracle = float(abs(estimate - integral))
            assert (oracle <= 1e-6) == (n == 14), (n, oracle)
            got = abs(tensor_integrate(tensor_rule([approx_rule(basis, n).rule] * 3), f) - exact)
            assert abs(got - oracle) <= 1e-8 * oracle, (n, got, oracle)
