"""Tensor-grid cubature, separability and the closed-form test integrand."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkquad import approx_rule, basis_from, gh_rule, tensor_integrate, tensor_rule
from gkquad.errors import DomainError, EvaluationError, SizeError
from gkquad.exact import exact_weights
from gkquad.gauss_hermite import QuadratureRule
from gkquad.tensor import (
    DIM_MAX,
    ProductIntegrand,
    TensorRule,
    gaussian_poly_integrand,
)


def _odometer_sum(rule, f):
    """The cubature sum one grid point at a time: the per-point path.

    The weight is the left-to-right product of the factor weights, f is
    called on the node tuple, the terms are summed exactly rounded, and
    the first point in odometer order (last index fastest) with a
    non-finite factor value raises with f there.  It is the reference
    for where the product path refuses.
    """
    terms = []
    for idx in itertools.product(*(range(len(r)) for r in rule.factors)):
        x = tuple(r.nodes[i] for r, i in zip(rule.factors, idx))
        value = f(x)
        if not all(math.isfinite(g(xi)) for g, xi in zip(f.factors, x)):
            raise EvaluationError(f"integrand returned {value} at grid point {idx}", idx)
        terms.append(math.prod(r.weights[i] for r, i in zip(rule.factors, idx)) * value)
    return math.fsum(terms)


def _rational_oracle(rule, f):
    """float(prod_k sum_j w_kj g_k(x_kj)) with every sum and product exact, rounded once."""
    product = Fraction(1)
    for g, r in zip(f.factors, rule.factors):
        product *= sum(Fraction(w) * Fraction(g(x)) for x, w in zip(r.nodes, r.weights))
    return float(product)


def test_grid_weights_are_plain_products():
    # An integrand that is 1 at one node tuple and 0 elsewhere picks out
    # that grid point's weight.
    f0, f1 = gh_rule(4), gh_rule(3)
    rule = tensor_rule([f0, f1])
    for i, j in itertools.product(range(4), range(3)):
        f = ProductIntegrand((lambda x, i=i: float(x == f0.nodes[i]),
                              lambda x, j=j: float(x == f1.nodes[j])))
        assert tensor_integrate(rule, f) == f0.weights[i] * f1.weights[j]


def test_enumeration_is_odometer_ordered_and_complete():
    # Unit weights and values 2**(3 i + j) at grid point (i, j): every
    # point counts once exactly when the sum is 2**6 - 1.
    ones = [QuadratureRule(np.arange(n, dtype=float), np.ones(n)) for n in (2, 3)]
    rule = tensor_rule(ones)
    assert tensor_integrate(rule, ProductIntegrand((lambda x: 8.0**x, lambda x: 2.0**x))) == 63.0
    # Row 1 and column 2 are infinite; (0, 2) comes first in odometer
    # order, (1, 0) first with the first index fastest.
    f = ProductIntegrand((lambda x: math.inf if x == 1 else 1.0,
                          lambda x: math.inf if x == 2 else 1.0))
    want = ("integrand returned inf at grid point (0, 2)", (0, 2))
    assert _evaluation_error(tensor_integrate, rule, f) == want
    assert _evaluation_error(_odometer_sum, rule, f) == want
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
    with pytest.raises(DomainError, match="too small"):  # l * l underflows to 0
        gaussian_poly_integrand(1, [3], [1.0], 1e-200)
    # (m - 1)!! fits in a float up to m = 300, not at m = 302; a product
    # of factors that each fit can still overflow.
    assert math.isfinite(gaussian_poly_integrand(1, [300], [1.0], 1.0)[1])
    with pytest.raises(DomainError):
        gaussian_poly_integrand(1, [302], [1.0], 1.0)
    with pytest.raises(DomainError):
        gaussian_poly_integrand(2, [300, 300], [0.01, 0.01], 10.0)
    # A float power is refused, not truncated to the m = 2 integral 0.3536.
    for m in ([2.5], [2.0], ["2"]):
        with pytest.raises(DomainError, match="power must be an integer"):
            gaussian_poly_integrand(1, m, [1.0], 1.0)
    with pytest.raises(DomainError, match="dimension must be an integer"):
        gaussian_poly_integrand(1.0, [2], [1.0], 1.0)
    _, exact = gaussian_poly_integrand(np.int64(1), [np.int64(2)], [1.0], 1.0)
    assert exact == gaussian_poly_integrand(1, [2], [1.0], 1.0)[1]
    # c_i and l are real numbers: a bool is not read as 1, and a string,
    # a complex or None raises DomainError, not a bare TypeError.
    for bad in (True, None, 1j, "1.5"):
        want = f"^each c_i must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=want):
            gaussian_poly_integrand(1, [2], [bad], 1.0)
        with pytest.raises(DomainError, match="^length scale must be a real number"):
            gaussian_poly_integrand(1, [2], [1.0], bad)
    for value in (np.float32(1.5), 3, np.int64(3)):
        _, exact = gaussian_poly_integrand(1, [2], [value], 1.0)
        assert exact == gaussian_poly_integrand(1, [2], [float(value)], 1.0)[1]


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
    # l = 0.6: grids where the rounded grid sum and the correctly rounded
    # product of the per-axis sums part.
    x = approx_rule(basis_from(0.6), 7).rule.nodes
    x = np.linspace(x[0], x[-1], 7)
    cases = [(g, m, 1.2) for g in grids for m in powers[len(g)]] + [
        ([approx_rule(basis, n).rule] * 3, [6, 4, 2], 1.2) for n in (12, 14, 22)
    ] + [([QuadratureRule(x, exact_weights(x, 0.6)[0])] * 3, [6, 4, 2], 0.6)]
    for factors, m, ell in cases:
        d = len(factors)
        rule = tensor_rule(factors)
        f, _ = gaussian_poly_integrand(d, m, [1.5, 3.0, 0.5][:d], ell)
        got, want = tensor_integrate(rule, f), _rational_oracle(rule, f)
        assert got.hex() == want.hex(), ([len(r) for r in factors], m, ell, got, want)


@pytest.mark.parametrize("ell, sizes, m, c", [
    (1.2, [30, 30, 30], [6, 4, 2], [1.5, 3.0, 0.5]),  # criterion 10's grid
    (0.5, [100, 100], [4, 2], [1.0, 2.0]),
    (0.8, [9, 120, 70], [2, 2, 2], [1.5, 3.0, 0.5]),
])
def test_product_path_is_bit_identical_at_benchmark_scale(ell, sizes, m, c):
    # The fixed tensor-cubature grids, 27,000 and 10,000 points, and a
    # 75,600-point grid of unequal axes: the benchmark's own oracle,
    # rounded once.
    basis = basis_from(ell)
    rule = tensor_rule([approx_rule(basis, n).rule for n in sizes])
    f, _ = gaussian_poly_integrand(len(sizes), m, c, ell)
    assert tensor_integrate(rule, f).hex() == _rational_oracle(rule, f).hex()


def test_product_integrand_calls_each_factor_once_per_node():
    # On finite values each factor is called once per node, on Python floats.
    calls = []

    def counted(k):
        return lambda x: calls.append((k, type(x))) or 1.0 + k * x * x

    rule = tensor_rule([gh_rule(4), gh_rule(6), gh_rule(5)])
    f = ProductIntegrand(tuple(counted(k) for k in range(3)))
    value = tensor_integrate(rule, f)
    assert sorted(calls) == [(0, float)] * 4 + [(1, float)] * 6 + [(2, float)] * 5
    calls.clear()
    assert value == _odometer_sum(rule, f)


def _outcome(rule, f):
    """tensor_integrate's value bits, or its error's type, message and multi-index."""
    try:
        return tensor_integrate(rule, f).hex()
    except (DomainError, EvaluationError) as exc:
        return type(exc), str(exc), getattr(exc, "multi_index", None)


def test_float_pass_falls_back_to_the_float64_outcome():
    # Where a factor fails on Python floats, tensor_integrate gives what
    # calling it on np.float64 nodes alone gives: the same value bits or
    # the same typed error, message and multi-index.  The reference
    # hands every factor np.float64(x) on both passes.
    cases = [
        (lambda x: x**300, [gh_rule(200)]),  # a float's power raises, np.float64's is inf
        (lambda x: x**301, [gh_rule(5), gh_rule(200)]),  # -inf at the first node
        (lambda x: x**0.5, [gh_rule(4)]),  # complex on a float, nan on np.float64
        (lambda x: 1 / x, [gh_rule(3), gh_rule(2)]),  # ZeroDivisionError, inf
        (lambda x: np.complex128(x), [gh_rule(3)]),  # refused on both passes
        (lambda x: x.item(), [gh_rule(6), gh_rule(7)]),  # works on np.float64 only
        (lambda x: math.inf if type(x) is float else 2.0, [gh_rule(3)]),  # inf on floats only
        (lambda x: math.exp(-x * x) * x**4, [gh_rule(200), gh_rule(30)]),  # finite
    ]
    for g, factors in cases:
        rule = tensor_rule(factors)
        f = ProductIntegrand((lambda x: 1.0 + x * x,) * (len(factors) - 1) + (g,))
        reference = ProductIntegrand(tuple((lambda x, h=h: h(np.float64(x))) for h in f.factors))
        want = _outcome(rule, reference)
        assert _outcome(rule, f) == want, want
    assert _outcome(tensor_rule([gh_rule(3)]), ProductIntegrand((lambda x: 1 / x,))) == (
        EvaluationError, "integrand returned inf at grid point (1,)", (1,))


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
    # Only a ProductIntegrand is integrated; a plain callable is refused.
    for factors in [[gh_rule(5)], [gh_rule(5)] * 2]:
        with pytest.raises(DomainError, match="must be a ProductIntegrand"):
            tensor_integrate(tensor_rule(factors), lambda x: 1.0)


def test_malformed_product_integrand_is_refused():
    # Each was accepted at one point: a one-element return broadcast
    # against the weights (3 * 0.99... with no error), a numpy complex
    # cast to its real part (0.9999999999999999 for 1 + 5j, with only a
    # ComplexWarning), the others raised a bare TypeError, ValueError or
    # OverflowError.
    with pytest.raises(DomainError, match="one per axis"):
        ProductIntegrand(lambda x: 1.0)
    with pytest.raises(DomainError, match="must be callable"):
        ProductIntegrand((lambda x: 1.0, 2.0))
    rule = tensor_rule([gh_rule(2), gh_rule(3)])
    for g, detail in [(lambda x: [1.0], r"shape \(1,\)"), (lambda x: [1.0, 2.0], r"shape \(2,\)"),
                      (lambda x: "one", "convert"), (lambda x: [1.0] * int(x > 0), "inhomogeneous"),
                      (lambda x: np.complex128(1 + 5j), "imaginary part"),
                      (lambda x: 1 + 5j, "not 'complex'"),
                      (lambda x: 10**400, "too large")]:
        with pytest.raises(DomainError, match=f"factor 1 must return one number per node.*{detail}"):
            tensor_integrate(rule, ProductIntegrand((lambda x: 1.0, g)))
    # The factors are kept as a tuple, so the list it was given may change.
    factors = [lambda x: 1.0]
    f = ProductIntegrand(factors)
    factors.append(lambda x: 2.0)
    assert f.factors == (factors[0],)


# Factor values and weights: moderate ones of either sign, any finite
# float (hypothesis favours its boundaries), and the ends of the range
# with signed zeros.
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
             1e300, 1.7976931348623157e308, -1.7976931348623157e308]
_NUMBERS = st.one_of(st.floats(0.1, 4.0), st.floats(-4.0, -0.1),
                     st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EXTREMES))
# Nodes per axis by dimension: at most 24 in 1-D and 729 grid points in 6-D.
_MAX_NODES = {1: 24, 2: 16, 3: 8, 4: 5, 5: 3, 6: 3}


def _unit_grid(axes):
    """(TensorRule, ProductIntegrand) on the nodes 0, 1, ... of each axis's (weights, values)."""
    rule = tensor_rule([QuadratureRule(np.arange(len(w), dtype=float), w) for w, _ in axes])
    return rule, ProductIntegrand(tuple((lambda x, v=v: v[int(x)]) for _, v in axes))


@st.composite
def _grids(draw):
    """Unit grids with d = 1-6.

    In about one grid in four, one axis is mirrored: symmetric weights
    and odd values, as an odd power on a symmetric rule has, so that its
    sum cancels to exactly 0.  In about one in ten, one axis has a nan or
    an infinite value.
    """
    d = draw(st.integers(1, DIM_MAX))
    mirrored = draw(st.integers(-3 * d, d - 1))
    poisoned = draw(st.integers(-9 * d, d - 1))
    axes = []
    for axis in range(d):
        n = draw(st.integers(1, _MAX_NODES[d]))
        weights = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
        values = draw(st.lists(_NUMBERS, min_size=n, max_size=n))
        if n > 1 and axis == mirrored:
            half = n // 2
            middle = [0.0] if n % 2 else []
            weights = weights[:half] + weights[half:n - half] + weights[:half][::-1]
            values = values[:half] + middle + [-v for v in values[:half][::-1]]
        if axis == poisoned:
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.inf, -math.inf,
                                                                        math.nan]))
        axes.append((weights, values))
    return _unit_grid(axes)


@settings(max_examples=150)
@given(_grids())
# A subnormal sum (0.75 of the least one rounds up to it), -0.0 terms
# summing to +0.0, and the largest float as a product of two sums.
@example(_unit_grid([([0.5, 0.25], [5e-324, 5e-324])]))
@example(_unit_grid([([1.0, 2.0], [-0.0, -0.0]), ([3.0], [1.0])]))
@example(_unit_grid([([1.0, 1.0], [2.0**999, 2.0**999 - 2.0**947]), ([1.0, 1.0], [2.0**23] * 2)]))
def test_product_path_is_the_rational_oracle_on_random_grids(grid):
    # Bit for bit the rational oracle rounded once, or the refusal the
    # per-point path makes at the same point, or, for a sum beyond the
    # float range, an EvaluationError without a location.
    rule, f = grid
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # its weight products may overflow
            _odometer_sum(rule, f)
    except EvaluationError as exc:
        assert _evaluation_error(tensor_integrate, rule, f) == (str(exc), exc.multi_index)
        return
    except (OverflowError, ValueError):  # math.fsum of an overflowed term: not a refusal
        pass
    try:
        want = _rational_oracle(rule, f)
    except OverflowError:
        assert _evaluation_error(tensor_integrate, rule, f) == (
            "the integral lies beyond the float range", None)
        return
    assert tensor_integrate(rule, f).hex() == want.hex()


def test_integral_beyond_the_float_range_is_refused():
    # Grid values that fit, whose weighted sum does not: the sum of two
    # terms of 1e308 (a bare OverflowError escaped when the grid terms
    # were summed), one term 1e308 * 10 (that sum returned inf), and a
    # product of two per-axis sums 2e154 of grid values 1e308.
    one = QuadratureRule([0.0, 1.0], [1.0, 1.0])
    cases = [(tensor_rule([one]), ProductIntegrand((lambda x: 1e308,))),
             (tensor_rule([one]), ProductIntegrand((lambda x: -1e308,))),
             (tensor_rule([QuadratureRule([0.0], [1e308])]), ProductIntegrand((lambda x: 10.0,))),
             (tensor_rule([one] * 2), ProductIntegrand((lambda x: 1e154, lambda x: -1e154)))]
    for rule, f in cases:
        assert _evaluation_error(tensor_integrate, rule, f) == (
            "the integral lies beyond the float range", None)
    # Terms beyond the range that cancel exactly give 0.0 (that sum raised
    # a bare ValueError, -inf + inf), and a product that is exactly the
    # largest float is returned.
    rule = tensor_rule([QuadratureRule([0.0, 1.0], [1e308, 1e308])])
    assert tensor_integrate(rule, ProductIntegrand((lambda x: 10.0 - 20.0 * x,))) == 0.0
    f = ProductIntegrand((lambda x: 0.5 * 1.7976931348623157e308, lambda x: 0.5))
    assert tensor_integrate(tensor_rule([one] * 2), f) == 1.7976931348623157e308


def _evaluation_error(integrate, rule, f):
    with pytest.raises(EvaluationError) as info:
        integrate(rule, f)
    return str(info.value), info.value.multi_index


def test_non_finite_integrand_value_is_located():
    # The product path reports the same point and value as the per-point
    # path: for one non-finite factor, for an infinite factor times a
    # zero one (nan), for the test integrand once x**m overflows, and for
    # two axes with a non-finite value, where the later axis's comes
    # first in odometer order unless the earlier one's is its node 0.
    cases = [
        (ProductIntegrand((lambda x: math.inf if x > 0 else 1.0, lambda x: float(x >= 0))),
         tensor_rule([gh_rule(3), gh_rule(3)]), "nan", (2, 0)),
        (ProductIntegrand((lambda x: 1.0, lambda x: math.inf if x > 0 else x, lambda x: 2.0)),
         tensor_rule([gh_rule(3)] * 3), "inf", (0, 2, 0)),
        # x**300 overflows at the widest node: on the Python floats the
        # factor receives first its power raises OverflowError, so the
        # axis is evaluated again on np.float64 nodes, whose power is inf.
        (gaussian_poly_integrand(1, [300], [0.5], 10.0)[0],
         tensor_rule([gh_rule(200)]), "inf", (0,)),
        (ProductIntegrand((lambda x: math.inf if x > 0 else 1.0, lambda x: -math.inf if x > 0 else 2.0)),
         tensor_rule([gh_rule(3), gh_rule(4)]), "-inf", (0, 2)),
        (ProductIntegrand((lambda x: math.nan if x > 0 else 1.0, lambda x: math.inf if x < 0 else 2.0)),
         tensor_rule([gh_rule(3), gh_rule(4)]), "inf", (0, 0)),
        # 1 / x at the middle node 0.0 raises the divide flag, not a warning.
        (ProductIntegrand((lambda x: 1 / x,)), tensor_rule([gh_rule(3)]), "inf", (1,)),
    ]
    for f, grid, value, idx in cases:
        want = (f"integrand returned {value} at grid point {idx}", idx)
        assert _evaluation_error(tensor_integrate, grid, f) == want
        with np.errstate(over="ignore", divide="ignore"):
            assert _evaluation_error(_odometer_sum, grid, f) == want


def test_overflowing_grid_values_of_finite_factors_are_summed():
    # Finite factor values whose grid values f(node) overflow: the head
    # axis times a later axis, two axes, and (1e154)**2 * 1.5**2 on
    # sizes (3, 5, 100, 100) give integrals beyond the float range; the
    # odd power 151 gives per-axis sums that are exactly 0.  Each was
    # refused as "integrand returned inf" while grid values were checked.
    def huge_if_positive(x):
        return 1e200 if x > 0 else 1.0

    unit = [QuadratureRule(np.arange(n, dtype=float), np.ones(n)) for n in (3, 5, 100, 100)]
    beyond = [
        (ProductIntegrand((huge_if_positive, lambda x: 1.0, huge_if_positive)),
         tensor_rule([gh_rule(3), gh_rule(2), gh_rule(3)])),
        (ProductIntegrand((huge_if_positive, huge_if_positive)), tensor_rule([gh_rule(4), gh_rule(5)])),
        (ProductIntegrand((lambda x: 1e154 if x >= 1 else 1.0, lambda x: 1e154 if x >= 1 else 1.0,
                           lambda x: 1.5 if x >= 2 else 1.0, lambda x: 1.5 if x >= 3 else 1.0)),
         tensor_rule(unit)),
    ]
    for f, grid in beyond:
        with pytest.raises(OverflowError):
            _rational_oracle(grid, f)
        assert _evaluation_error(tensor_integrate, grid, f) == (
            "the integral lies beyond the float range", None)
    f, exact = gaussian_poly_integrand(2, [151, 151], [0.01, 0.01], 4.0)
    grid = tensor_rule([gh_rule(200)] * 2)
    assert exact == 0.0
    assert tensor_integrate(grid, f).hex() == _rational_oracle(grid, f).hex() == (0.0).hex()


@pytest.mark.parametrize("n", [180, 200])
def test_integral_near_the_top_of_the_float_range(n):
    # Grid values up to 7.6e430 at the widest nodes, an integral of
    # 3.38e261: the closed form to 1.5e-14 with Gauss-Hermite and 5.2e-14
    # with the scaled rule, each the rational oracle bit for bit.
    f, exact = gaussian_poly_integrand(2, [150, 150], [0.01, 0.01], 4.0)
    assert 3.38e261 < exact < 3.39e261
    for rule_1d in (gh_rule(n), approx_rule(basis_from(4.0), n).rule):
        grid = tensor_rule([rule_1d] * 2)
        got = tensor_integrate(grid, f)
        assert got.hex() == _rational_oracle(grid, f).hex()
        assert abs(got - exact) <= 1e-13 * exact


def test_dimension_and_grid_guards():
    with pytest.raises(SizeError):
        tensor_rule([])
    with pytest.raises(SizeError):
        tensor_rule([gh_rule(2)] * (DIM_MAX + 1))
    with pytest.raises(DomainError):
        tensor_rule([gh_rule(2), object()])
    # No grid is built, so no point count is refused: a 200⁶-point grid
    # integrates to the rational oracle, bit for bit.
    rule = tensor_rule([gh_rule(200)] * DIM_MAX)
    f, _ = gaussian_poly_integrand(DIM_MAX, [2, 0, 4, 1, 6, 2], [1.0, 0.5, 2.0, 1.0, 3.0, 0.2], 1.0)
    assert rule.size == 200**6
    assert tensor_integrate(rule, f).hex() == _rational_oracle(rule, f).hex()
    f, _ = gaussian_poly_integrand(DIM_MAX, [2, 0, 4, 2, 6, 2], [1.0, 0.5, 2.0, 1.0, 3.0, 0.2], 1.0)
    assert tensor_integrate(rule, f).hex() == _rational_oracle(rule, f).hex()
    # Built directly, the rule runs the same guards.
    with pytest.raises(SizeError):
        TensorRule(())
    with pytest.raises(SizeError):
        TensorRule((gh_rule(3),) * 9)
    with pytest.raises(DomainError, match="QuadratureRule instances"):
        TensorRule(("not a rule",))
    # It keeps a tuple, so growing the list it was given changes nothing.
    factors = [gh_rule(2)]
    rule = TensorRule(factors)
    factors += [gh_rule(2)] * (DIM_MAX + 1)
    assert rule.factors == (gh_rule(2),)
    assert rule.dimension == 1


def test_block_memory_stays_bounded_for_trailing_one_point_axes():
    # Sizes (200, 200, 200, 1, 1, 1) and 200⁶: no grid and no block of it
    # is held, so the peak is a few factor tables and per-axis integer
    # terms, about 60 kB for both, where one float per point of the 8e6
    # grid would take 64 MB.  The one-point factors (node 0, weight 1,
    # value 1) change no bit of the result.
    f, _ = gaussian_poly_integrand(6, [2, 0, 4, 0, 0, 0], [1.0, 0.5, 2.0, 1.0, 1.0, 1.0], 1.0)
    for rule in (tensor_rule([gh_rule(200)] * 3 + [gh_rule(1)] * 3), tensor_rule([gh_rule(200)] * 6)):
        tracemalloc.start()
        try:
            tensor_integrate(rule, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (rule.size, peak)
    three = tensor_rule([gh_rule(200)] * 3 + [gh_rule(1)] * 3)
    assert tensor_integrate(three, f) == tensor_integrate(tensor_rule([gh_rule(200)] * 3),
                                                          ProductIntegrand(f.factors[:3]))


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
