"""Eigendecomposition constants and eigenfunctions against quadrature oracles."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from gkquad import basis_from, gaussian_poly_integrand
from gkquad.errors import DomainError
from gkquad.exact import exact_weights, kernel, kernel_mean, kernel_mean_mean
from gkquad.gauss_hermite import QuadratureRule
from gkquad.mercer import (
    ALPHA_DEFAULT,
    MercerBasis,
    eigenfunction_means,
    eigenfunction_table,
    eigenvalue,
    even_mean_ratios,
)
from gkquad.wce import worst_case_error
from oracles import ELL_MAX, TOO_LARGE, gaussian_pdf

SCALES = (0.2, 1.0, 4.0)


def phi(b: MercerBasis, n: int, x: float) -> float:
    """phi_n(x), read from the table the rules use."""
    return float(eigenfunction_table(b, np.array([x]), n + 1)[0, n])


def mercer_sum(b: MercerBasis, m_terms: int, x: float, y: float) -> float:
    """The Mercer sum of lambda_n phi_n(x) phi_n(y) over n < m_terms."""
    table = eigenfunction_table(b, np.array([x, y]), m_terms)
    lams = np.array([eigenvalue(b, n) for n in range(m_terms)])
    return float(np.sum(lams * table[0] * table[1]))


def test_constants_at_unit_length_scale():
    # With l = 1 every derived constant collapses to a surd in sqrt(5).
    b = basis_from(1.0)
    assert b.epsilon == 1.0 / math.sqrt(2.0)
    assert b.beta == 5.0**0.25
    assert abs(b.delta_sq - (math.sqrt(5.0) - 1.0) / 4.0) <= 1e-16
    # tau = (sqrt(5) - 1) / 2 is 0.61803398874989484820 in 60 digits, and
    # 1 / (1 + 2 delta^2) rounds it to the float 0.511 ulp below: faithful,
    # where the float (sqrt(5) - 1) / 2 happens to be the correctly rounded one.
    tau = eigenvalue(b, 0)
    with mpmath.workdps(60):
        assert tau < (mpmath.sqrt(5) - 1) / 2 < math.nextafter(tau, 1.0)


def test_eigenvalues_are_geometric_with_unit_trace():
    for ell in (0.1, 0.3, 1.0, 7.0):
        b = basis_from(ell)
        ratio = b.eigenvalue_ratio
        assert 0.0 < ratio < 1.0
        lam0 = eigenvalue(b, 0)
        assert abs(lam0 / (1.0 - ratio) - 1.0) <= 1e-15
        for n in (1, 2, 7, 30):
            assert abs(eigenvalue(b, n) - lam0 * ratio**n) <= 1e-15 * lam0


def test_mean_ratio_equals_eigenvalue_ratio():
    # The even means decay by g = 2 a^2 beta^2 / (1 + 2 delta^2) - 1, an
    # independently derived expression for the eigenvalue ratio, here in
    # 60 digits; the stored ratio is within 5e-17 of it.
    for ell in (0.05, 0.1, 0.3, 1.0, 7.0, 100.0):
        b = basis_from(ell)
        with mpmath.workdps(60):
            a2 = mpmath.mpf(1) / 2
            beta_sq = mpmath.sqrt(1 + 4 / mpmath.mpf(ell) ** 2)
            g = 2 * a2 * beta_sq / (1 + a2 * (beta_sq - 1)) - 1
            assert abs(b.eigenvalue_ratio - g) <= 1e-15
        means = eigenfunction_means(b, 5)
        want = b.eigenvalue_ratio * math.sqrt(0.75)  # r_2 / r_1 = sqrt(3/4)
        assert means[4] / means[2] == pytest.approx(want, rel=1e-15, abs=0)
    assert abs(basis_from(0.05).eigenvalue_ratio - 0.9512343774406435) <= 1e-15


@pytest.mark.parametrize("ell", SCALES)
def test_eigenfunctions_orthonormal_under_gaussian_measure(ell):
    b = basis_from(ell)
    for i in range(5):
        for j in range(i, 5):
            val, _ = quad(
                lambda x: phi(b, i, x) * phi(b, j, x) * gaussian_pdf(x),
                -np.inf,
                np.inf,
                limit=200,
            )
            assert abs(val - (1.0 if i == j else 0.0)) <= 1e-12


@pytest.mark.parametrize("ell", SCALES)
def test_closed_form_means_match_quadrature(ell):
    b = basis_from(ell)
    means = eigenfunction_means(b, 9)
    for n in range(9):
        val, _ = quad(lambda x: phi(b, n, x) * gaussian_pdf(x), -np.inf, np.inf, limit=200)
        assert abs(val - means[n]) <= 1e-12


def test_odd_means_are_exactly_zero():
    b = basis_from(0.7)
    means = eigenfunction_means(b, 12)
    assert np.array_equal(means[1::2], np.zeros(6))
    for count in range(1, 12):
        assert np.array_equal(eigenfunction_means(b, count), means[:count])


def test_even_mean_ratios_match_binomial_closed_form():
    got = even_mean_ratios(40)
    for m in range(41):
        exact = math.sqrt(math.comb(2 * m, m) / 4.0**m)
        assert abs(got[m] - exact) <= 1e-14 * exact


def test_even_mean_ratios_are_fresh_prefixes_of_one_recurrence():
    loop = [1.0]
    for m in range(1, 201):
        loop.append(loop[-1] * math.sqrt((2.0 * m - 1.0) / (2.0 * m)))
    full = even_mean_ratios(200)
    bits = full.tobytes()
    assert bits == np.array(loop).tobytes()
    for m in (0, 1, 2, 57, 199, 200):
        assert even_mean_ratios(m).tobytes() == bits[: 8 * (m + 1)]
    full[:] = -1.0
    even_mean_ratios(3)[0] = -1.0
    assert even_mean_ratios(200).tobytes() == bits


def test_truncated_expansion_converges_to_kernel():
    for ell in (0.5, 1.0, 4.0):
        b = basis_from(ell)
        for x, y in ((0.0, 0.0), (0.3, -1.2), (2.0, 1.5), (-3.0, 0.7)):
            assert abs(mercer_sum(b, 150, x, y) - float(kernel(ell, x, y))) <= 1e-12
    b = basis_from(0.2)
    assert abs(mercer_sum(b, 400, 0.3, -0.4) - float(kernel(0.2, 0.3, -0.4))) <= 1e-12


def test_truncation_error_shrinks_geometrically():
    b = basis_from(1.0)
    k = float(kernel(1.0, 0.9, -0.6))
    errs = [abs(mercer_sum(b, m, 0.9, -0.6) - k) for m in (5, 15, 30)]
    assert errs[0] > errs[1] > errs[2]


def test_kernel_value_basics():
    assert float(kernel(2.0, 1.3, 1.3)) == 1.0
    assert float(kernel(2.0, 0.0, 2.0)) == math.exp(-0.5)
    assert float(kernel(2.0, -1.0, 3.0)) == float(kernel(2.0, 3.0, -1.0))


def test_containers_are_frozen():
    b = basis_from(1.0)
    assert isinstance(b, MercerBasis)
    with pytest.raises(Exception):
        b.beta = 2.0


def test_alpha_default_gives_standard_measure():
    assert ALPHA_DEFAULT == math.sqrt(0.5)


def test_domain_guards():
    with pytest.raises(DomainError):
        basis_from(0.0)
    with pytest.raises(DomainError):
        basis_from(-1.0)
    with pytest.raises(DomainError):
        basis_from(float("nan"))
    with pytest.raises(DomainError):
        kernel(0.0, 0.0, 0.0)
    b = basis_from(1.0)
    with pytest.raises(DomainError):
        eigenvalue(b, -1)
    with pytest.raises(DomainError):
        eigenfunction_means(b, 0)
    with pytest.raises(DomainError):
        even_mean_ratios(-1)
    for bad in (0, 2.5):
        with pytest.raises(DomainError, match="count"):
            eigenfunction_table(b, np.array([0.0]), bad)
    # A float index is refused, not read as ratio**2.5, which is no eigenvalue.
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(DomainError, match="must be an integer"):
            eigenvalue(b, bad)
        with pytest.raises(DomainError, match="must be an integer"):
            eigenfunction_means(b, bad)
    assert eigenvalue(b, np.int64(3)) == eigenvalue(b, 3)
    # A length scale is a real number: a bool is refused as an index's is,
    # and a complex, a string or None raises DomainError, not TypeError.
    for bad in (True, False, np.bool_(True), 1j, "1.0", None):
        want = f"^length scale must be a real number, got {re.escape(repr(bad))}$"
        for call in (basis_from, kernel_mean_mean, lambda ell: kernel(ell, 0.0, 0.0)):
            with pytest.raises(DomainError, match=want):
                call(bad)
    # A numpy float is its float, with no overflow warning from a comparison.
    for value in (np.float16(0.5), np.float32(1.0), np.longdouble(4.0)):
        assert kernel_mean_mean(value) == kernel_mean_mean(float(value))
        assert basis_from(value) == basis_from(float(value))


@pytest.mark.parametrize("ell", [1.49e-154, 1e-200, 5e-324])
def test_length_scale_below_the_float_range_is_a_domain_error(ell):
    # (2 eps / a)^2 = 4 / l^2 overflows once l^2 is subnormal, below
    # l = 1.49e-154, and at the subnormal end eps itself is infinite.
    # Every entry point that takes a length scale refuses it alike.
    for build in (basis_from, lambda ell: kernel(ell, 0.0, 0.0)):
        with pytest.raises(DomainError, match="too small"):
            build(ell)
    assert math.isfinite(basis_from(1.5e-154).beta)


@pytest.mark.parametrize("ell", TOO_LARGE, ids=["next", "1e200", "10**200", "1.7e308"])
def test_length_scale_above_the_float_range_is_a_domain_error(ell):
    # eps^2 = 1 / (2 l^2) is subnormal past ELL_MAX, the largest float
    # below sqrt(2^1021), so the eigenvalue ratio would lose digits and
    # from l = 3e161 round to 0.  Every entry point refuses it alike.
    with mpmath.workprec(200):
        top = mpmath.sqrt(mpmath.mpf(2) ** 1021)
        assert mpmath.mpf(ELL_MAX) < top < mpmath.mpf(math.nextafter(ELL_MAX, math.inf))
    b = basis_from(ELL_MAX)
    assert b.epsilon**2 >= sys.float_info.min and b.eigenvalue_ratio >= sys.float_info.min
    rule = QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    entry_points = (basis_from, lambda ell: kernel(ell, 0.0, 0.0),
                    lambda ell: kernel_mean(ell, 0.0), kernel_mean_mean,
                    lambda ell: exact_weights([0.0, 1.0], ell),
                    lambda ell: worst_case_error(rule, ell),
                    lambda ell: gaussian_poly_integrand(1, [2], [1.0], ell))
    want = re.escape(f"length scale {float(ell)} is too large: 1 / (2 l^2) is subnormal")
    for call in entry_points:
        with pytest.raises(DomainError, match=f"^{want}$"):
            call(ell)


def test_integer_length_scale_is_read_as_a_float():
    # 10**400 has no float, so it is refused like inf rather than raising
    # OverflowError; a smaller int is the float it equals, even where its
    # square, kept as an int, has none, and past the top of the range it
    # is refused as that float is.
    entry_points = (basis_from, lambda ell: kernel(ell, 0.0, 0.0),
                    lambda ell: kernel_mean(ell, 0.0), kernel_mean_mean)
    for call in entry_points:
        with pytest.raises(DomainError, match="positive and finite"):
            call(10**400)
        with pytest.raises(DomainError, match="^length scale 1e\\+200 is too large"):
            call(10**200)
    _, exact = gaussian_poly_integrand(1, [2], [1.0], 10**150)
    assert exact == gaussian_poly_integrand(1, [2], [1.0], 1e150)[1] == 1.0
    assert basis_from(10**150) == basis_from(1e150)
