"""Worst-case error evaluation and the geometric bound constants."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkquad import approx_rule, basis_from, gh_rule, worst_case_error
from gkquad.errors import DomainError, IllConditionedError
from gkquad.exact import exact_weights, kernel_mean, kernel_mean_mean
from gkquad.gauss_hermite import QuadratureRule
from gkquad.mercer import GaussianKernel
from gkquad.wce import (
    HERMITE_SUP_CONSTANT,
    RATE_CAP,
    ConvergenceConstants,
    WceReport,
    _fsum_largest_first,
    eta_lemma_check,
    multivariate_constants,
    theoretical_constants,
)

# Constants for the two headline length scales, frozen from a 50-digit
# recomputation of the defining formulas.
FROZEN = {
    1.0: dict(
        tau=0.61803398874989485,
        lam=0.38196601125010515,
        eta=0.9665732158962188,
        c1=1.329232020408317,
        c2=2.0581710272714923,
        rate=0.033998229559645508,
    ),
    0.2: dict(
        tau=0.18099751242241781,
        lam=0.81900248757758219,
        eta=0.99966969468460729,
        c1=1.9353954504209396,
        c2=4.4777087467946026,
        rate=0.00033035987820864976,
    ),
}


def test_single_node_closed_forms():
    # Optimal single point: e^2 = 1/sqrt(3) - 1/2.  Unit-weight single
    # point (the 1-point Gauss-Hermite rule): e^2 = 1/sqrt(3) + 1 - sqrt(2).
    opt = QuadratureRule(np.array([0.0]), np.array([1.0 / math.sqrt(2.0)]))
    r = worst_case_error(opt, 1.0)
    assert abs(r.wce**2 - (1.0 / math.sqrt(3.0) - 0.5)) <= 1e-15
    g = worst_case_error(gh_rule(1), 1.0)
    assert abs(g.wce**2 - (1.0 / math.sqrt(3.0) + 1.0 - math.sqrt(2.0))) <= 1e-15
    assert g.wce > r.wce


def test_report_terms_recombine():
    rule = approx_rule(basis_from(0.7), 9).rule
    rep = worst_case_error(rule, 0.7)
    assert isinstance(rep, WceReport)
    assert rep.term_mean_mean == kernel_mean_mean(0.7)
    squared = rep.term_mean_mean + rep.term_quadratic - 2.0 * rep.term_cross
    assert abs(rep.wce**2 - max(squared, 0.0)) <= 1e-16
    assert rep.term_quadratic > 0.0
    assert rep.term_cross > 0.0


@pytest.mark.parametrize("ell", [0.2, 1.0])
def test_error_decreases_with_rule_size_above_noise_floor(ell):
    b = basis_from(ell)
    prev = math.inf
    for n in range(1, 22):
        cur = worst_case_error(approx_rule(b, n).rule, ell).wce
        if prev < 1e-7:
            break
        assert cur < prev
        prev = cur


@pytest.mark.parametrize("ell", [0.2, 1.0])
@pytest.mark.parametrize("n", [10, 20])
def test_weight_family_ordering(ell, n):
    # Exact weights minimize the error; the closed-form weights come
    # close; the plain Gauss-Hermite weights trail far behind.
    a = approx_rule(basis_from(ell), n)
    e_approx = worst_case_error(a.rule, ell).wce
    ew, _ = exact_weights(a.rule.nodes, ell)
    e_exact = worst_case_error(QuadratureRule(a.rule.nodes, ew), ell).wce
    e_gh = worst_case_error(gh_rule(n), ell).wce
    assert e_exact <= e_approx + 1e-10
    assert e_approx <= e_gh + 1e-10
    assert e_gh > 5.0 * e_approx


@pytest.mark.parametrize("ell", sorted(FROZEN))
def test_frozen_convergence_constants(ell):
    c = theoretical_constants(basis_from(ell))
    want = FROZEN[ell]
    assert c.tau == pytest.approx(want["tau"], rel=5e-16)
    assert c.lam == pytest.approx(want["lam"], rel=5e-16)
    assert c.eta == pytest.approx(want["eta"], rel=5e-16)
    assert c.c1 == pytest.approx(want["c1"], rel=5e-16)
    assert c.c2 == pytest.approx(want["c2"], rel=5e-16)
    assert c.rate == pytest.approx(want["rate"], rel=5e-15)


def test_constant_identities():
    for ell in (0.05, 0.2, 1.0, 4.0, 100.0):
        b = basis_from(ell)
        c = theoretical_constants(b)
        assert abs(c.lam - b.eigenvalue_ratio) <= 1e-16
        assert abs(c.tau - (1.0 - c.lam)) <= 2e-16
        assert 0.0 < c.eta < 1.0
        assert c.c1 == HERMITE_SUP_CONSTANT * math.sqrt(b.beta)
        assert c.c2 == math.sqrt(c.tau) / (1.0 - math.sqrt(c.lam))
        assert isinstance(c, ConvergenceConstants)


def test_rate_is_capped_in_the_flat_limit():
    c = theoretical_constants(basis_from(1e200))
    assert c.eta == 0.0
    assert c.rate == RATE_CAP
    c8 = theoretical_constants(basis_from(1e8))
    assert 0.0 < c8.eta < 1e-7
    assert c8.rate == -math.log(c8.eta)


def test_eta_lemma_threshold():
    assert eta_lemma_check(1.0, 2.0)
    assert not eta_lemma_check(math.sqrt(2.0), 3.0)
    for ell in np.logspace(-2, 2, 41):
        assert eta_lemma_check(float(ell), 2.0)
    assert any(not eta_lemma_check(float(ell), 2.5) for ell in np.logspace(-2, 2, 41))
    with pytest.raises(DomainError):
        eta_lemma_check(1.0, -0.5)
    with pytest.raises(DomainError):
        eta_lemma_check(1.0, float("nan"))


def test_multivariate_constants_properties():
    b = basis_from(1.0)
    ref_eta = theoretical_constants(b).eta
    prev = 0.0
    for d in (1, 2, 3, 5):
        big_c, eta = multivariate_constants(b, d)
        assert eta == ref_eta
        assert big_c > prev
        prev = big_c
    with pytest.raises(DomainError):
        multivariate_constants(b, 0)


# Finite terms with exponents from the subnormal range up to 2^996, so
# that a sum of up to 300 of them cannot overflow in any order.
_wide_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
              st.integers(min_value=-1074, max_value=996)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)


def _fsum_outcome(fsum, *args):
    try:
        value = fsum(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return "nan" if math.isnan(value) else value.hex()


def _chunked(terms, cuts):
    t = np.array(terms, dtype=float)
    return np.split(t, sorted(c % (t.size + 1) for c in cuts))


@given(st.lists(_wide_floats, max_size=300), st.lists(st.integers(0, 300), max_size=4))
def test_largest_first_fsum_is_bit_identical_to_fsum(terms, cuts):
    want = math.fsum(terms)
    got = _fsum_largest_first(_chunked(terms, cuts))
    assert got.hex() == want.hex()


@given(st.lists(_wide_floats, max_size=60),
       st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), min_size=1, max_size=4),
       st.randoms(use_true_random=False), st.lists(st.integers(0, 70), max_size=3))
def test_largest_first_fsum_keeps_nan_and_inf_outcomes(terms, special, rnd, cuts):
    terms = terms + special
    rnd.shuffle(terms)
    assert (_fsum_outcome(_fsum_largest_first, _chunked(terms, cuts))
            == _fsum_outcome(math.fsum, terms))


def _odometer_report(rule, ell):
    """The direct form: every term w_i w_j k(x_i, x_j), in odometer order."""
    x, w = rule.nodes, rule.weights
    kmat = GaussianKernel(ell).value(x[:, None], x[None, :])
    quadratic = math.fsum((w[:, None] * w[None, :] * kmat).ravel())
    cross = math.fsum(w * np.atleast_1d(kernel_mean(ell, x)))
    mean_mean = kernel_mean_mean(ell)
    squared = mean_mean + quadratic - 2.0 * cross
    return WceReport(math.sqrt(max(squared, 0.0)), mean_mean, quadratic, cross)


def test_report_is_bit_identical_to_the_odometer_order_sum():
    rules = []
    for ell in (0.2, 1.0, 4.0):
        basis = basis_from(ell)
        for n in (1, 2, 37, 200):
            approx = approx_rule(basis, n).rule
            rules += [(approx, ell), (gh_rule(n), ell)]
            try:
                solved, _ = exact_weights(approx.nodes, ell)
            except IllConditionedError:
                continue
            rules.append((QuadratureRule(approx.nodes, solved), ell))
    # A large accepted solve with weights of both signs.
    nodes = approx_rule(basis_from(0.2), 170).rule.nodes
    rules.append((QuadratureRule(nodes, exact_weights(nodes, 0.2)[0]), 0.2))
    assert sum(bool((r.weights < 0).any()) for r, _ in rules) >= 2
    for rule, ell in rules:
        got, want = worst_case_error(rule, ell), _odometer_report(rule, ell)
        for field in ("wce", "term_mean_mean", "term_quadratic", "term_cross"):
            assert getattr(got, field).hex() == getattr(want, field).hex(), (ell, len(rule), field)
