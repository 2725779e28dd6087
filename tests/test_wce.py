"""Worst-case error evaluation and the geometric bound constants."""

import argparse
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkquad import approx_rule, basis_from, cli, gh_rule, machine_truncation, worst_case_error
from gkquad.errors import DomainError, NumericalFailureError
from gkquad.exact import exact_weights, kernel_mean, kernel_mean_mean
from gkquad.gauss_hermite import QuadratureRule
from gkquad.wce import (
    HERMITE_SUP_CONSTANT,
    ConvergenceConstants,
    WceReport,
    multivariate_constants,
    theoretical_constants,
)
from oracles import ELL_MAX, ELL_MIN, convergence_constants_mp, ulps, wce_mp

EPS = float(np.finfo(float).eps)

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
    b = basis_from(ell)
    c = theoretical_constants(b)
    want = FROZEN[ell]
    assert b.tau == pytest.approx(want["tau"], rel=5e-16, abs=0)
    assert b.eigenvalue_ratio == pytest.approx(want["lam"], rel=5e-16, abs=0)
    assert c.eta == pytest.approx(want["eta"], rel=5e-16, abs=0)
    assert c.c1 == pytest.approx(want["c1"], rel=5e-16, abs=0)
    assert c.c2 == pytest.approx(want["c2"], rel=5e-16, abs=0)
    assert c.rate == pytest.approx(want["rate"], rel=5e-15, abs=0)


def test_constant_identities():
    # eta < 1 at every length scale (the rho = 2 case of the paper's lemma).
    for ell in (0.05, 0.2, 1.0, 4.0, 100.0, *np.logspace(-2, 2, 41)):
        b = basis_from(ell)
        c = theoretical_constants(b)
        assert abs(b.tau - (1.0 - b.eigenvalue_ratio)) <= 2e-16
        assert 0.0 < c.eta < 1.0
        assert c.c1 == HERMITE_SUP_CONSTANT * math.sqrt(b.beta)
        assert c.c2 == (1.0 + math.sqrt(b.eigenvalue_ratio)) / math.sqrt(b.tau)
        assert isinstance(c, ConvergenceConstants)


def test_rate_is_minus_log_eta_up_to_the_top_of_the_range():
    # eta is smallest at the largest length scale, where -ln(eta) is 352.85;
    # past it the length scale is refused, so eta never rounds to 0.
    c = theoretical_constants(basis_from(ELL_MAX))
    assert c.eta > 0.0
    assert c.rate == -math.log(c.eta) == pytest.approx(352.85, abs=0.005)
    with pytest.raises(DomainError, match="too large"):
        basis_from(1e200)
    c8 = theoretical_constants(basis_from(1e8))
    assert 0.0 < c8.eta < 1e-7
    assert c8.rate == -math.log(c8.eta)


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
    with pytest.raises(DomainError, match="must be an integer"):
        multivariate_constants(b, 2.5)  # not 2 * 2.5 * factor**2.5


# Largest error of each printed `constants` cell, in ulp of its oracle
# value, over _DOMAIN (400 log-spaced l, 150 more around the rate's split
# at u = 0.875, l = 3.61, and single scales): epsilon 1.77, beta 1.33,
# delta_sq 2.53, gamma and lambda 2.76, tau 1.25, eta 3.19, c_theory
# 8.66, c1 1.71 and c2 1.49, and the multivariate C 6.05, 10.4, 19.6 and
# 33.3 at d = 1, 2, 3 and 6.  Each bound is 1.15 to 3.2 times its maximum;
# C's is 4 + 8 d.  The rate's error is mostly u's rounding times the
# rate's condition number in u, 3 for small u and 6 at the split.  At
# l = 1e8 and 1e150 the differences (a^2 / 2)(beta^2 - 1) and
# 2 a^2 beta^2 / (1 + 2 delta^2) - 1 would lose every digit of delta_sq
# and gamma.  The bounds are checked on this grid only, and a denser one
# finds more: the rate reaches 9.25 ulp at l = 3.6144, just past the
# split (20,000 random l in [3.61, 3.70]), and lambda 3.21 at l = 22.9
# (100,000 random l in [1e-3, 1e3]).  l = 3.675 and 11.6 are here since
# lambda = (r / (s + 1))^2, which doubles the rounding of s + 1, would
# take the rate and lambda past their bounds there.
_ULP_BOUNDS = {"epsilon": 3.0, "beta": 2.5, "delta_sq": 5.0, "gamma": 5.0, "tau": 4.0,
               "lambda": 5.0, "eta": 4.0, "c_theory": 10.0, "c1": 2.0, "c2": 2.5}
_ORACLE_NAME = {"gamma": "lam", "lambda": "lam", "c_theory": "rate"}
_DIMS = (1, 2, 3, 6)
_DOMAIN = sorted({*np.geomspace(ELL_MIN, ELL_MAX, 400).tolist(),
                  *np.geomspace(2.5, 5.5, 150).tolist(), 1e-6, 0.2, 1.0, 1.198, 3.675, 4.0, 11.6,
                  1e8, 1e150})


def _printed(ell: float) -> dict:
    """The cells `gkquad constants --ell <ell>` prints, by column."""
    columns, [row] = cli._cmd_constants(argparse.Namespace(ell=ell, dims=None))
    return dict(zip(columns, row))


def _cell_ulps(cells: dict, ref: dict) -> dict:
    return {name: ulps(cells[name], ref[_ORACLE_NAME.get(name, name)]) for name in _ULP_BOUNDS}


def test_constants_match_the_oracle_over_the_length_scale_domain():
    # eta <= 1 and rate >= 0 at every length scale, and eta < 1 wherever
    # -ln(eta) > eps / 2.  C is refused only where 1 - eta is below the
    # smallest normal float (l below 8.1e-103) or C is beyond the float
    # range.  The 559 length scales take about 0.6 s.
    bounds = {**_ULP_BOUNDS, **{d: 4.0 + 8.0 * d for d in _DIMS}}
    worst = dict.fromkeys(bounds, 0.0)
    for ell in _DOMAIN:
        cells = _printed(ell)
        ref = convergence_constants_mp(ell, _DIMS)
        for name, err in _cell_ulps(cells, ref).items():
            worst[name] = max(worst[name], err)
        assert 0.0 <= cells["c_theory"] and cells["eta"] <= 1.0
        assert cells["eta"] < 1.0 or ref["rate"] <= sys.float_info.epsilon / 2
        b = basis_from(ell)
        for d in _DIMS:
            try:
                big_c, eta = multivariate_constants(b, d)
            except NumericalFailureError as exc:
                if ref["gap"] < sys.float_info.min:
                    assert str(exc).startswith("1 - eta is below the smallest normal float")
                else:
                    assert ref["big_c"][d] > sys.float_info.max
                    assert str(exc).startswith("the multivariate bound constant C overflows")
                continue
            assert eta == cells["eta"]
            worst[d] = max(worst[d], ulps(big_c, ref["big_c"][d]))
    assert all(worst[k] <= bounds[k] for k in bounds), worst


def test_constants_are_finite_where_the_eigenvalue_ratio_rounds_to_one():
    # lam = 1 - tau rounds to 1 where tau <= 2^-54, at every l <= 5.55e-17
    # and at none above, yet C2 = (1 + sqrt(lam)) / sqrt(tau) and the rate's
    # series need no 1 - sqrt(lam); l = 1e-16 still has lam < 1.  At
    # 1.5e-154 the rate, and so 1 - eta, underflows to 0, and the
    # multivariate bound is refused.
    for ell in (1e-17, 1e-100, 1.5e-154):
        b = basis_from(ell)
        assert b.eigenvalue_ratio == 1.0
        errors = _cell_ulps(_printed(ell), convergence_constants_mp(ell))
        assert all(errors[name] <= bound for name, bound in _ULP_BOUNDS.items()), (ell, errors)
    assert basis_from(1e-16).eigenvalue_ratio < 1.0
    assert basis_from(2.0**-54).eigenvalue_ratio == 1.0 > basis_from(5.6e-17).eigenvalue_ratio
    b = basis_from(1.5e-154)
    c = theoretical_constants(b)
    assert c.rate == 0.0 and c.eta == 1.0
    want = ("1 - eta is below the smallest normal float at length scale 1.5e-154; "
            "the multivariate bound degenerates")
    with pytest.raises(NumericalFailureError, match=f"^{re.escape(want)}$"):
        multivariate_constants(b, 2)


@pytest.mark.parametrize("weights, match", [
    # Each term lambda_n r_n^2 is at most 1.6e308, and their sum is 1.9e308.
    ((9.2e153, 9.2e153), "sum lies beyond the float range"),
    ((1e200, -1e200), "term is -?inf"),  # lambda_1 r_1^2, as r_0 = -mu(phi_0)
    ((1e200, 1e200), "term is inf"),
])
def test_weights_beyond_the_float_range_are_a_numerical_failure(weights, match):
    # A bare OverflowError, a bare ValueError (or numpy's RuntimeWarning
    # for the overflowing weight products) and wce = inf escaped here once.
    rule = QuadratureRule(np.array([-1.0, 1.0]), np.array(weights))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match=match):
            worst_case_error(rule, 1.0)


def _odometer_wce(rule, ell):
    """The direct form: every term w_i w_j k(x_i, x_j), in odometer order."""
    x, w = rule.nodes, rule.weights
    d = x[:, None] - x[None, :]
    kmat = np.exp(-(d * d) / (2.0 * ell**2))
    quadratic = math.fsum((w[:, None] * w[None, :] * kmat).ravel())
    cross = math.fsum(w * kernel_mean(ell, x))
    squared = kernel_mean_mean(ell) + quadratic - 2.0 * cross
    return math.sqrt(max(squared, 0.0))


def test_report_matches_the_odometer_order_sum_above_its_floor():
    # The direct form's exactly summed e^2 is off by a few eps (1 + S)^2,
    # S = sum |w_i|, so e by that over 2 e.  Wherever it reads at least
    # sqrt(eps) (1 + S) (28 of these 43 rules), the Mercer form is within
    # 0.8 eps (1 + S)^2 / e of it; measured, 0.39.
    rules = []
    for ell in (0.2, 1.0, 4.0):
        basis = basis_from(ell)
        for n in (1, 2, 37, 200):
            approx = approx_rule(basis, n).rule
            solved, _ = exact_weights(approx.nodes, ell)
            rules += [(approx, ell), (gh_rule(n), ell), (QuadratureRule(approx.nodes, solved), ell)]
    nodes = approx_rule(basis_from(0.2), 170).rule.nodes
    rules.append((QuadratureRule(nodes, exact_weights(nodes, 0.2)[0]), 0.2))
    # Weights of both signs, at the rules' own nodes (mirror-symmetric at
    # odd N, antisymmetric at even N) and at the Gauss-Hermite nodes.
    for ell, n in ((1.0, 5), (0.2, 37), (4.0, 2)):
        for rule in (approx_rule(basis_from(ell), n).rule, gh_rule(n)):
            rules.append((QuadratureRule(rule.nodes, rule.weights * (-1.0) ** np.arange(n)), ell))
    assert sum(bool((r.weights < 0).any()) for r, _ in rules) == 6
    checked = 0
    for rule, ell in rules:
        got = worst_case_error(rule, ell)
        assert isinstance(got, WceReport)
        direct, total = _odometer_wce(rule, ell), 1.0 + math.fsum(np.abs(rule.weights))
        if direct >= math.sqrt(EPS) * total:
            checked += 1
            assert abs(got.wce - direct) <= 0.8 * EPS * total**2 / direct, (ell, len(rule))
    assert checked == 28


# M2's points and the benchmark's eight oracle anchors.
_WCE_ORACLE_POINTS = [(1.0, 10), (1.0, 20), (1.0, 30), (1.0, 40), (1.0, 60), (4.0, 8),
                      (4.0, 10), (0.2, 60), (0.5, 30), (2.0, 12)]


def test_mercer_wce_matches_the_oracle_on_both_branches():
    # Against the direct form in 60 digits, on the own-node branch (the
    # scaled rule) and on the table branch (gh_rule, uniform nodes with
    # exact weights, and the scaled nodes with the first weight one ulp
    # up).  Measured worst: 1.42e-6 relative where the WCE is at least
    # 1e-14 ((1, 30), moved weight), and 1.62e-16 absolute, at (1, 60) on
    # uniform nodes, where every WCE is about 1e-16.  About 1 s.
    for ell, n in _WCE_ORACLE_POINTS:
        approx = approx_rule(basis_from(ell), n).rule
        uniform = np.linspace(approx.nodes[0], approx.nodes[-1], n)
        moved = approx.weights.copy()
        moved[0] = np.nextafter(moved[0], np.inf)
        for rule in (approx, gh_rule(n), QuadratureRule(uniform, exact_weights(uniform, ell)[0]),
                     QuadratureRule(approx.nodes, moved)):
            got = worst_case_error(rule, ell).wce
            want = wce_mp(rule.nodes, rule.weights, ell)
            assert abs(got - want) <= 2.84e-6 * want + 3.25e-16, (ell, n, got, want)


def test_nodes_the_truncation_does_not_reach_are_refused():
    # One node at x = 19, l = 1.3, where the 31-term kernel is 2e-30 in
    # place of k(x, x) = 1, read e = 0.823 against the oracle's 1.295.
    # The scaled rule's l = 0.2, N = 37 weights with alternating signs at
    # gh_rule(37)'s nodes read 0.4279752917 against 0.4279774807.  The
    # bound on the dropped terms reads 1.0 and 3.2e-3 there.
    signs = (-1.0) ** np.arange(37)
    cases = [(QuadratureRule(np.array([19.0]), np.array([1.0])), 1.3, 0.8226499669871502, 31),
             (QuadratureRule(gh_rule(37).nodes, approx_rule(basis_from(0.2), 37).rule.weights
                             * signs), 0.2, 0.4279752917333484, 218)]
    for rule, ell, truncated, m_terms in cases:
        want = wce_mp(rule.nodes, rule.weights, ell)
        assert abs(want - truncated) > 1e-6 * want
        with pytest.raises(NumericalFailureError, match=f"^the {m_terms} terms do not reach these "
                                                        f"nodes: the rest may move the worst-case "
                                                        f"error {truncated:.3e} by "):
            worst_case_error(rule, ell)


def test_report_carries_the_truncation_length_and_the_dropped_bound():
    # M is machine_truncation's, and B is 0.0 at a rule's own nodes, which
    # the M terms reach.  On the table branch B is finite, non-negative and
    # within 2^-26 e where a report is returned: gh_rule(30) at l = 0.2
    # reads B = 6.1e-15 against e = 0.16.
    for ell in (0.2, 1.0, 4.0):
        basis = basis_from(ell)
        for n in (1, 10, 30, 60, 200):
            m_terms = machine_truncation(basis, n)
            own = worst_case_error(approx_rule(basis, n).rule, ell)
            assert (own.m_terms, own.dropped_bound) == (m_terms, 0.0)
            table = worst_case_error(gh_rule(n), ell)
            assert table.m_terms == m_terms
            assert 0.0 <= table.dropped_bound <= 2.0**-26 * table.wce
    assert worst_case_error(gh_rule(30), 0.2).dropped_bound > 0.0


@st.composite
def _rules(draw):
    """Sorted distinct nodes in [-20, 20] with weights in [-1, 1]."""
    nodes = sorted(draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40, unique=True)))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(nodes), max_size=len(nodes)))
    return nodes, weights


@settings(max_examples=200, deadline=None)
@given(_rules(), st.floats(0.05, 1e10), st.booleans())
@example(([19.0], [1.0]), 1.3, False)
@example(([-3.0, 14.0, 18.0], [1.0, 1.0, 1.0]), 95.0, True)
def test_every_wce_is_within_its_floor_of_the_oracle_or_refused(rule, ell, solved):
    # Against the direct form in 60 digits, with the drawn weights or the
    # exact ones at the drawn nodes.  An accepted e is within
    # f + eps (1 + W) of it, W = sum |w_i|: eps (1 + W) for rounding, and
    # f = sqrt(e^2 + 16 M eps W^2) - e for the terms dropped at nodes
    # whose miss of k(x, x) = 1 is within rounding, 16 M eps each.
    # Measured over 3,000 random inputs of this kind (1 to 40 nodes, l
    # log-uniform in [0.05, 1e10], weights drawn, or exact), the error
    # reads at most 1.0 of it, one ulp at e = 1; the bound is twice that.
    nodes, weights = np.array(rule[0]), np.array(rule[1])
    if solved:
        try:
            weights, _ = exact_weights(nodes, ell)
        except NumericalFailureError:
            return
    try:
        got = worst_case_error(QuadratureRule(nodes, weights), ell).wce
    except NumericalFailureError:
        return
    want = wce_mp(nodes, weights, ell)
    total = math.fsum(np.abs(weights))
    masked = 16 * machine_truncation(basis_from(ell), nodes.size) * EPS * total**2
    masked /= math.sqrt(want * want + masked) + want
    assert abs(got - want) <= 2.0 * (masked + EPS * (1.0 + total)), (got, want)
