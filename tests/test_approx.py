"""Closed-form approximate weights and the QR weight family."""

import hashlib
import math
import re
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gkquad import approx, approx_rule, basis_from, gh_rule, mercer, qr_weights, worst_case_error
from gkquad.approx import (
    eigen_exactness_residual,
    even_hermite_series,
    machine_truncation,
    scaled_nodes,
)
from gkquad.cli import main
from gkquad.errors import DomainError, NumericalFailureError, SizeError
from gkquad.exact import exact_weights
from gkquad.hermite import DEGREE_MAX, normalized_table
from gkquad.mercer import (
    ALPHA_DEFAULT,
    eigenfunction_means,
    eigenfunction_table,
    even_mean_ratios,
)
from oracles import (
    ELL_MAX,
    ELL_MIN,
    closed_form_weights_mp,
    convergence_constants_mp,
    exact_hermite,
    kernel_weights_mp,
)


def test_single_point_rule_closed_form():
    # The one weight is (1 + 2 delta^2)^(-1/2) = sqrt(tau), here in 50
    # digits; the weight is 1.2e-17 from it.
    b = basis_from(1.3)
    a = approx_rule(b, 1)
    assert a.rule.nodes.tolist() == [0.0]
    lead = mpmath.sqrt(convergence_constants_mp(1.3)["tau"])
    assert abs(a.rule.weights[0] - lead) <= 1e-16
    assert len(a) == 1


def test_nodes_are_compressed_gauss_hermite_nodes():
    b = basis_from(0.3)
    n = 14
    a = approx_rule(b, n)
    gh = gh_rule(n)
    factor = math.sqrt(2.0) * ALPHA_DEFAULT * b.beta
    assert np.array_equal(a.rule.nodes, gh.nodes / factor)
    assert np.array_equal(scaled_nodes(b, n), a.rule.nodes)
    # compression: the scaled nodes sit strictly inside the raw ones
    assert np.abs(a.rule.nodes).max() < np.abs(gh.nodes).max()


@pytest.mark.parametrize("n", [1, 2, 7, 16, 31])
def test_weight_series_matches_binomial_hermite_oracle(n):
    gamma = 0.37
    got = even_hermite_series(gamma, n)
    for i, t in enumerate(gh_rule(n).nodes):
        exact = 0.0
        for m in range((n - 1) // 2 + 1):
            h2m = float(exact_hermite(2 * m, Fraction(t))) / math.sqrt(math.factorial(2 * m))
            exact += gamma**m * math.sqrt(math.comb(2 * m, m) / 4.0**m) * h2m
        assert abs(got[i] - exact) <= 1e-13 * max(1.0, abs(exact)), (n, t)


@pytest.mark.parametrize("ell", [0.2, 1.0, 4.0])
def test_rule_integrates_leading_eigenfunctions(ell):
    b = basis_from(ell)
    a = approx_rule(b, 20)
    for k in range(20):
        assert eigen_exactness_residual(a, k) <= 1e-13


def test_first_unmatched_eigenfunction_splits_by_parity():
    # At index N the residual is a parity story: odd rules annihilate the
    # even eigenfunction error term exactly, even rules do not.
    cases = {
        (0.2, 10): 1.384691e-01,
        (1.0, 10): 3.877496e-03,
        (0.2, 11): 0.0,
        (1.0, 21): 0.0,
    }
    for (ell, n), expected in cases.items():
        b = basis_from(ell)
        a = approx_rule(b, n)
        vals = eigenfunction_table(b, a.rule.nodes, n + 1)[:, n]
        applied = math.fsum(a.rule.weights * vals)
        target = eigenfunction_means(b, n + 1)[n]
        resid = abs(applied - target)
        if expected == 0.0:
            assert resid == 0.0
        else:
            assert abs(resid - expected) <= 1e-6


def test_residual_index_guard():
    a = approx_rule(basis_from(1.0), 10)
    with pytest.raises(IndexError):
        eigen_exactness_residual(a, 10)
    with pytest.raises(IndexError):
        eigen_exactness_residual(a, -1)


def test_residual_is_a_python_float():
    a = approx_rule(basis_from(1.0), 10)
    assert type(eigen_exactness_residual(a, 3)) is float


def test_flat_limit_recovers_gauss_hermite_weights():
    b = basis_from(1e4)
    a = approx_rule(b, 20)
    gh = gh_rule(20)
    assert np.abs(a.rule.weights - gh.weights).max() <= 1e-8
    assert np.abs(a.rule.nodes - gh.nodes).max() <= 1e-6


def _ascending_series(gamma, n, t):
    """The even series at the points t, its terms added one m at a time in ascending order."""
    even = normalized_table(t, 2 * ((n - 1) // 2))[:, ::2]
    coeffs = gamma ** np.arange(even.shape[1]) * even_mean_ratios(even.shape[1] - 1)
    total = even[:, 0] * coeffs[0]
    for m in range(1, even.shape[1]):
        total = total + even[:, m] * coeffs[m]
    return total


def test_cached_weights_match_the_series_on_all_nodes():
    # approx_rule sums the series on half the nodes from the per-size cache
    # and mirrors it; the formula summed on every node gives the same bits.
    for ell in (0.05, 1.0, 10.0):
        b = basis_from(ell)
        lead, lam = math.sqrt(b.tau), b.eigenvalue_ratio
        for n in range(1, 201):
            gh = gh_rule(n)
            nodes = scaled_nodes(b, n)
            series = _ascending_series(lam, n, gh.nodes)
            assert even_hermite_series(lam, n).tobytes() == series.tobytes(), (ell, n)
            expected = lead * gh.weights * np.exp(b.delta_sq * nodes * nodes) * series
            assert approx_rule(b, n).rule.weights.tobytes() == expected.tobytes(), (ell, n)


def test_weights_are_finite_and_positive_over_the_length_scale_domain():
    # approx_rule has no finite check of its own: its docstring bounds every
    # weight below 1e175 through t^2 <= 4(N - 1) and delta^2 x^2 <= t^2 / 4
    # at each Gauss-Hermite node t.  At every N, at the domain ends and 98
    # log-spaced l between, that bound holds and every weight is finite and
    # positive.  delta^2 / beta^2 tends to 1/4 as l falls, so the float
    # delta^2 x^2 reaches t^2 / 4 to 2 ulp there.  The largest delta^2 x^2
    # is 187.0 and the weights lie in [1.26e-163, 1.0], the smallest at
    # N = 200 and the smallest l.
    bases = [basis_from(ell) for ell in np.geomspace(ELL_MIN, ELL_MAX, 100)]
    for n in range(1, 201):
        t_sq = gh_rule(n).nodes ** 2
        assert (t_sq <= 4.0 * (n - 1)).all(), n
        for b in bases:
            rule = approx_rule(b, n).rule
            bound = t_sq / 4.0 * (1.0 + 1e-15)
            assert (b.delta_sq * rule.nodes ** 2 <= bound).all(), (b.length_scale, n)
            w = rule.weights
            assert np.isfinite(w).all() and (w > 0.0).all(), (b.length_scale, n)


# The largest relative error of the closed-form weights against the same
# closed form in 60 digits at the float nodes, over 200 log-spaced l across
# the domain and the scales below: 4.4e-15 at N = 20 and 5.9e-14 at N = 200,
# both at l = 3.3e-6; over this test's scales, 2.2e-15 (l = 2.4e-133) and
# 4.0e-14 (l = 2.5e-80).  Each bound is twice the 200-scale maximum.
WEIGHT_ORACLE_BOUND = {20: 9e-15, 200: 1.2e-13}


@pytest.mark.parametrize("n", sorted(WEIGHT_ORACLE_BOUND))
def test_closed_form_weights_match_a_60_digit_closed_form(n):
    scales = {*np.geomspace(ELL_MIN, ELL_MAX, 30).tolist(), 0.05, 0.5, 1.0, 4.0, 1e4, 1e8, 1e150}
    worst = 0.0
    for ell in scales:
        got = approx_rule(basis_from(ell), n).rule.weights
        want = closed_form_weights_mp(ell, n)
        worst = max(worst, max(float(abs(g - w) / w) for g, w in zip(got, want)))
    assert worst <= WEIGHT_ORACLE_BOUND[n], worst


def test_approx_rule_sums_through_even_hermite_series(monkeypatch):
    # The series is its own layer, so a profiler wrapping the module's
    # public name sees it nested in approx_rule, cold or cached.
    series = approx.even_hermite_series
    calls = []

    def recorded(ratio, n):
        calls.append((ratio, n))
        return series(ratio, n)

    monkeypatch.setattr(approx, "even_hermite_series", recorded)
    b = basis_from(1.0)
    for n in (1, 6, 6):
        approx_rule(b, n)
    lam = b.eigenvalue_ratio
    assert calls == [(lam, 1), (lam, 6), (lam, 6)]


def test_even_hermite_cache_is_read_only_and_shared():
    # The size's store holds one C-ordered row per even degree below its
    # top D, one column per node of the half, and the rows hhat_{D-2} and
    # hhat_{D-1} that continue it (a zero row for hhat_{-1}).  Every call
    # returns a read-only prefix view of that one array.  The kept pair
    # owns its data after growth in any order: a view into the growth
    # block would keep the whole block alive beside the stored rows.
    sizes = (1, 2, 9, 200)
    for order in GROWTH_ORDERS:
        approx._HERMITE_ROWS.clear()
        for n, m in _growth_requests(order):
            if n in sizes:
                approx._even_rows(n, m)
                assert approx._HERMITE_ROWS[n][2].base is None, (order, n, m)
    for n in sizes:
        view = approx._even_rows(n, n)
        rows, top, (low, high) = approx._HERMITE_ROWS[n]
        assert view.base is rows and approx._even_rows(n, n).base is rows
        assert not rows.flags.writeable and rows.flags.c_contiguous and rows.flags.owndata
        assert not view.flags.writeable and view.flags.c_contiguous
        assert view.shape == ((n - 1) // 2 + 1, (n + 1) // 2) and top >= n
        assert rows.shape == ((top + 1) // 2, view.shape[1]) and low.shape == high.shape
        table = normalized_table(gh_rule(n).nodes[: (n + 1) // 2], top - 1)
        assert rows.tobytes() == np.ascontiguousarray(table[:, ::2].T).tobytes()
        want = table[:, top - 2] if top > 1 else np.zeros(view.shape[1])
        assert low.tobytes() == want.tobytes() and high.tobytes() == table[:, top - 1].tobytes()
        with pytest.raises(ValueError):
            view[0, 0] = 0.0


def test_a_cold_size_builds_one_hermite_table(monkeypatch):
    # A cold qr_weights at a rule's own nodes that continues the rows past
    # degree n - 1 runs the recurrence once per size, from (hhat_{-1},
    # hhat_0) = (0, 1) at degree 0 up to the degree its B needs; the rule's
    # own rows are a prefix of those.  The size's rows, B and solve are
    # cleared first.
    recurrence = approx._continue_recurrence
    degrees = []

    def counted(x, buffer, degree):
        degrees.append(degree)
        return recurrence(x, buffer, degree)

    monkeypatch.setattr(approx, "_continue_recurrence", counted)
    b = basis_from(1.0)
    for n in (1, 2, 3, 10, 51, 200):
        for m in (n + 3, n + 2, DEGREE_MAX):
            approx._HERMITE_ROWS.clear()
            approx._GRAM_BLOCKS.pop(n, None)
            approx._rule_node_weights.cache_clear()
            degrees.clear()
            qr_weights(b, scaled_nodes(b, n), m)
            assert degrees == [0], (n, m)


def test_series_is_summed_in_ascending_m_to_the_bit():
    # The reduce over the cached rows adds the terms one m at a time, for
    # ratios g of either sign; numpy would sum a single node's terms
    # pairwise, and the cache holds one node only where it holds one row.
    for gamma in (-0.9, -0.3, 0.0, 0.37, 0.99):
        for n in range(1, 201):
            want = _ascending_series(gamma, n, gh_rule(n).nodes).tobytes()
            assert even_hermite_series(gamma, n).tobytes() == want, (gamma, n)


# The smallest ratio S_N(t_n) / sum_m |g^m r_m hhat_2m(t_n)| over N = 1..200
# at each acceptance scale measured 0.15830 (N = 199), 0.22347 (199),
# 0.31544 (199), 0.44285 (171), 0.66874 (71) and 0.94574 (25); each floor
# is that value cut to three digits.  The series thus never cancels by
# more than a factor of 6.4, and w_n, a positive multiple of S_N(t_n),
# keeps its sign with that margin.
SIGN_MARGIN = {0.05: 0.158, 0.1: 0.223, 0.2: 0.315, 0.4: 0.442, 1.0: 0.668, 4.0: 0.945}


def test_series_keeps_its_sign_margin_at_the_acceptance_scales():
    smallest = dict.fromkeys(SIGN_MARGIN, math.inf)
    for n in range(1, 201):
        even = normalized_table(gh_rule(n).nodes, 2 * ((n - 1) // 2))[:, ::2]
        m = np.arange(even.shape[1])
        for ell in SIGN_MARGIN:
            gamma = basis_from(ell).eigenvalue_ratio
            absolute = np.abs(even * (gamma**m * even_mean_ratios(m[-1]))).sum(axis=1)
            ratio = (even_hermite_series(gamma, n) / absolute).min()
            smallest[ell] = min(smallest[ell], ratio)
    for ell, floor in SIGN_MARGIN.items():
        assert smallest[ell] >= floor, (ell, smallest[ell])


def test_series_matches_a_40_digit_recurrence():
    # The rules with the smallest sign margin at four scales.  The float
    # series agrees to 3.3e-15 relative at most (N = 199, l = 0.05); the
    # value is even in t and mirrored to the bit, so half the nodes suffice.
    mp = mpmath.mp
    with mpmath.workdps(40):
        root = [mp.sqrt(k) for k in range(DEGREE_MAX)]
        for ell, n in ((0.05, 199), (0.4, 171), (1.0, 71), (4.0, 25)):
            gamma = basis_from(ell).eigenvalue_ratio
            coeffs = [mp.mpf(1)]  # g^m r_m, r_m = r_{m-1} sqrt((2m - 1) / 2m)
            for m in range(1, (n - 1) // 2 + 1):
                coeffs.append(coeffs[-1] * mp.mpf(gamma) * root[2 * m - 1] / root[2 * m])
            got = even_hermite_series(gamma, n)
            for i, t in enumerate(gh_rule(n).nodes[: (n + 1) // 2]):
                t = mp.mpf(t)
                prev, cur, want = mp.mpf(1), t, coeffs[0]  # hhat_0, hhat_1, S
                for k in range(1, 2 * len(coeffs) - 2):
                    prev, cur = cur, (t * cur - root[k] * prev) / root[k + 1]
                    if k % 2:
                        want += coeffs[(k + 1) // 2] * cur
                assert abs(got[i] - want) <= 4e-15 * abs(want), (ell, n, i)


def test_even_hermite_values_are_symmetric_at_the_nodes_to_the_bit():
    # The premise of the cache's mirror: at each shipped rule's nodes the
    # even columns read the same bits from either end.
    for n in range(1, 201):
        even = normalized_table(gh_rule(n).nodes, 2 * ((n - 1) // 2))[:, ::2]
        assert even.tobytes() == even[::-1].tobytes(), n


@pytest.mark.parametrize("ell,n", [(0.2, 20), (1.0, 20), (4.0, 20), (0.2, 80), (1.0, 5)])
def test_qr_weights_at_square_truncation_match_closed_form(ell, n):
    # qr_weights at a rule's own nodes is the closed form itself, so the
    # independent check is the Householder solve.
    b = basis_from(ell)
    a = approx_rule(b, n)
    qw = approx._householder_qr_weights(b, a.rule.nodes, n)
    dev = np.linalg.norm(qw - a.rule.weights) / np.linalg.norm(a.rule.weights)
    assert dev <= 1e-12


def test_qr_weights_at_machine_truncation_match_exact_solve():
    # exact_weights is qr_weights at machine_truncation, so the exact solve
    # here is the full-kernel system solved in 40 digits.
    for ell, n, tol in ((0.2, 20, 1e-12), (0.2, 40, 1e-12), (1.0, 20, 1e-8)):
        b = basis_from(ell)
        a = approx_rule(b, n)
        m = machine_truncation(b, n)
        ew = kernel_weights_mp(a.rule.nodes, ell, 40)
        solved = exact_weights(a.rule.nodes, ell)[0]
        assert solved.tobytes() == qr_weights(b, a.rule.nodes, m).tobytes()
        for solve in (qr_weights, approx._householder_qr_weights):
            qw = solve(b, a.rule.nodes, m)
            assert np.abs(qw - ew).max() / np.abs(ew).max() <= tol, (solve.__name__, ell, n)


# M9's points.  The error is max |w_i / o_i - 1| against o, a 120-digit
# full-kernel solve at the float nodes; measured, Householder -> closed-form
# factor: (1, 20) 4.3e-14 -> 1.7e-14, (1, 36) 1.8e-11 -> 9.3e-12, (4, 12)
# 3.5e-14 -> 2.1e-14, (1, 50) 7.8e-9 -> 3.5e-9, (4, 30) 2.1e-7 -> 1.6e-8,
# (0.5, 50) 2.5e-12 -> 2.5e-14.  The 1e-13 floor: under the OpenBLAS
# Prescott kernel Householder reads 6.6e-15 at (1, 20).
@pytest.mark.parametrize(
    "ell,n", [(1.0, 20), (1.0, 36), (4.0, 12), (1.0, 50), (4.0, 30), (0.5, 50)]
)
def test_qr_weights_at_rule_nodes_are_as_accurate_as_householder(ell, n):
    b = basis_from(ell)
    nodes, m = scaled_nodes(b, n), machine_truncation(b, n)
    want = kernel_weights_mp(nodes, ell, 120)

    def error(w):
        return float(np.max(np.abs(w - want) / np.abs(want)))

    householder = error(approx._householder_qr_weights(b, nodes, m))
    assert error(qr_weights(b, nodes, m)) <= max(householder, 1e-13)


# Small length scales, where machine precision needs M past 400.  The
# error is max |w_i / o_i - 1| against o, a 40-digit full-kernel solve at
# the float nodes (the same to the bit at 80 digits).  Measured at
# machine_truncation's M (578, 741, 771, 461, 441): 6.7e-16, 4.6e-15,
# 1.3e-14, 3.8e-14 and 7.2e-14, and within 2.3e-16 of those under the
# OpenBLAS Haswell and Prescott kernels and numpy's AVX2 loops.  Each bound
# is 1.3 to 3.8 times the largest of these.  With lambda, delta^2 and tau
# each correctly rounded, (0.1, 100) still reads 3.8e-14, and each ulp of
# lambda moves it by 5.3e-15.  At M = 400 the errors read
# 1.6e-12, 3.7e-10, 2.5e-9, 2.2e-13 and 7.2e-14.
@pytest.mark.parametrize("ell,n,bound", [
    (0.0625, 1, 1.5e-15), (0.05, 20, 1.5e-14), (0.05, 50, 5e-14), (0.1, 100, 5e-14),
    (0.15, 200, 1.5e-13),
])
def test_qr_weights_at_machine_truncation_match_the_oracle_at_small_length_scales(ell, n, bound):
    b = basis_from(ell)
    nodes = scaled_nodes(b, n)
    w = qr_weights(b, nodes, machine_truncation(b, n))
    assert np.max(np.abs(w / kernel_weights_mp(nodes, ell, 40) - 1.0)) <= bound
    if n == 1:
        # The single node's weight is k_mu(0) = l / sqrt(1 + l^2): 4.8
        # ulp off (2.8 under Haswell and Prescott), 1.4e4 ulp at M = 400.
        with mpmath.workdps(40):
            want = mpmath.mpf(ell) / mpmath.sqrt(1 + mpmath.mpf(ell) ** 2)
            assert abs(w[0] - want) <= 8 * np.spacing(float(want))


@pytest.mark.parametrize("ell", [0.05, 0.2, 1.0, 4.0, 1e150])
def test_qr_weights_at_rule_nodes_with_at_most_one_extra_term_are_the_closed_form(ell):
    b = basis_from(ell)
    for n in (1, 2, 3, 10, 51, 200):
        rule = approx_rule(b, n).rule
        for m in (n, n + 1):
            assert qr_weights(b, rule.nodes, m).tobytes() == rule.weights.tobytes(), (n, m)


# Indices into (n + 1, n + 13, n + 181, DEGREE_MAX), the degrees each size's store is asked for.
GROWTH_ORDERS = {"ascending": (0, 1, 2, 3), "descending": (3, 2, 1, 0), "interleaved": (1, 3, 0, 2)}


def _growth_requests(order):
    """The (n, degrees) requests of a growth order, for every size n = 1..200.

    "interleaved" also takes the sizes in turn, one request each per round, so an entry
    grows, is read as a prefix and grows again while the other sizes do the same.
    """
    degrees = {n: (n + 1, n + 13, n + 181, DEGREE_MAX) for n in range(1, 201)}
    picks = GROWTH_ORDERS[order]
    if order == "interleaved":
        return [(n, degrees[n][i]) for i in picks for n in degrees]
    return [(n, degrees[n][i]) for n in degrees for i in picks]


def _check_store_growth(order):
    """Every size's stored rows against the table's even columns, from a cleared store."""
    approx._HERMITE_ROWS.clear()
    for n, m in _growth_requests(order):
        table = normalized_table(gh_rule(n).nodes[: (n + 1) // 2], m - 1)
        want = np.ascontiguousarray(table[:, ::2].T).tobytes()
        assert approx._even_rows(n, m).tobytes() == want, (order, n, m)


def test_qr_weights_continues_the_cached_hermite_rows_to_the_bit():
    # At a rule's own nodes the rows past degree n - 1 are the recurrence
    # continued from the stored rows (a zero row for hhat_{-1} at n = 1),
    # on half the nodes: the table's even rows, bit for bit, as M grows.
    _check_store_growth("ascending")


@pytest.mark.parametrize("order", ["descending", "interleaved"])
def test_hermite_store_rows_are_the_table_rows_in_any_growth_order(order):
    _check_store_growth(order)


def test_a_store_view_outlives_the_growth_of_its_entry():
    # A growth writes a new array and replaces the entry, so a view handed
    # out before it keeps its bits and stays read-only.
    for n in (1, 2, 9, 200):
        approx._HERMITE_ROWS.pop(n, None)
        before = approx._even_rows(n, n + 2)
        bits = before.tobytes()
        after = approx._even_rows(n, DEGREE_MAX)
        assert after.base is not before.base and before.tobytes() == bits
        assert after[: before.shape[0]].tobytes() == bits
        for view in (before, after):
            with pytest.raises(ValueError):
                view[0, 0] = 0.0


def test_a_weights_compare_sweep_runs_the_recurrence_once_per_size(monkeypatch, capsys):
    # The rows past N and the Gram block B depend on N and M only: l = 0.2
    # asks each size for the most, and l = 1 and 4 read prefixes of what it
    # stored.  Each size runs the recurrence from degree 0 to its rule's
    # rows, continues it once, from degree n - 1, and builds its B once;
    # size 1's rule needs hhat_0 alone, so it runs from degree 0 just once.
    # The memo of solves is cleared, so every solve runs.
    recurrence, calls = approx._continue_recurrence, []

    class CountedBlocks(dict):
        def __setitem__(self, n, block):
            calls.append(("gram", n))
            super().__setitem__(n, block)

    def continued(x, buffer, degree):
        calls.append(("continue", degree))
        return recurrence(x, buffer, degree)

    monkeypatch.setattr(approx, "_continue_recurrence", continued)
    monkeypatch.setattr(approx, "_GRAM_BLOCKS", CountedBlocks())
    approx._HERMITE_ROWS.clear()
    approx._rule_node_weights.cache_clear()
    assert main(["weights-compare", "--ells", "0.2,1,4", "--ns", "1:60"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 60
    want = []
    for n in range(1, 61):
        want += [("continue", 0)] + [("continue", n - 1)] * (n > 1) + [("gram", n)]
    assert calls == want


def _gram_reference(n):
    """B of gh_rule(n) to DEGREE_MAX from a fresh table: one unchunked reduce, zeros set."""
    h = (n + 1) // 2
    even = np.ascontiguousarray(normalized_table(gh_rule(n).nodes[:h], DEGREE_MAX - 1)[:, ::2].T)
    doubled = 2.0 * gh_rule(n).weights[:h]
    doubled[n // 2 :] = gh_rule(n).weights[n // 2 : h]
    block = np.add.reduce((even[:h] * doubled)[:, None, :] * even[None, h:, :], axis=2)
    block[np.arange(h)[:, None] + np.arange(block.shape[1]) < n // 2] = 0.0
    return block


# sha256 of B at DEGREE_MAX for n = 1..200 in turn: the same bytes on numpy
# 2.4.6 by default, with its AVX-512 loops off, and under the OpenBLAS
# Haswell and Prescott kernels, as no BLAS call forms B.
GRAM_SHA256 = "13ca4ba5087b64e0d061444477662566887f46b4243b90926aec7baa3b6f6433"


def test_gram_store_is_one_fresh_reduce_in_any_growth_order():
    # Each B entry is numpy's pairwise sum over the half nodes, whatever
    # columns a growth adds and however it chunks them: every view the store
    # returns, for the degrees and orders of the row-store growth tests, is
    # a prefix of one unchunked reduce over a fresh table, bit for bit.
    want = {n: _gram_reference(n) for n in range(1, 201)}
    digest = hashlib.sha256()
    for n in want:
        digest.update(want[n].tobytes())
    assert digest.hexdigest() == GRAM_SHA256
    for order in GROWTH_ORDERS:
        approx._GRAM_BLOCKS.clear()
        for n, m in _growth_requests(order):
            width = (m + 1) // 2 - (n + 1) // 2
            got = approx._gram_block(n, m)
            assert got.tobytes() == want[n][:, :width].tobytes(), (order, n, m)


def test_gram_store_zeros_are_exact_and_its_views_read_only():
    # B_jk is 0.0 by the rule's exactness where j + k < 2n, not a rounded
    # sum, and a view keeps its bits and stays read-only when the entry grows.
    for n in (1, 2, 9, 60, 199, 200):
        approx._GRAM_BLOCKS.pop(n, None)
        before = approx._gram_block(n, n + 2)
        bits = before.tobytes()
        after = approx._gram_block(n, DEGREE_MAX)
        assert after.base is not before.base and before.tobytes() == bits
        assert approx._gram_block(n, n + 2).base is after.base
        h = (n + 1) // 2
        zero = np.arange(h)[:, None] + np.arange(after.shape[1]) < n // 2
        assert after[zero].tobytes() == np.zeros(int(zero.sum())).tobytes()
        for view in (before, after):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[-1, -1] = 1.0


# 25 length scales log-spaced over [0.05, 1e6] and 25 uniform in [0.05, 20].
POWER_TABLE_ELLS = [*np.geomspace(0.05, 1e6, 25), *np.linspace(0.05, 20.0, 25)]


def test_ratio_power_prefixes_are_the_direct_power_to_the_bit():
    # The one power table per ratio stands for the separate ratio ** arange(k)
    # passes it replaced: every prefix, k = 1..DEGREE_MAX + 1, byte for byte.
    for ell in POWER_TABLE_ELLS:
        ratio = basis_from(ell).eigenvalue_ratio
        table = mercer._ratio_powers(ratio)
        assert not table.flags.writeable and table.size == DEGREE_MAX + 1
        for k in range(1, DEGREE_MAX + 2):
            assert table[:k].tobytes() == (ratio ** np.arange(k)).tobytes(), (ell, k)


def test_ratio_power_cache_stays_bounded():
    size = mercer._ratio_powers.cache_info().maxsize
    for ell in np.linspace(0.3, 3.0, 3 * size):
        mercer._ratio_powers(basis_from(ell).eigenvalue_ratio)
    assert mercer._ratio_powers.cache_info().currsize == size


@pytest.mark.parametrize("ell", [0.05, 0.2, 1.0, 4.0])
def test_power_table_lookup_is_the_direct_power_to_the_bit(ell):
    # Both QR solves index ratio ** arange(M) where they took a power per
    # matrix entry: the same pow per exponent value, at every N and its
    # machine_truncation, for the rule-node solve's (j, k) block and the
    # Householder solve's N x (M - N) exponents.
    ratio = basis_from(ell).eigenvalue_ratio
    for n in range(1, 201):
        m = approx._truncation(basis_from(ell), n)
        if m > DEGREE_MAX:
            continue
        table = ratio ** np.arange(m)
        js = np.arange(max(0, 2 * (n - (m - 1) // 2)), n, 2)
        ks = np.arange(n + n % 2, m, 2)
        householder = n + np.arange(m - n)[None, :] - np.arange(n)[:, None]
        for exponents in (ks - js[:, None], householder):
            assert table[exponents].tobytes() == (ratio ** exponents).tobytes(), (ell, n)


def test_qr_weights_at_rule_nodes_build_no_hermite_table(monkeypatch):
    # Once a size's rows are cached, a solve runs no recurrence step and
    # needs no approx_rule, whether it moves an unknown (M >= N + 2 at odd N,
    # M >= N + 3 at even N) or none.  The memo of solves is cleared, so
    # each one runs again.
    cases = []
    for ell in (0.2, 1.0, 4.0):
        b = basis_from(ell)
        for n in (1, 2, 3, 10, 51, 200):
            for m in {n, n + 1, n + 2, n + 3, machine_truncation(b, n), DEGREE_MAX}:
                if m <= DEGREE_MAX:
                    nodes = scaled_nodes(b, n)
                    cases.append((b, nodes, m, qr_weights(b, nodes, m)))

    def refuse(*args):
        raise AssertionError("called on the rule-node path")

    monkeypatch.setattr(approx, "_continue_recurrence", refuse)
    monkeypatch.setattr(approx, "approx_rule", refuse)
    approx._rule_node_weights.cache_clear()
    for b, nodes, m, want in cases:
        assert qr_weights(b, nodes, m).tobytes() == want.tobytes(), (b.length_scale, nodes.size, m)


@pytest.mark.parametrize("ell", [0.05, 0.2, 1.0, 4.0])
def test_qr_weights_from_the_memo_are_a_cleared_solve_to_the_bit(ell):
    # A memo hit returns the bytes of a solve run with the memo cleared, at
    # every size, for M = N + 1 (no unknown moves), N + 13 and
    # machine_truncation's M (921 = DEGREE_MAX at l = 0.05, N = 200).
    b = basis_from(ell)
    for n in range(1, 201):
        nodes = scaled_nodes(b, n)
        for m in (n + 1, n + 13, machine_truncation(b, n)):
            qr_weights(b, nodes, m)
            hits = approx._rule_node_weights.cache_info().hits
            memo = qr_weights(b, nodes, m)
            assert approx._rule_node_weights.cache_info().hits == hits + 1
            approx._rule_node_weights.cache_clear()
            assert memo.tobytes() == qr_weights(b, nodes, m).tobytes(), (ell, n, m)


def test_qr_weights_and_exact_weights_hand_out_fresh_arrays():
    # The memo keeps read-only weights and each call copies them, so a
    # write into one result reaches no later one.
    b = basis_from(1.0)
    nodes, m = scaled_nodes(b, 20), machine_truncation(b, 20)
    first, m_exact = exact_weights(nodes, 1.0)
    want = first.tobytes()
    first[:] = np.nan
    second = qr_weights(b, nodes, m)
    assert m_exact == m and second.tobytes() == want
    second[0] = 0.0
    assert qr_weights(b, nodes, m).tobytes() == want
    assert exact_weights(nodes, 1.0)[0].tobytes() == want
    assert not approx._rule_node_weights(b, 20, m).flags.writeable


def test_exact_then_qr_weights_at_one_rule_run_one_qr_weights_solve(monkeypatch):
    # An error-diagnostics operation: the rule, its exact weights, then
    # qr_weights at machine_truncation's M.  Each solve body reads the
    # size's B once, and neither approx_rule nor a memo hit reads it.
    gram, solves = approx._gram_block, []

    def counted(n, degrees):
        solves.append((n, degrees))
        return gram(n, degrees)

    monkeypatch.setattr(approx, "_gram_block", counted)
    approx._rule_node_weights.cache_clear()
    points = ((0.2, 60), (1.0, 30), (4.0, 200))
    for ell, n in points:
        b = basis_from(ell)
        nodes = approx_rule(b, n).rule.nodes
        w = exact_weights(nodes, ell)[0]
        assert qr_weights(b, nodes, machine_truncation(b, n)).tobytes() == w.tobytes()
    assert solves == [(n, machine_truncation(basis_from(ell), n)) for ell, n in points]
    info = approx._rule_node_weights.cache_info()
    assert (info.hits, info.misses) == (3, 3)


def test_qr_weights_memo_stays_bounded():
    size = approx._rule_node_weights.cache_info().maxsize
    b = basis_from(1.0)
    for n in range(1, 3 * size + 1):
        qr_weights(b, scaled_nodes(b, n), n + 1)
    assert approx._rule_node_weights.cache_info().currsize == size == 16


def test_qr_weights_memo_hits_once_per_repeated_pair():
    # error-diagnostics cycles through more keys than the memo holds: each
    # operation's exact_weights misses and its qr_weights hits, and no key
    # is still held when the next pass comes back to it.
    keys = [(ell, n) for ell in (0.5, 1.0, 2.0) for n in (5, 12, 20, 33, 41, 57, 64)]
    approx._rule_node_weights.cache_clear()
    for _ in range(2):
        for ell, n in keys:
            b = basis_from(ell)
            nodes = scaled_nodes(b, n)
            exact_weights(nodes, ell)
            qr_weights(b, nodes, machine_truncation(b, n))
    info = approx._rule_node_weights.cache_info()
    assert len(keys) > info.maxsize
    assert (info.hits, info.misses) == (2 * len(keys), 2 * len(keys))


def test_qr_weights_at_other_nodes_take_the_householder_solve():
    # Reversed or one-ulp-moved rule nodes are not the rule's own nodes.
    for ell, n in ((1.0, 5), (1.0, 20), (4.0, 12), (1e150, 3)):
        b = basis_from(ell)
        nodes, m = scaled_nodes(b, n), machine_truncation(b, n)
        moved = nodes.copy()
        moved[n // 3] = np.nextafter(moved[n // 3], np.inf)
        for other in (nodes[::-1], moved):
            want = approx._householder_qr_weights(b, other, m)
            assert qr_weights(b, other, m).tobytes() == want.tobytes(), (ell, n)


def test_qr_weights_at_rule_nodes_are_finite_and_mirror_symmetric():
    # At l = 1e-3 machine precision needs M past the guard at every size,
    # so machine_truncation refuses there; the weights are taken at the guard.
    for ell in (1e-3, 0.05, 0.2, 1.0, 4.0, 10.0, 1e150):
        b = basis_from(ell)
        for n in range(1, 201):
            if ell == 1e-3:
                with pytest.raises(NumericalFailureError, match=f"^truncation .* N = {n} needs"):
                    machine_truncation(b, n)
                m = DEGREE_MAX
            else:
                m = machine_truncation(b, n)
            w = qr_weights(b, scaled_nodes(b, n), m)
            assert np.isfinite(w).all() and w.tobytes() == w[::-1].tobytes(), (ell, n)


def test_qr_weights_single_node():
    b = basis_from(1.0)
    lead = 1.0 / math.sqrt(1.0 + 2.0 * b.delta_sq)
    assert qr_weights(b, [0.0], 1)[0] == pytest.approx(lead, abs=1e-15)
    wbig = qr_weights(b, [0.0], machine_truncation(b, 1))
    assert abs(wbig[0] - 1.0 / math.sqrt(2.0)) <= 1e-14


def test_qr_weights_at_far_nodes_are_refused_without_a_warning():
    # hhat overflows at +-60 and the envelope times inf is nan; the table's
    # overflow and nan once leaked numpy warnings before the refusal.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError, match="zero or non-finite row"):
            qr_weights(basis_from(1.0), [-60.0, 0.0, 60.0], 400)


def test_machine_truncation_values_and_cap():
    # DEGREE_MAX is the M at the smallest guarded length scale and the
    # largest size, l = 0.05 and N = 200; one term more is refused, with
    # the tail lambda_DEGREE_MAX / lambda_N at the guard as evidence.
    assert machine_truncation(basis_from(0.2), 20) == 201
    assert machine_truncation(basis_from(1.0), 20) == 58
    assert machine_truncation(basis_from(0.05), 1) == 722
    assert machine_truncation(basis_from(0.05), 200) == DEGREE_MAX == 921
    assert machine_truncation(basis_from(0.04), 19) == DEGREE_MAX
    for ell, n, m, tail in ((0.04, 20, 922, "2.23e-16"), (0.049, 200, 936, "4.55e-16")):
        want = (f"truncation to machine precision at length scale {ell} and N = {n} needs "
                f"M = {m} terms, past the degree guard 921, where lambda_921 / lambda_{n} "
                f"is {tail}")
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(want)}$"):
            machine_truncation(basis_from(ell), n)
    with pytest.raises(SizeError):
        machine_truncation(basis_from(1.0), 399)
    eps = np.finfo(float).eps
    for ell in (0.04, 0.045, 0.049, 0.05, 0.0625, 0.1, 0.15, 1.0, 7.0):
        b = basis_from(ell)
        for n in range(1, 201):
            refused = b.eigenvalue_ratio ** (DEGREE_MAX - n) >= eps
            try:
                m = machine_truncation(b, n)
            except NumericalFailureError:
                assert refused, (ell, n)
                continue
            assert not refused and n < m <= DEGREE_MAX, (ell, n, m)
            assert b.eigenvalue_ratio ** (m - n) < eps <= b.eigenvalue_ratio ** (m - n - 1)


def test_machine_truncation_takes_the_limits_where_the_ratio_rounds():
    # At the top of the range, l = 4.74e153, the ratio is the smallest
    # normal float times 2, so the formula gives n + 1; from l = 3e161 it
    # would round to 0, but every length scale past the top is refused.
    # It rounds to 1 at every l <= 2^-54 = 5.55e-17 and at none above,
    # where the formula's limit is an M past every guard, which is refused.
    b = basis_from(ELL_MAX)
    assert b.eigenvalue_ratio >= sys.float_info.min
    assert [machine_truncation(b, n) for n in (1, 3, 200)] == [2, 4, 201]
    with pytest.raises(DomainError, match="^length scale 1e\\+162 is too large"):
        basis_from(1e162)
    for ell in (1e-17, 1e-100):
        b = basis_from(ell)
        assert b.eigenvalue_ratio == 1.0
        want = (f"truncation to machine precision at length scale {ell} and N = 3 needs "
                "M = inf terms, past the degree guard 921, where lambda_921 / lambda_3 is 1")
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(want)}$"):
            machine_truncation(b, 3)


@pytest.mark.parametrize("m_max", [0, 1, 5, 12, 25])
def test_christoffel_darboux_sum_matches_ratio_form(m_max):
    # sum_m H_m(x) H_m(y) / m! from the normalized table, against the
    # Christoffel-Darboux ratio form in exact rationals.
    x, y = Fraction(3, 4), Fraction(-5, 8)
    hm_x = exact_hermite(m_max, x)
    hm_y = exact_hermite(m_max, y)
    hp_x = exact_hermite(m_max + 1, x)
    hp_y = exact_hermite(m_max + 1, y)
    exact = (hm_y * hp_x - hm_x * hp_y) / (math.factorial(m_max) * (x - y))
    table = normalized_table([float(x), float(y)], m_max)
    got = math.fsum(table[0] * table[1])
    assert abs(got - float(exact)) <= 1e-11 * max(1.0, abs(float(exact)))


def test_guards():
    b = basis_from(1.0)
    with pytest.raises(SizeError):
        approx_rule(b, 0)
    with pytest.raises(SizeError):
        approx_rule(b, 201)
    with pytest.raises(SizeError):
        approx_rule(b, 2.5)
    with pytest.raises(SizeError):
        scaled_nodes(b, 0)
    for bad in (0, 2.5, 201):
        with pytest.raises(SizeError):
            even_hermite_series(0.4, bad)
        with pytest.raises(SizeError):
            machine_truncation(b, bad)
    with pytest.raises(DomainError):
        qr_weights(b, [0.0, 1.0], 1)
    with pytest.raises(DomainError):
        qr_weights(b, [0.0, 1.0], DEGREE_MAX + 1)
    with pytest.raises(DomainError):
        qr_weights(b, [1.0, 1.0], 5)
    with pytest.raises(SizeError):
        qr_weights(b, [], 5)
    # A rule of the other kind is refused by type, not by a missing attribute.
    with pytest.raises(DomainError, match="^rule must be a QuadratureRule, got ApproxRule$"):
        worst_case_error(approx_rule(b, 5), 1.0)
    with pytest.raises(DomainError, match="^approx must be an ApproxRule, got QuadratureRule$"):
        eigen_exactness_residual(gh_rule(5), 1)
    # Sizes are read through operator.index, as check_size reads them.
    for bad in (10.5, np.float64(12.0)):
        with pytest.raises(DomainError, match="must be an integer"):
            qr_weights(b, [0.0, 1.0], bad)
    assert qr_weights(b, [0.0, 1.0], np.int64(5)).tolist() == qr_weights(
        b, [0.0, 1.0], 5).tolist()
