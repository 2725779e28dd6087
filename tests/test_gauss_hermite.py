"""Gauss-Hermite rules against moment identities and an independent builder.

``gh_rule`` reads the rules shipped in ``gh_rules.npy``, so every check
here on ``gh_rule`` checks the shipped data; the reference construction
``_golub_welsch`` in ``tools/make_gh_rules.py`` that made the file is
checked against it below.
"""

import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from gkquad import QuadratureRule, gh_rule, worst_case_error
from gkquad import gauss_hermite
from gkquad.errors import DomainError, NumericalFailureError, SizeError
from gkquad.gauss_hermite import N_MAX
from gkquad.hermite import normalized_table
from oracles import double_factorial

_spec = importlib.util.spec_from_file_location(
    "make_gh_rules", Path(__file__).parents[1] / "tools" / "make_gh_rules.py"
)
make_gh_rules = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_gh_rules)


def test_closed_form_rules():
    r1 = gh_rule(1)
    assert r1.nodes.tolist() == [0.0]
    assert r1.weights.tolist() == [1.0]

    r2 = gh_rule(2)
    assert r2.nodes.tolist() == [-1.0, 1.0]
    assert r2.weights.tolist() == [0.5, 0.5]

    r3 = gh_rule(3)
    root3 = math.sqrt(3.0)
    assert np.abs(r3.nodes - [-root3, 0.0, root3]).max() <= 5e-16
    assert np.abs(r3.weights - [1 / 6, 2 / 3, 1 / 6]).max() <= 1e-16


@pytest.mark.parametrize("n", range(1, 26))
def test_even_moments_match_double_factorial(n):
    rule = gh_rule(n)
    xs = [float(v) for v in rule.nodes]
    ws = [float(v) for v in rule.weights]
    for j in range(0, 2 * n, 2):
        got = math.fsum(w * x**j for x, w in zip(xs, ws))
        exact = float(double_factorial(j))
        assert abs(got - exact) <= 1e-13 * exact


@pytest.mark.parametrize("n", range(1, 26))
def test_odd_moments_cancel_exactly(n):
    # Nodes are bitwise antisymmetric and weights bitwise symmetric, and
    # scalar pow preserves the sign of odd powers exactly, so exact
    # summation of the term list leaves literal zero.
    rule = gh_rule(n)
    xs = [float(v) for v in rule.nodes]
    ws = [float(v) for v in rule.weights]
    for j in range(1, 2 * n, 2):
        assert math.fsum(w * x**j for x, w in zip(xs, ws)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 20, 40, 64, 99, 150, 200])
def test_matches_independent_hermegauss_builder(n):
    rule = gh_rule(n)
    x, w = hermite_e.hermegauss(n)
    w = w / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(rule.nodes - x) / (1.0 + np.abs(x))) <= 1e-15
    assert np.max(np.abs(rule.weights - w) / w) <= 1e-12


def test_symmetry_is_bitwise():
    for n in list(range(1, 61)) + [99, 128, 200]:
        rule = gh_rule(n)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])


def test_weights_positive_and_normalized_for_all_sizes():
    for n in range(1, N_MAX + 1):
        rule = gh_rule(n)
        assert rule.weights.min() > 0.0
        assert abs(math.fsum(rule.weights) - 1.0) <= 2e-15


def test_tail_weights_stay_accurate_at_largest_size():
    # The smallest weight at N=200 is far below any absolute noise floor
    # an eigenvector-based formula could reach; it must still be a clean
    # normal float, not flushed junk.
    w = gh_rule(200).weights
    assert 0.0 < w.min() < 1e-150
    assert w.min() > 1e-170


def test_nodes_are_polynomial_roots():
    for n in range(1, N_MAX + 1):
        rule = gh_rule(n)
        table = normalized_table(rule.nodes, n)
        rel = np.abs(table[:, n]) / np.abs(table).max(axis=1)
        assert rel.max() <= 1e-12


def test_normalized_hermite_values_are_discretely_orthonormal():
    # The fact qr_weights' closed-form factor rests on: each rule is exact
    # to degree 2n - 1, so sum_i v_i hhat_j(t_i) hhat_k(t_i) = delta_jk for
    # j + k <= 2n - 1.  Measured maximum 4.6e-15 (n = 167), the same under
    # the OpenBLAS Haswell and Prescott kernels.
    for n in range(1, N_MAX + 1):
        rule = gh_rule(n)
        table = normalized_table(rule.nodes, 2 * n - 1)
        gram = (table.T * rule.weights) @ table
        degree = np.arange(2 * n)
        exact = degree[:, None] + degree <= 2 * n - 1
        assert np.abs(gram - np.eye(2 * n))[exact].max() <= 1e-14, n


def test_node_bound_holds_for_all_sizes():
    for n in range(1, N_MAX + 1):
        assert np.max(np.abs(gh_rule(n).nodes)) <= 2.0 * math.sqrt(n - 1.0)
    r100 = gh_rule(100)
    assert np.abs(r100.nodes).max() <= 2.0 * math.sqrt(99.0)


def test_rules_are_cached():
    assert gh_rule(64) is gh_rule(64)


def test_measure_tag_and_len():
    rule = gh_rule(5)
    assert len(rule) == 5


def test_size_guards():
    with pytest.raises(SizeError):
        gh_rule(0)
    with pytest.raises(SizeError):
        gh_rule(-3)
    with pytest.raises(SizeError):
        gh_rule(N_MAX + 1)
    with pytest.raises(SizeError):
        gh_rule(2.5)
    assert gh_rule(np.int64(5)) is gh_rule(5)


def test_rule_container_validation():
    with pytest.raises(DomainError, match="ascending"):
        QuadratureRule(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match="equal length"):
        QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(DomainError, match="at least one node"):
        QuadratureRule(np.array([]), np.array([]))
    with pytest.raises(DomainError, match="one-dimensional"):
        QuadratureRule(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        worst_case_error(QuadratureRule([0.0, np.inf], [1.0, 1.0]), 1.0)
    with pytest.raises(DomainError):
        QuadratureRule([0.0, 1.0], [np.nan, 1.0])
    # The rule freezes its own copies: the caller's arrays stay writable,
    # and a view taken before the rule was built cannot unsort its nodes.
    x, w = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    view = x[:]
    rule = QuadratureRule(x, w)
    x[0], w[0] = 3.0, 0.25
    view[1] = -1.0
    assert rule.nodes.tolist() == [0.0, 1.0]
    assert rule.weights.tolist() == [0.5, 0.5]


def test_rule_container_is_read_only():
    rule = gh_rule(4)
    with pytest.raises(Exception):
        rule.nodes[0] = 5.0
    with pytest.raises(Exception):
        rule.weights[0] = 5.0


def test_node_residual_error_names_the_worst_node(monkeypatch):
    n = 8
    table = normalized_table(make_gh_rules._golub_welsch(n).nodes, n)
    worst = int(np.argmax(np.abs(table[:, n]) / np.abs(table).max(axis=1)))
    monkeypatch.setattr(make_gh_rules, "_RESIDUAL_TOL", 0.0)
    with pytest.raises(NumericalFailureError) as info:
        make_gh_rules._golub_welsch(n)
    assert f"node {worst} of the {n}-point rule" in str(info.value)


def test_shipped_rules_match_the_reference_construction():
    # Here (numpy 2.4.6, OpenBLAS 0.3.31) the shipped table and
    # _golub_welsch agree to the bit at every size.  Another LAPACK build
    # may return eigenvalues a few ulps apart; after the Newton step that
    # moved nodes by at most 2.1e-16 (1 + |x|) and weights by at most
    # 1.04e-13 relative (the extreme nodes' tiny weights), measured with
    # eigenvalues perturbed by up to 1024 ulps.  The bounds keep 5x and
    # 10x of margin over those figures.
    for n in range(1, N_MAX + 1):
        shipped = gh_rule(n)
        ref = make_gh_rules._golub_welsch(n)
        assert np.max(np.abs(shipped.nodes - ref.nodes) / (1.0 + np.abs(ref.nodes))) <= 1e-15
        assert np.max(np.abs(shipped.weights - ref.weights) / ref.weights) <= 1e-12


def test_reference_construction_does_not_depend_on_the_table_layout(monkeypatch):
    # normalized_table promises no memory layout, so the Christoffel sums
    # state their own order: the same rules to the bit from a C-ordered
    # and a Fortran-ordered table, which keeps the shipped file
    # reproducible.
    table = make_gh_rules.normalized_table

    def rules(order):
        monkeypatch.setattr(make_gh_rules, "normalized_table", lambda x, d: order(table(x, d)))
        return [(rule.nodes.tobytes(), rule.weights.tobytes())
                for rule in map(make_gh_rules._golub_welsch, range(1, N_MAX + 1))]

    assert rules(np.ascontiguousarray) == rules(np.asfortranarray)


def test_damaged_table_is_refused(monkeypatch, tmp_path):
    # Read uncached, so the shared table and rules stay as shipped.
    good = np.load(gauss_hermite._TABLE_PATH)
    cases = {
        "short.npy": good[:, :-1],
        "float32.npy": good.astype(np.float32),
        "one_row.npy": good[0],
    }
    for name, table in cases.items():
        np.save(tmp_path / name, table)
    np.save(tmp_path / "pickled.npy", np.array([None], dtype=object), allow_pickle=True)
    for name in [*cases, "pickled.npy", "missing.npy"]:
        monkeypatch.setattr(gauss_hermite, "_TABLE_PATH", tmp_path / name)
        with pytest.raises(NumericalFailureError, match=name):
            gauss_hermite._shipped_table.__wrapped__()
    monkeypatch.setattr(gauss_hermite, "_TABLE_PATH", tmp_path / "short.npy")
    with pytest.raises(NumericalFailureError, match=r"shape \(2, 20099\)"):
        gauss_hermite._shipped_table.__wrapped__()
    # Through the public call, with empty caches swapped in for the test.
    monkeypatch.setattr(
        gauss_hermite, "_shipped_table", functools.cache(gauss_hermite._shipped_table.__wrapped__)
    )
    monkeypatch.setattr(
        gauss_hermite, "_gh_rule_cached", functools.cache(gauss_hermite._gh_rule_cached.__wrapped__)
    )
    with pytest.raises(NumericalFailureError, match="short.npy"):
        gh_rule(7)
