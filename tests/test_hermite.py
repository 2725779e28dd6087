"""Normalized Hermite table against an exact rational oracle."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gkquad.errors import DegreeOverflowError, DomainError
from gkquad.hermite import DEGREE_MAX, normalized_table
from oracles import exact_hermite


@pytest.mark.parametrize("n", [*range(14), 21, 34])
@pytest.mark.parametrize("x", [-7.5, -3.0, -2.0, -1.25, -0.375, 0.0, 0.5, 0.75, 1.0, 2.5, 4.25, 6.0])
def test_eval_matches_rational_oracle(n, x):
    # hhat_n(x) = H_n(x) / sqrt(n!); the largest relative gap over these
    # 192 points is 1.0e-14 (n = 4, x = 0.75, next to a zero of He_4),
    # and the nine zeros are exact.
    got = normalized_table([x], n)[0, n]
    want = exact_hermite(n, Fraction(x))
    if want == 0:
        assert got == 0.0
    else:
        assert math.isclose(got, float(want) / math.sqrt(math.factorial(n)), rel_tol=1e-12)


@given(
    n=st.integers(min_value=2, max_value=40),
    x=st.floats(min_value=-9.0, max_value=9.0, allow_nan=False),
)
def test_normalized_recurrence_residual(n, x):
    """hhat_{n} satisfies sqrt(n) hhat_n = x hhat_{n-1} - sqrt(n-1) hhat_{n-2}."""
    seq = normalized_table([x], n)[0]
    lhs = math.sqrt(n) * seq[n]
    rhs = x * seq[n - 1] - math.sqrt(n - 1) * seq[n - 2]
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_normalized_values_respect_growth_envelope():
    xs = np.linspace(-15.0, 15.0, 301)
    table = normalized_table(xs, 60)
    bound = 1.087 * np.exp(xs**2 / 4.0)
    assert np.all(np.abs(table) <= bound[:, None] * (1.0 + 1e-12))


def test_table_rows_match_sequences():
    xs = np.array([-2.0, 0.3, 1.7])
    table = normalized_table(xs, 25)
    for i, x in enumerate(xs):
        np.testing.assert_array_equal(table[i], normalized_table([x], 25)[0])


def column_table(x, degree_max):
    """The recurrence one column at a time, each column a fresh expression."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, degree_max + 1))
    out[:, 0] = 1.0
    if degree_max >= 1:
        out[:, 1] = x
    for n in range(1, degree_max):
        out[:, n + 1] = (x * out[:, n] - math.sqrt(n) * out[:, n - 1]) / math.sqrt(n + 1)
    return out


@pytest.mark.parametrize("degree", [0, 1, 2, 57, 400, DEGREE_MAX])
@pytest.mark.parametrize("npoints", [1, 2, 7, 100, 200])
def test_table_is_the_column_recurrence_bit_for_bit(degree, npoints):
    # Wide points, so that large degrees overflow to inf and then to nan;
    # zeros, signed zeros and non-finite points as well.
    rng = np.random.default_rng(degree * 1000 + npoints)
    x = rng.standard_normal(npoints) * 10.0 ** rng.uniform(-3, 2, npoints)
    x[: min(npoints, 5)] = [0.0, -0.0, np.nan, np.inf, -40.0][: min(npoints, 5)]
    with np.errstate(over="ignore", invalid="ignore"):
        got = normalized_table(x, degree)
        want = column_table(x, degree)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_degree_guard():
    normalized_table([0.0], DEGREE_MAX)
    with pytest.raises(DegreeOverflowError):
        normalized_table([0.0], DEGREE_MAX + 1)
    for bad in (2.5, 2.0, None, True):
        with pytest.raises(DomainError, match="degree must be an integer"):
            normalized_table(np.array([0.5, 1.0]), bad)
    assert normalized_table([2.0], np.int64(3)).tolist() == normalized_table([2.0], 3).tolist()


def test_degree_guard_is_a_value_error():
    with pytest.raises(ValueError):
        normalized_table([0.0], -1)


def test_non_finite_input_propagates():
    assert math.isnan(normalized_table([float("nan")], 5)[0, 3])
    # Overflow: once two infinite terms meet, the recurrence gives nan.
    for n, x in ((200, 1e3), (3, math.inf)):
        assert math.isnan(normalized_table([x], n)[0, n]), (n, x)


def test_table_past_the_float_range_comes_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = normalized_table([np.inf], 3)
    assert table[0, :3].tolist() == [1.0, np.inf, np.inf] and np.isnan(table[0, 3])
