"""Normalized probabilists' Hermite polynomials.

The polynomials H_n satisfy

    H_0(x) = 1,  H_1(x) = x,  H_{n+1}(x) = x H_n(x) - n H_{n-1}(x),

and are orthogonal with <H_n, H_m> = n! delta_nm under the standard
Gaussian measure.  Raw values grow like sqrt(n!), so the package
evaluates only the normalized family hhat_n = H_n / sqrt(n!), whose
rescaled recurrence

    hhat_{n+1}(x) = (x hhat_n(x) - sqrt(n) hhat_{n-1}(x)) / sqrt(n + 1)

keeps every intermediate bounded by roughly 1.087 * exp(x^2 / 4).
"""

import math

import numpy as np

from .errors import DegreeOverflowError, as_index

__all__ = [
    "DEGREE_MAX",
    "normalized_table",
]

# machine_truncation's M at the smallest guarded length scale and the largest
# rule size, l = 0.05 and N = 200: N + ceil(ln eps / ln ratio) = 200 + ceil(720.95).
DEGREE_MAX = 921

# math.sqrt(n) for the recurrence, as 0-d arrays: a ufunc takes those
# with less dispatch than Python floats, and multiplies by the same bits.
_SQRT = [np.array(math.sqrt(n)) for n in range(DEGREE_MAX + 1)]


def normalized_table(x: np.ndarray, degree_max: int) -> np.ndarray:
    """Normalized Hermite values on a grid of points.

    Parameters
    ----------
    x : ndarray, shape (npoints,)
    degree_max : int

    Returns
    -------
    ndarray, shape (npoints, degree_max + 1)
        Column n holds hhat_n(x).  The recurrence runs one degree per
        contiguous row, and the result is a transposed view of that
        buffer: each step is the same four roundings per point as the
        formula in the module docstring.  Values past the float range
        turn inf, then nan, without a warning.  No memory layout is
        promised; a caller that sums over the table states its own order.
    """
    degree_max = as_index(degree_max, "degree", 0, DEGREE_MAX, range_error=DegreeOverflowError)
    x = np.asarray(x, dtype=float)
    buffer = np.empty((degree_max + 1, x.size))
    buffer[0] = 1.0
    _continue_recurrence(x, [np.zeros(x.size), *buffer], 0)  # from hhat_{-1} = 0, hhat_0 = 1
    return buffer.T


def _continue_recurrence(x: np.ndarray, buffer, degree: int) -> None:
    """Fill buffer[2:] with hhat_{degree + 1}, hhat_{degree + 2}, ... at x.

    buffer (an array or a list of rows) starts with hhat_{degree - 1}, hhat_degree; a run from
    the start reads (0, 1), or (0, phi_0), at degree 0, and its first step from (0, 1) is x to
    the bit.  Each row is one contiguous step of the formula's four roundings per point.
    """
    rows = list(buffer)
    scratch = np.empty(x.size)
    with np.errstate(over="ignore", invalid="ignore"):  # callers refuse non-finite values
        for i in range(1, len(rows) - 1):
            n, row = degree + i - 1, rows[i + 1]  # rows[i] is hhat_n; row the ufuncs' output
            np.multiply(x, rows[i], row)
            np.multiply(_SQRT[n], rows[i - 1], scratch)
            np.subtract(row, scratch, row)
            np.divide(row, _SQRT[n + 1], row)
