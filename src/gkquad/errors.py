"""Exception types shared across the package, and the integer and real readers.

Domain / size / degree violations subclass ValueError so that generic
callers can treat them as bad input; numerical failures subclass
RuntimeError because the inputs were legal but the computation could not
be trusted.
"""

import math
import numbers
import operator

__all__ = [
    "GkquadError",
    "DomainError",
    "SizeError",
    "DegreeOverflowError",
    "NumericalFailureError",
    "IllConditionedError",
    "EvaluationError",
    "as_index",
    "as_real",
]


class GkquadError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GkquadError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(GkquadError, ValueError):
    """A size parameter violates a guard (rule size, grid size, dimension)."""


class DegreeOverflowError(GkquadError, ValueError):
    """Polynomial degree above the evaluation guard."""


class NumericalFailureError(GkquadError, RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class IllConditionedError(NumericalFailureError):
    """A linear solve was rejected as unreliable.

    Carries the condition estimate of the offending matrix so callers can
    report it, and ``check``, the name of the test that refused the solve
    (``"condition"`` or ``"cholesky"``, see :func:`gkquad.exact.exact_weights`).
    """

    def __init__(self, message: str, condition_estimate: float, check: str):
        super().__init__(message)
        self.condition_estimate = condition_estimate
        self.check = check


class EvaluationError(GkquadError, RuntimeError):
    """An integrand returned a non-finite value.

    ``multi_index`` identifies the offending grid point in tensor rules.
    """

    def __init__(self, message: str, multi_index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.multi_index = multi_index


def as_index(value, what: str, lo: int, hi: int, error=DomainError, range_error=None) -> int:
    """value as an int in [lo, hi] (2.0 and True fail); else error, or range_error out of range."""
    try:
        if isinstance(value, bool):
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if not lo <= index <= hi:
        raise (range_error or error)(f"{what} must be in [{lo}, {hi}], got {index}")
    return index


def as_real(value, what: str) -> float:
    """value as a float (True, 1j, "1.0" and None fail); an int past the float range is +-inf."""
    # float and int come first: they skip the numbers.Real ABC check, several times slower.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf  # an int or Fraction with no float
