"""Gaussian kernel quadrature on scaled Gauss-Hermite nodes.

The package builds kernel quadrature rules for the Gaussian kernel under
the standard Gaussian measure.  The headline rule places nodes at scaled
Gauss-Hermite points and evaluates its weights in closed form, with no
linear solve, so it remains computable at sizes where the kernel matrix
is numerically singular.  Supporting modules cover the Hermite
polynomial machinery, the kernel eigendecomposition, the exact
solve-based weights, QR-based reference weights, tensor-product
cubature, and worst-case-error diagnostics.
"""

from .approx import (
    approx_rule,
    eigen_exactness_residual,
    machine_truncation,
    qr_weights,
    scaled_nodes,
)
from .errors import (
    DegreeOverflowError,
    DomainError,
    EvaluationError,
    GkquadError,
    NumericalFailureError,
    SizeError,
)
from .exact import (
    exact_weights,
    kernel_mean,
    kernel_mean_mean,
)
from .gauss_hermite import (
    N_MAX,
    QuadratureRule,
    gh_rule,
)
from .mercer import (
    ALPHA_DEFAULT,
    MercerBasis,
    basis_from,
    eigenvalue,
)
from .tensor import (
    TensorRule,
    gaussian_poly_integrand,
    tensor_integrate,
    tensor_rule,
)
from .wce import (
    ConvergenceConstants,
    WceReport,
    multivariate_constants,
    theoretical_constants,
    worst_case_error,
)

__version__ = "0.1.0"
