"""The package's public surface and the imports of its modules.

A name joins the package root only when the paper, the CLI or the
acceptance gate needs it, so adding or removing one fails the pin below
until the list is edited on purpose.
"""

import ast
import types
from pathlib import Path

import gkquad

ROOT_NAMES = [
    "ALPHA_DEFAULT",
    "ApproxRule",
    "ConvergenceConstants",
    "DEGREE_MAX",
    "DIM_MAX",
    "DegreeOverflowError",
    "DomainError",
    "EvaluationError",
    "GRID_MAX",
    "GaussianKernel",
    "GkquadError",
    "IllConditionedError",
    "KernelSystem",
    "MercerBasis",
    "N_MAX",
    "NumericalFailureError",
    "QuadratureRule",
    "SizeError",
    "TensorRule",
    "WceReport",
    "approx_rule",
    "basis_from",
    "christoffel_darboux_sum",
    "eigen_exactness_residual",
    "eigenvalue",
    "even_hermite_series",
    "exact_weights",
    "gaussian_poly_integrand",
    "gh_rule",
    "hermite_eval",
    "kernel_mean",
    "kernel_mean_mean",
    "kernel_system",
    "machine_truncation",
    "multivariate_constants",
    "qr_weights",
    "scaled_nodes",
    "tensor_integrate",
    "tensor_rule",
    "theoretical_constants",
    "worst_case_error",
]


def test_root_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(gkquad).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(ROOT_NAMES) == 41
    assert names == ROOT_NAMES


def _imported_and_used(tree: ast.Module) -> tuple[set[str], set[str]]:
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_every_module_uses_what_it_imports():
    # The check itself must see a dead plain import and a dead from-import.
    tree = ast.parse("import math\nimport numpy as np\nfrom .x import a, b\n\nnp.zeros(a)\n")
    imported, used = _imported_and_used(tree)
    assert imported - used == {"math", "b"}

    package = Path(gkquad.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = []
    for path in modules:
        imported, used = _imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
        dead.extend(f"{path.name}: {name}" for name in sorted(imported - used))
    assert not dead, "imported but unused: " + ", ".join(dead)

