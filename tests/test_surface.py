"""The package's public surface and the imports of its modules.

A name joins the package root only when the paper, the CLI or the
acceptance gate needs it, so adding or removing one fails the pin below
until the list is edited on purpose.  The same holds for the CLI's
settable values, the source line count and the runtime dependencies,
and every integer argument has one stated range.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gkquad
from gkquad import cli
from gkquad.errors import DegreeOverflowError, DomainError, SizeError
from gkquad.mercer import eigenfunction_means, eigenfunction_table, even_mean_ratios

ROOT_NAMES = [
    "ALPHA_DEFAULT",
    "ConvergenceConstants",
    "DegreeOverflowError",
    "DomainError",
    "EvaluationError",
    "GkquadError",
    "MercerBasis",
    "N_MAX",
    "NumericalFailureError",
    "QuadratureRule",
    "SizeError",
    "TensorRule",
    "WceReport",
    "approx_rule",
    "basis_from",
    "eigen_exactness_residual",
    "eigenvalue",
    "exact_weights",
    "gaussian_poly_integrand",
    "gh_rule",
    "kernel_mean",
    "kernel_mean_mean",
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
    assert len(ROOT_NAMES) == 30
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


def _approx_without_abs(tree: ast.Module) -> list[int]:
    """Lines of the pytest.approx calls that pass no abs=."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "approx" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "pytest"
            and "abs" not in {keyword.arg for keyword in node.keywords}]


def test_every_approx_states_its_abs_tolerance():
    # With no abs=, pytest.approx also accepts anything within 1e-12 of
    # the value: 2000 times looser than rel=5e-16 on a value near 1.
    tree = ast.parse("pytest.approx(1.0, rel=1e-15)\npytest.approx(\n    1.0, rel=1e-15, abs=0)\n")
    assert _approx_without_abs(tree) == [1]

    loose = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        lines = _approx_without_abs(ast.parse(path.read_text(encoding="utf-8")))
        loose.extend(f"{path.name}:{line}" for line in lines)
    assert not loose, "pytest.approx without abs=: " + ", ".join(loose)


# Lines of the package's modules; a change that moves it edits this pin.
SRC_LINES = 1677


def test_source_line_count_is_pinned():
    package = Path(gkquad.__file__).parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in package.glob("*.py"))
    assert lines == SRC_LINES


def test_runtime_dependencies_are_numpy_only():
    # pyproject.toml's [project] dependencies; tomllib is not in Python 3.10.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    assert re.findall(r'"([^"]*)"', block) == ["numpy>=1.24"]


# Prints the top-level names of the modules that importing the CLI loads.
IMPORT_PROBE = """
import sys
before = set(sys.modules)
import gkquad.cli
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_import_loads_only_the_standard_library_and_numpy():
    src = str(Path(gkquad.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"gkquad", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) <= {"gkquad", "numpy"}


def test_settable_cli_values_are_pinned():
    # Counted as argparse dests over the seven subcommands; --ell and
    # --ells (--n and --ns) share one dest, and --help sets nothing.
    parser = cli._build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert len(subs.choices) == 7
    dests = {name: {a.dest for a in sub._actions if a.dest != "help"}
             for name, sub in subs.choices.items()}
    assert dests["tensor-integrate"] == {"ell", "m", "c", "ns", "out"}
    assert sum(len(d) for d in dests.values()) == 25


_BASIS = gkquad.basis_from(1.0)
_RULE = gkquad.approx_rule(_BASIS, 5)

# (call, what, lo, hi, error for a non-integer, error out of range)
INTEGER_ARGUMENTS = {
    "gh_rule": (gkquad.gh_rule, "rule size", 1, 200, SizeError, SizeError),
    "approx_rule": (lambda n: gkquad.approx_rule(_BASIS, n), "rule size", 1, 200,
                    SizeError, SizeError),
    "even_hermite_series": (lambda n: gkquad.approx.even_hermite_series(0.4, n), "rule size",
                            1, 200, SizeError, SizeError),
    "machine_truncation": (lambda n: gkquad.machine_truncation(_BASIS, n), "rule size",
                           1, 200, SizeError, SizeError),
    "scaled_nodes": (lambda n: gkquad.scaled_nodes(_BASIS, n), "rule size", 1, 200,
                     SizeError, SizeError),
    "normalized_table": (lambda n: gkquad.hermite.normalized_table([0.5], n), "degree",
                         0, 921, DomainError, DegreeOverflowError),
    "eigenvalue": (lambda n: gkquad.eigenvalue(_BASIS, n), "eigenvalue index",
                   0, sys.maxsize, DomainError, DomainError),
    "even_mean_ratios": (even_mean_ratios, "m_max", 0, 460, DomainError, DomainError),
    "eigenfunction_means": (lambda n: eigenfunction_means(_BASIS, n), "count", 1, 922,
                            DomainError, DomainError),
    "eigenfunction_table": (lambda n: eigenfunction_table(_BASIS, [0.5], n), "count", 1, 922,
                            DomainError, DomainError),
    "qr_weights": (lambda m: gkquad.qr_weights(_BASIS, [0.0, 1.0], m), "truncation length",
                   2, 921, DomainError, DomainError),
    "multivariate_constants": (lambda d: gkquad.multivariate_constants(_BASIS, d),
                               "dimension", 1, sys.maxsize, DomainError, DomainError),
    "gaussian_poly_integrand.d": (
        lambda d: gkquad.gaussian_poly_integrand(d, [2] * 7, [1.0] * 7, 1.0),
        "dimension", 1, 6, DomainError, DomainError),
    "gaussian_poly_integrand.m": (
        lambda m: gkquad.gaussian_poly_integrand(1, [m], [1.0], 1.0),
        "power", 0, sys.maxsize, DomainError, DomainError),
    "eigen_exactness_residual": (lambda n: gkquad.eigen_exactness_residual(_RULE, n),
                                 "eigenfunction index", 0, 4, DomainError, IndexError),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_every_integer_argument_has_one_range(name):
    # A float, a bool, one step past either end, and an int with no float
    # each raise the type the argument has always raised, naming the range.
    call, what, lo, hi, type_error, range_error = INTEGER_ARGUMENTS[name]
    for bad in (2.5, 2.0, True):
        with pytest.raises(type_error, match=f"^{what} must be an integer, got") as info:
            call(bad)
        assert info.type is type_error
    for bad in (lo - 1, hi + 1, 10**400):
        want = re.escape(f"{what} must be in [{lo}, {hi}], got {bad}")
        with pytest.raises(range_error, match=f"^{want}$") as info:
            call(bad)
        assert info.type is range_error
