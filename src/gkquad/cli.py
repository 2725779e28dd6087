"""Command-line interface for building rules and reproducing the sweeps.

Every command writes a CSV table of shortest round-trip floats in a fixed
row order, to stdout or to --out, so repeated runs are byte-identical.
Exit codes: 0 on success, 2 on validation errors, 3 on numerical failure.
"""

import argparse
import math
import sys

import numpy as np

from .approx import approx_rule, machine_truncation, qr_weights
from .errors import EvaluationError, NumericalFailureError
from .exact import exact_weights
from .gauss_hermite import QuadratureRule, gh_rule
from .mercer import basis_from
from .tensor import gaussian_poly_integrand, tensor_integrate, tensor_rule
from .wce import multivariate_constants, theoretical_constants, worst_case_error

__all__ = ["main"]

# Display cutoff used by the sweep commands: square root of the
# floating-point relative accuracy.
WCE_CUTOFF = math.sqrt(float(np.finfo(float).eps))


def _comma_list(cast, distinct: bool = False):
    """argparse type for a comma-separated list of ``cast`` values.

    Distinct lists (length scales, rule sizes) come back sorted and
    deduplicated; per-dimension lists keep their order.
    """
    def parse(text: str) -> list:
        try:
            values = [cast(part) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {cast.__name__} list: {text!r}"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError("empty value list")
        return sorted(set(values)) if distinct else values

    return parse


def _parse_ns(text: str) -> list[int] | range:
    """Rule sizes as a comma-separated int list or an inclusive, unexpanded a:b range."""
    if ":" not in text:
        return _comma_list(int, distinct=True)(text)
    try:
        lo, hi = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an a:b range: {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError("empty value list")
    return range(lo, hi + 1)


def _format_cell(value) -> str:
    # Every row cell is a Python int or a float (np.float64 included).
    return str(value) if isinstance(value, int) else repr(float(value))


def _emit(columns: list[str], rows: list[list], args) -> None:
    lines = [columns, *([_format_cell(v) for v in row] for row in rows)]
    text = "".join(",".join(line) + "\n" for line in lines)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cmd_rule(args):
    basis = basis_from(args.ell)
    approx = approx_rule(basis, args.n)
    gh = gh_rule(args.n)
    columns = ["n", "node", "approx_weight", "gh_node", "gh_weight"]
    rows = [
        [i + 1, approx.rule.nodes[i], approx.rule.weights[i], gh.nodes[i], gh.weights[i]]
        for i in range(args.n)
    ]
    return columns, rows


def _cmd_weights_compare(args):
    columns = ["ell", "n", "rel_err", "cutoff"]
    rows = []
    for ell in args.ells:
        basis = basis_from(ell)
        for n in args.ns:
            rule = approx_rule(basis, n).rule
            # The reference is the kernel rule at the same nodes, so it takes
            # qr_weights' closed-form path; a refused solve ends the sweep.
            try:
                w_ref = qr_weights(basis, rule.nodes, machine_truncation(basis, n))
            except NumericalFailureError:
                rows.append([ell, n, float("nan"), 1])
                break
            rows.append([ell, n, math.hypot(*(w_ref - rule.weights)) / math.hypot(*w_ref), 0])
    return columns, rows


def _cmd_positivity_sweep(args):
    columns = ["ell", "n", "min_weight", "abs_weight_sum", "weight_sum_error"]
    rows = []
    for ell in args.ells:
        basis = basis_from(ell)
        for n in args.ns:
            w = approx_rule(basis, n).rule.weights
            total = math.fsum(w)
            rows.append(
                [ell, n, float(w.min()), math.fsum(np.abs(w)), abs(total - 1.0)]
            )
    return columns, rows


def _solved(nodes: np.ndarray, ell: float, measure) -> tuple[float, int]:
    """``measure`` of the exact kernel rule at the given nodes, with a flag.

    A solve that ``exact_weights`` refuses, or a measure that refuses its
    rule, gives (nan, 1): both raise ``NumericalFailureError`` where
    ``machine_truncation`` or ``qr_weights`` does.  Any other gives (value, 0).
    """
    try:
        weights, _ = exact_weights(nodes, ell)
        value = measure(QuadratureRule(nodes, weights))
    except NumericalFailureError:
        return float("nan"), 1
    return value, 0


def _cmd_wce_sweep(args):
    columns = ["ell", "n", "wce_sghkq", "wce_ukq", "wce_gh", "ukq_flag"]
    rows = []
    for ell in args.ells:
        basis = basis_from(ell)
        for n in args.ns:
            approx = approx_rule(basis, n)
            wce_main = worst_case_error(approx.rule, ell).wce
            uniform = np.linspace(approx.rule.nodes[0], approx.rule.nodes[-1], n)
            wce_ukq, flag = _solved(
                uniform, ell, lambda rule: worst_case_error(rule, ell).wce
            )
            wce_gh = worst_case_error(gh_rule(n), ell).wce
            rows.append([ell, n, wce_main, wce_ukq, wce_gh, flag])
            if wce_main < WCE_CUTOFF:
                break
    return columns, rows


def _integration_errors(args):
    f, exact = gaussian_poly_integrand(len(args.m), args.m, args.c, args.ell)
    basis = basis_from(args.ell)
    columns = ["n", "err_sghkq", "err_kq", "err_ukq", "err_gh", "kq_flag", "ukq_flag"]
    rows = []
    for n in args.ns:
        approx = approx_rule(basis, n)
        gh = gh_rule(n)

        def grid_error(rule_1d: QuadratureRule) -> float:
            grid = tensor_rule([rule_1d] * len(args.m))
            return abs(tensor_integrate(grid, f) - exact)

        err_sghkq = grid_error(approx.rule)
        err_gh = grid_error(gh)
        err_kq, kq_flag = _solved(approx.rule.nodes, args.ell, grid_error)
        uniform = np.linspace(approx.rule.nodes[0], approx.rule.nodes[-1], n)
        err_ukq, ukq_flag = _solved(uniform, args.ell, grid_error)
        rows.append([n, err_sghkq, err_kq, err_ukq, err_gh, kq_flag, ukq_flag])
    return columns, rows


def _cmd_integrate(args):
    if len(args.m) != 1 or len(args.c) != 1:
        raise ValueError("integrate is one-dimensional; pass single --m and --c values")
    return _integration_errors(args)


def _cmd_tensor_integrate(args):
    if len(args.m) != len(args.c):
        raise ValueError("--m and --c must list one value per dimension")
    return _integration_errors(args)


def _cmd_constants(args):
    basis = basis_from(args.ell)
    consts = theoretical_constants(basis)
    columns = [
        "ell", "epsilon", "beta", "delta_sq", "gamma",
        "tau", "lambda", "eta", "c_theory", "c1", "c2",
    ]
    row = [
        args.ell, basis.epsilon, basis.beta, basis.delta_sq, basis.eigenvalue_ratio,
        basis.tau, basis.eigenvalue_ratio, consts.eta, consts.rate, consts.c1, consts.c2,
    ]
    if args.dims is not None:
        big_c, eta = multivariate_constants(basis, args.dims)
        columns += ["dims", "multi_c", "multi_eta"]
        row += [args.dims, big_c, eta]
    return columns, [row]


def _add_values(sub, name: str, parse_one, parse_many, default=None) -> None:
    """--<name> (one value) or --<name>s (a list), both stored as the list args.<name>s.

    nargs=1 makes the one value a list. Both carry the default, because
    argparse takes a shared dest's default from the first action that has it.
    """
    group = sub.add_mutually_exclusive_group(required=default is None)
    group.add_argument(f"--{name}", type=parse_one, nargs=1, dest=f"{name}s",
                       metavar=name.upper(), default=default)
    group.add_argument(f"--{name}s", type=parse_many, default=default)


def _add_common(sub, sweep=False):
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if sweep:
        _add_values(sub, "ell", float, _comma_list(float, distinct=True))
        _add_values(sub, "n", int, _parse_ns)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkquad",
        description="Gaussian kernel quadrature rules and experiment sweeps",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("rule", help="one rule: nodes and weights")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_rule)

    text = ("closed-form weights w vs the kernel weights w* at the same nodes: "
            "rel_err = ||w* - w||_2 / ||w*||_2, at float resolution below about 1e-15")
    p = subs.add_parser("weights-compare", help=text, description=text)
    _add_common(p, sweep=True)
    p.set_defaults(handler=_cmd_weights_compare)

    p = subs.add_parser("positivity-sweep",
                        help="minimum weight and weight-sum error over rule sizes")
    _add_common(p, sweep=True)
    p.set_defaults(handler=_cmd_positivity_sweep)

    p = subs.add_parser("wce-sweep",
                        help="worst-case error of the scaled rule and comparators")
    _add_common(p, sweep=True)
    p.set_defaults(handler=_cmd_wce_sweep)

    p = subs.add_parser("integrate",
                        help="one-dimensional test integrand errors per rule size")
    p.add_argument("--ell", type=float, default=1.2)
    p.add_argument("--m", type=_comma_list(int), default=[6])
    p.add_argument("--c", type=_comma_list(float), default=[1.5])
    _add_values(p, "n", int, _parse_ns, default=range(1, 31))
    _add_common(p)
    p.set_defaults(handler=_cmd_integrate)

    p = subs.add_parser("tensor-integrate",
                        help="tensor-grid test integrand errors per rule size")
    p.add_argument("--ell", type=float, default=1.2)
    p.add_argument("--m", type=_comma_list(int), default=[6, 4, 2])
    p.add_argument("--c", type=_comma_list(float), default=[1.5, 3.0, 0.5])
    _add_values(p, "n", int, _parse_ns, default=range(2, 13))
    _add_common(p)
    p.set_defaults(handler=_cmd_tensor_integrate)

    p = subs.add_parser("constants",
                        help="eigendecomposition and convergence constants")
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--dims", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        columns, rows = args.handler(args)
        _emit(columns, rows, args)
    except (NumericalFailureError, EvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
