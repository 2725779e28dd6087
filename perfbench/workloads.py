"""The four workloads: their operations, correctness checks and oracles.

This module runs inside the workload process.  Every call into gkquad
goes through a package attribute looked up at call time
(``gkquad.approx_rule``), so the span recorder's wrappers also see the
benchmark's own calls.

Each workload is a ``Workload``: see that class for what it exposes.
"""

import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction

import numpy as np

import gkquad
from inputs import N_MAX
from spans import SPANS_MARKER

EPS = float(np.finfo(float).eps)

# Eigen-exactness residual of a closed-form rule; measured values stay
# below 2e-15 over the guarded range.
RESIDUAL_TOL = 1e-12
# Backward residual of a weight vector in the kernel system, in units
# of N * eps; measured values stay below 0.3.
BACKWARD_TOL = 100.0
# The WCE recomputed in float64 by the same direct formula; the absolute
# part covers the formula's sqrt(eps) floor, which both sides share.
WCE_REL_TOL, WCE_ABS_TOL = 1e-6, 3e-8
# Tensor cubature against the exact product of one-dimensional sums.
GAP_TOL = 1e-12
# CLI values against their 60-digit recomputation.
CLI_ORACLE_TOL = 1e-12
ORACLE_DPS = 60

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckFailure(Exception):
    """An output failed its correctness check."""


@dataclasses.dataclass(frozen=True)
class Refusal:
    """An ``IllConditionedError`` kept without its traceback, which would
    hold the solver's matrices alive until the cyclic collector runs."""

    condition_estimate: float


def _digest(*parts: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    return h.digest()


def check_rule(rule, n: int) -> None:
    """Positive finite weights; ascending nodes symmetric about zero."""
    x, w = np.asarray(rule.nodes), np.asarray(rule.weights)
    if x.shape != (n,) or w.shape != (n,):
        raise CheckFailure(f"expected {n} nodes and weights, got {x.shape} and {w.shape}")
    if not (np.all(np.isfinite(w)) and np.all(w > 0.0)):
        raise CheckFailure("weights are not positive and finite")
    if not np.all(np.diff(x) > 0.0):
        raise CheckFailure("nodes are not ascending")
    if np.max(np.abs(x + x[::-1])) > 4.0 * EPS * max(1.0, float(np.max(np.abs(x)))):
        raise CheckFailure("nodes are not symmetric")


def kernel_matrix(x: np.ndarray, ell: float) -> np.ndarray:
    d = x[:, None] - x[None, :]
    return np.exp(-(d * d) / (2.0 * ell * ell))


def kernel_mean(x: np.ndarray, ell: float) -> np.ndarray:
    s = 1.0 + ell * ell
    return ell / math.sqrt(s) * np.exp(-(x * x) / (2.0 * s))


def backward_residual(kmat: np.ndarray, kvec: np.ndarray, w: np.ndarray) -> float:
    """max|K w - k| / ((|K| |w| + |k|) N eps), infinity norms."""
    scale = np.abs(kmat).sum(axis=1).max() * np.abs(w).max() + np.abs(kvec).max()
    return float(np.abs(kmat @ w - kvec).max() / (scale * kvec.size * EPS))


def wce_mpmath(nodes, weights, ell: float) -> float:
    """Worst-case error of the float64 rule, evaluated at 60 digits."""
    import mpmath

    with mpmath.workdps(ORACLE_DPS):
        x = [mpmath.mpf(float(v)) for v in nodes]
        w = [mpmath.mpf(float(v)) for v in weights]
        ell_mp = mpmath.mpf(ell)
        two_l2 = 2 * ell_mp * ell_mp
        quad = mpmath.fsum(w[i] * w[i] for i in range(len(x))) + 2 * mpmath.fsum(
            w[i] * w[j] * mpmath.exp(-((x[i] - x[j]) ** 2) / two_l2)
            for i in range(len(x)) for j in range(i))
        s = 1 + ell_mp * ell_mp
        cross = ell_mp / mpmath.sqrt(s) * mpmath.fsum(
            wi * mpmath.exp(-xi * xi / (2 * s)) for xi, wi in zip(x, w))
        squared = ell_mp / mpmath.sqrt(2 + ell_mp * ell_mp) + quad - 2 * cross
        return float(mpmath.sqrt(squared)) if squared > 0 else 0.0


class Workload:
    """One workload's fixed operation list and its checks.

    ``ops`` is the operation list of one pass, ``anchors`` the indices of
    the fixed operations whose oracle error feeds ``oracle_err_max``, and
    ``gh_sizes`` the Gauss-Hermite sizes set-up warms.  ``run(i)`` runs
    operation i; ``check(i, output)`` raises ``CheckFailure`` or returns
    the output's oracle error (None when it has none); ``fingerprint``
    identifies an output for the bit-identity check of later passes.
    """

    # Set for workloads whose operations run in child processes.
    runs_children = False
    # Set by the workload process during traced passes.
    traced = False

    def refused(self, output) -> bool:
        """Whether the output is a typed refusal (not a failure)."""
        return False


def _relative(value: float, reference) -> float:
    reference = float(reference)
    return abs(value - reference) / abs(reference) if reference else abs(value)


class RulesSweep(Workload):
    """Closed-form rules for N = 1..N_MAX at twelve length scales."""

    # At the two anchor length scales these sizes are checked at every
    # eigenfunction index, which makes oracle_err_max seed-independent.
    ANCHOR_SIZES = (1, 2, 3, 10, 50, 100, 150, 199, 200)

    def __init__(self, spec):
        self.ops = [(ell, n) for ell in spec["ells"] for n in range(1, N_MAX + 1)]
        self.check_index = spec["check_index"]
        anchor_ells = set(spec["anchor_ells"])
        self.anchors = {i for i, (ell, n) in enumerate(self.ops)
                        if ell in anchor_ells and n in self.ANCHOR_SIZES}
        self.gh_sizes = range(1, N_MAX + 1)

    def run(self, i):
        ell, n = self.ops[i]
        return gkquad.approx_rule(gkquad.basis_from(ell), n)

    def check(self, i, approx):
        n = self.ops[i][1]
        check_rule(approx.rule, n)
        indices = range(n) if i in self.anchors else (self.check_index[i],)
        err = max(gkquad.eigen_exactness_residual(approx, k) for k in indices)
        if not err <= RESIDUAL_TOL:
            raise CheckFailure(f"eigen-exactness residual {err:.3e} above {RESIDUAL_TOL}")
        return err

    def fingerprint(self, approx):
        return _digest(approx.rule.nodes.tobytes(), approx.rule.weights.tobytes())


class ErrorDiagnostics(Workload):
    """WCE, exact weights and QR weights of closed-form rules."""

    def __init__(self, spec):
        self.ops = [(float(ell), int(n)) for ell, n in spec["ops"]]
        self.anchors = set(spec["anchors"])
        self.gh_sizes = sorted({n for _, n in self.ops})

    def run(self, i):
        ell, n = self.ops[i]
        basis = gkquad.basis_from(ell)
        approx = gkquad.approx_rule(basis, n)
        report = gkquad.worst_case_error(approx.rule, ell)
        try:
            exact = gkquad.exact_weights(approx.rule.nodes, ell)[0]
        except gkquad.IllConditionedError as exc:
            exact = Refusal(exc.condition_estimate)
        qr = gkquad.qr_weights(basis, approx.rule.nodes, gkquad.machine_truncation(basis, n))
        return approx, report, exact, qr

    def check(self, i, output):
        ell, n = self.ops[i]
        approx, report, exact, qr = output
        check_rule(approx.rule, n)
        x, w = approx.rule.nodes, approx.rule.weights
        kmat, kvec = kernel_matrix(x, ell), kernel_mean(x, ell)
        squared = ell / math.sqrt(2.0 + ell * ell) + w @ kmat @ w - 2.0 * (w @ kvec)
        direct = math.sqrt(max(squared, 0.0))
        wce = report.wce
        if not (math.isfinite(wce) and wce >= 0.0
                and abs(wce - direct) <= WCE_REL_TOL * direct + WCE_ABS_TOL):
            raise CheckFailure(f"WCE {wce!r} disagrees with the direct form {direct!r}")
        if isinstance(exact, Refusal):
            if not exact.condition_estimate > 0.0:
                raise CheckFailure("refusal carries no condition estimate")
        elif backward_residual(kmat, kvec, exact) > BACKWARD_TOL:
            raise CheckFailure("exact weights do not solve the kernel system")
        if not (np.all(np.isfinite(qr)) and backward_residual(kmat, kvec, qr) <= BACKWARD_TOL):
            raise CheckFailure("QR weights do not solve the kernel system")
        if i in self.anchors:
            return _relative(wce, wce_mpmath(x, w, ell))
        return None

    def fingerprint(self, output):
        approx, report, exact, qr = output
        exact_bytes = (repr(exact.condition_estimate).encode()
                       if isinstance(exact, Refusal) else exact.tobytes())
        return _digest(approx.rule.nodes.tobytes(), approx.rule.weights.tobytes(),
                       repr(report.wce).encode(), exact_bytes, qr.tobytes())

    def refused(self, output):
        return isinstance(output[2], Refusal)


class TensorCubature(Workload):
    """Product integrands on two- and three-dimensional tensor grids."""

    def __init__(self, spec):
        self.ops = spec["grids"]
        self.anchors = set(spec["anchors"])
        self.gh_sizes = sorted({n for g in self.ops for n in g["sizes"]})
        self.integrands = [
            gkquad.gaussian_poly_integrand(len(g["sizes"]), g["m"], g["c"], g["ell"])[0]
            for g in self.ops
        ]

    def run(self, i):
        grid = self.ops[i]
        basis = gkquad.basis_from(grid["ell"])
        rules = [gkquad.approx_rule(basis, n).rule for n in grid["sizes"]]
        return gkquad.tensor_integrate(gkquad.tensor_rule(rules), self.integrands[i])

    def check(self, i, value):
        """Relative gap to the exact product of the one-dimensional sums."""
        grid = self.ops[i]
        ell = grid["ell"]
        basis = gkquad.basis_from(ell)
        two_ell_sq = 2.0 * ell * ell
        product = Fraction(1)
        for n, m, c in zip(grid["sizes"], grid["m"], grid["c"]):
            rule = gkquad.approx_rule(basis, n).rule
            product *= sum(
                Fraction(w) * Fraction(math.exp(-c * x * x / two_ell_sq) * x**m)
                for x, w in zip(rule.nodes.tolist(), rule.weights.tolist()))
        if not (isinstance(value, float) and math.isfinite(value)):
            raise CheckFailure(f"cubature returned {value!r}")
        gap = float(abs(Fraction(value) - product) / product)
        if not gap <= GAP_TOL:
            raise CheckFailure(f"cubature is {gap:.3e} away from the product of 1-D sums")
        return gap

    def fingerprint(self, value):
        return repr(value).encode()


CLI_CODE = "import sys; from gkquad.cli import main; sys.exit(main(sys.argv[1:]))"
# Traced variant: the first argument is this directory, for ``spans``.
CLI_TRACED_CODE = ("import sys; sys.path.insert(0, sys.argv.pop(1)); import spans; "
                   "sys.exit(spans.run_cli_traced(sys.argv[1:]))")
CLI_TIMEOUT_S = 120

_ERR_COLUMNS = "n,err_sghkq,err_kq,err_ukq,err_gh,kq_flag,ukq_flag"
_CONSTANT_COLUMNS = "ell,epsilon,beta,delta_sq,gamma,tau,lambda,eta,c_theory,c1,c2"
CLI_HEADERS = {
    "rule": "n,node,approx_weight,gh_node,gh_weight",
    "constants": _CONSTANT_COLUMNS,
    "constants-dims": _CONSTANT_COLUMNS + ",dims,multi_c,multi_eta",
    "positivity-sweep": "ell,n,min_weight,abs_weight_sum,weight_sum_error",
    "weights-compare": "ell,n,rel_err,cutoff",
    "wce-sweep": "ell,n,wce_sghkq,wce_ukq,wce_gh,ukq_flag",
    "integrate": _ERR_COLUMNS,
    "tensor-integrate": _ERR_COLUMNS,
}
# Commands whose rows are exactly these sizes, in order.
CLI_FIXED_NS = {
    "rule": range(1, 10),
    "positivity-sweep": range(1, 201),
    "integrate": range(1, 31),
    "tensor-integrate": range(2, 13),
}


class CliReadme(Workload):
    """The README's CLI commands, each in a fresh interpreter."""

    runs_children = True

    def __init__(self, spec):
        import gkquad.cli  # noqa: F401  (set-up covers the CLI import)

        self.ops = [(label, list(argv)) for label, argv in spec["commands"]]
        self.anchors = {i for i, (label, _) in enumerate(self.ops)
                        if label in ("rule", "constants", "constants-dims")}
        self.gh_sizes = ()
        self.tallies = []

    def run(self, i):
        label, argv = self.ops[i]
        prefix = [CLI_TRACED_CODE, os.path.dirname(os.path.abspath(__file__))] \
            if self.traced else [CLI_CODE]
        proc = subprocess.run([sys.executable, "-c", *prefix, *argv],
                              capture_output=True, timeout=CLI_TIMEOUT_S)
        if self.traced:
            for line in proc.stderr.decode().splitlines():
                if line.startswith(SPANS_MARKER):
                    self.tallies.append(json.loads(line[len(SPANS_MARKER):]))
        return proc.returncode, proc.stdout

    def check(self, i, output):
        label, argv = self.ops[i]
        code, stdout = output
        if code != 0:
            raise CheckFailure(f"{label} exited with {code}")
        text = stdout.decode()
        if not text.endswith("\n"):
            raise CheckFailure(f"{label} output does not end with a newline")
        lines = text[:-1].split("\n")
        if lines[0] != CLI_HEADERS[label]:
            raise CheckFailure(f"{label} header is {lines[0]!r}")
        header = lines[0].split(",")
        try:
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        except ValueError as exc:
            raise CheckFailure(f"{label} has a non-numeric cell: {exc}") from None
        if any(len(row) != len(header) for row in rows):
            raise CheckFailure(f"{label} has a row of the wrong width")
        _check_cli_rows(label, header, rows)
        if i in self.anchors:
            return _cli_oracle_error(label, argv, header, rows)
        return None

    def fingerprint(self, output):
        return _digest(str(output[0]).encode(), output[1])


def _check_cli_rows(label, header, rows) -> None:
    col = {name: j for j, name in enumerate(header)}
    if label in CLI_FIXED_NS:
        if [int(row[col["n"]]) for row in rows] != list(CLI_FIXED_NS[label]):
            raise CheckFailure(f"{label} rows do not cover the requested sizes")
    elif label in ("constants", "constants-dims"):
        if len(rows) != 1:
            raise CheckFailure(f"{label} printed {len(rows)} rows")
    elif label == "weights-compare":
        # One group per length scale; a group stops at its first flagged
        # row or at the last requested size.
        groups = {}
        for row in rows:
            groups.setdefault(row[col["ell"]], []).append(row)
        if sorted(groups) != [0.2, 1.0, 4.0]:
            raise CheckFailure("weights-compare is missing a length scale")
        for group in groups.values():
            ns = [int(row[col["n"]]) for row in group]
            flags = [row[col["cutoff"]] for row in group]
            if ns != list(range(1, len(ns) + 1)) or any(flags[:-1]) \
                    or not (flags[-1] == 1 or ns[-1] == 60):
                raise CheckFailure("weights-compare group stops early")
    elif label == "wce-sweep":
        cutoff = getattr(sys.modules["gkquad.cli"], "WCE_CUTOFF", math.sqrt(EPS))
        ns = [int(row[col["n"]]) for row in rows]
        wce = [row[col["wce_sghkq"]] for row in rows]
        if ns != list(range(1, len(ns) + 1)) or any(v < cutoff for v in wce[:-1]) \
                or not (wce[-1] < cutoff or ns[-1] == 40):
            raise CheckFailure("wce-sweep stops at the wrong row")


def _cli_oracle_error(label, argv, header, rows) -> float:
    """Largest relative error of a rule or constants table at 60 digits."""
    args = dict(zip(argv[1::2], argv[2::2]))
    ell = float(args["--ell"])
    if label == "rule":
        reference = _mp_rule(ell, int(args["--n"]))
    else:
        dims = int(args["--dims"]) if "--dims" in args else None
        reference = [_mp_constants(ell, dims)]
    err = max(_relative(value, ref)
              for row, ref_row in zip(rows, reference)
              for value, ref in zip(row, ref_row))
    if not err <= CLI_ORACLE_TOL:
        raise CheckFailure(f"{label} is {err:.3e} away from its 60-digit value")
    return err


def _mp_basis(ell):
    """Eigendecomposition constants at the CLI's float inputs, in mpmath."""
    import mpmath

    alpha = mpmath.mpf(gkquad.ALPHA_DEFAULT)
    a2 = alpha * alpha
    eps = 1 / (mpmath.sqrt(2) * mpmath.mpf(ell))
    beta = (1 + (2 * eps / alpha) ** 2) ** mpmath.mpf(0.25)
    delta_sq = a2 / 2 * (beta**2 - 1)
    return alpha, a2, eps, beta, delta_sq


def _mp_constants(ell, dims):
    import mpmath

    sup = mpmath.mpf(1.087)
    with mpmath.workdps(ORACLE_DPS):
        alpha, a2, eps, beta, delta_sq = _mp_basis(ell)
        gamma = 2 * a2 * beta**2 / (1 + 2 * delta_sq) - 1
        denom = a2 + delta_sq + eps**2
        tau = mpmath.sqrt(a2 / denom)
        lam = eps**2 / denom
        eta = mpmath.sqrt(lam) * mpmath.exp(1 / beta**2)
        row = [ell, eps, beta, delta_sq, gamma, tau, lam, eta, min(-mpmath.log(eta), 1e4),
               sup * mpmath.sqrt(beta), mpmath.sqrt(tau) / (1 - mpmath.sqrt(lam))]
        if dims is not None:
            factor = sup * mpmath.sqrt(tau * beta) / (1 - eta)
            row += [dims, 2 * dims * factor**dims, eta]
        return row


def _mp_rule(ell, n):
    """Rows (n, node, approx_weight, gh_node, gh_weight) at 60 digits."""
    import mpmath

    with mpmath.workdps(ORACLE_DPS):
        alpha, a2, eps, beta, delta_sq = _mp_basis(ell)
        gamma = 2 * a2 * beta**2 / (1 + 2 * delta_sq) - 1
        # Probabilists' Hermite He_n by its three-term recurrence, as
        # integer coefficient lists (highest degree first).
        prev, cur = [1], [1, 0]
        for k in range(1, n):
            prev, cur = cur, [a - k * b for a, b in zip(cur + [0], [0, 0] + prev)]
        roots = sorted(mpmath.re(r) for r in mpmath.polyroots(cur, maxsteps=200, extraprec=200))

        def hhat(t, top):
            vals = [mpmath.mpf(1), t]
            for k in range(1, top):
                vals.append((t * vals[k] - mpmath.sqrt(k) * vals[k - 1]) / mpmath.sqrt(k + 1))
            return vals[: top + 1]

        rows = []
        for i, t in enumerate(roots):
            h = hhat(t, max(n, 1))
            v = 1 / mpmath.fsum(h[k] ** 2 for k in range(n))
            x = t / (mpmath.sqrt(2) * alpha * beta)
            series = mpmath.fsum(
                gamma**m * mpmath.sqrt(mpmath.binomial(2 * m, m) / mpmath.mpf(4) ** m) * h[2 * m]
                for m in range((n - 1) // 2 + 1))
            weight = v * mpmath.exp(delta_sq * x * x) * series / mpmath.sqrt(1 + 2 * delta_sq)
            rows.append([i + 1, x, weight, t, v])
        return rows


def build(spec):
    """The workload object for a spec made by ``inputs.make_inputs``."""
    kinds = {
        "rules-sweep": RulesSweep,
        "error-diagnostics": ErrorDiagnostics,
        "tensor-cubature": TensorCubature,
        "cli-readme": CliReadme,
    }
    return kinds[spec["workload"]](spec)


def known_red_margins() -> dict:
    """The known-red acceptance margins, through the public functions."""
    weights = gkquad.approx_rule(gkquad.basis_from(0.05), 200).rule.weights
    f, exact = gkquad.gaussian_poly_integrand(3, (6, 4, 2), (1.5, 3.0, 0.5), 1.2)
    basis = gkquad.basis_from(1.2)

    def cubature_error(rule):
        return abs(gkquad.tensor_integrate(gkquad.tensor_rule([rule] * 3), f) - exact)

    scaled_11 = gkquad.approx_rule(basis, 11).rule
    solved_w, _ = gkquad.exact_weights(scaled_11.nodes, 1.2)
    err_scaled = cubature_error(scaled_11)
    err_solved = cubature_error(gkquad.QuadratureRule(scaled_11.nodes, solved_w))
    return {
        "criterion_03_weight_sum_error_ell_0.05_n_200": abs(math.fsum(weights) - 1.0),
        "criterion_10_error_n_12": cubature_error(gkquad.approx_rule(basis, 12).rule),
        "criterion_10_family_ratio_n_11": max(err_scaled, err_solved) / min(err_scaled, err_solved),
    }


def environment() -> dict:
    """Versions, core count and the BLAS-thread variables of this process."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }
