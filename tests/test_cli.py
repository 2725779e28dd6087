"""End-to-end checks of the command-line interface."""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import gkquad
import gkquad.cli as cli
from gkquad import basis_from, approx_rule
from gkquad.errors import NumericalFailureError
from gkquad.exact import exact_weights
from oracles import kernel_weights_mp


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(gkquad.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


# Fails the import of any scipy module, then runs each argv through main.
SCIPY_BLOCKED = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import gkquad
from gkquad.cli import main

sys.exit(max(main(argv.split()) for argv in sys.argv[1:]))
"""


# Records each open of the shipped rule table while main runs argv, then
# builds one rule (which must open it, so the hook is known to see it).
TABLE_OPENS = """
import sys

opened = []

def hook(event, args):
    if event == "open" and str(args[0]).endswith("gh_rules.npy"):
        opened.append(args[0])

sys.addaudithook(hook)
from gkquad.cli import main

code = main(sys.argv[1].split())
during = len(opened)
from gkquad import gh_rule

gh_rule(3)
print(code, during, len(opened), file=sys.stderr)
"""


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_rule_output_shape_and_values(capsys):
    code, out, _ = run(capsys, ["rule", "--ell", "1", "--n", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "node", "approx_weight", "gh_node", "gh_weight"]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert float(rows[1][1]) == 0.0
    assert float(rows[1][3]) == 0.0
    b = basis_from(1.0)
    a = approx_rule(b, 3)
    for i, row in enumerate(rows):
        assert float(row[1]) == a.rule.nodes[i]
        assert float(row[2]) == a.rule.weights[i]


def test_output_is_byte_identical_across_runs(capsys, tmp_path):
    code1, out1, _ = run(capsys, ["rule", "--ell", "0.37", "--n", "11"])
    code2, out2, _ = run(capsys, ["rule", "--ell", "0.37", "--n", "11"])
    assert code1 == code2 == 0
    assert out1 == out2
    path = tmp_path / "rule.csv"
    code3 = cli.main(["rule", "--ell", "0.37", "--n", "11", "--out", str(path)])
    capsys.readouterr()
    assert code3 == 0
    assert path.read_text(encoding="utf-8") == out1


def test_rule_flat_limit_collapses_to_gauss_hermite(capsys):
    code, out, _ = run(capsys, ["rule", "--ell", "1e8", "--n", "5"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert abs(float(row[1]) - float(row[3])) <= 1e-6
        assert abs(float(row[2]) - float(row[4])) <= 1e-6


def test_weights_compare_well_vs_ill_scaled(capsys):
    code, out, _ = run(capsys, ["weights-compare", "--ells", "0.05,4", "--ns", "10,20"])
    assert code == 0
    _, rows = parse_csv(out)
    by_key = {(float(r[0]), int(r[1])): float(r[2]) for r in rows}
    assert by_key[(4.0, 20)] <= 1e-9
    for n in (10, 20):
        assert by_key[(0.05, n)] > by_key[(4.0, n)]
    assert all(r[3] == "0" for r in rows)


def test_weights_compare_stops_after_flagging(capsys):
    # The reference solve is refused at l = 0.04 from N = 20 (M = 922 is
    # past the degree guard): that row reads nan with flag 1, and the sweep
    # stops there.
    code, out, err = run(capsys, ["weights-compare", "--ell", "0.04", "--ns", "18:21"])
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert [r[:2] for r in rows] == [["0.04", "18"], ["0.04", "19"], ["0.04", "20"]]
    assert [r[3] for r in rows[:2]] == ["0", "0"]
    assert all(math.isfinite(float(r[2])) for r in rows[:2])
    assert rows[-1] == ["0.04", "20", "nan", "1"]


# (l, N, digits) of the oracle solves: each gives the same float weights
# at 50 more digits.
WEIGHTS_COMPARE_ORACLE_POINTS = [
    (0.2, 2, 40), (0.2, 10, 40), (0.2, 30, 40), (0.2, 60, 40),
    (1.0, 5, 40), (1.0, 20, 40), (1.0, 40, 60), (1.0, 50, 80), (1.0, 60, 80),
    (4.0, 10, 40), (4.0, 20, 80), (4.0, 30, 80), (4.0, 40, 100), (4.0, 50, 120), (4.0, 60, 140),
]


def test_weights_compare_cells_match_the_oracle_norm(capsys):
    # Each cell against ||w* - w|| / ||w*||, w* the full-kernel weights
    # at the float nodes.  Measured worst: 6.9e-16 at (4, 40), where the
    # cell reads 0.0; at (4, 30) it reads 3.6e-31 against 3.4e-16.  Below
    # about 1e-15 a cell is at float resolution.  About 1 s.
    code, out, err = run(capsys, ["weights-compare", "--ells", "0.2,1,4", "--ns", "1:60"])
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert len(rows) == 180 and all(r[3] == "0" for r in rows)
    cells = {(float(r[0]), int(r[1])): float(r[2]) for r in rows}
    for ell, n, dps in WEIGHTS_COMPARE_ORACLE_POINTS:
        rule = approx_rule(basis_from(ell), n).rule
        want = kernel_weights_mp(rule.nodes, ell, dps)
        oracle = math.hypot(*(want - rule.weights)) / math.hypot(*want)
        assert abs(cells[(ell, n)] - oracle) <= 1e-15, (ell, n, cells[(ell, n)], oracle)


def test_one_value_and_a_one_value_list_print_the_same(capsys):
    sweeps = ["weights-compare", "positivity-sweep", "wce-sweep"]
    for command in sweeps:
        one = run(capsys, [command, "--ell", "1", "--ns", "1:20"])
        listed = run(capsys, [command, "--ells", "1", "--ns", "1:20"])
        assert one == listed and one[0] == 0
    for command, ell in [*((c, ["--ell", "1"]) for c in sweeps),
                         ("integrate", []), ("tensor-integrate", [])]:
        one = run(capsys, [command, *ell, "--n", "7"])
        listed = run(capsys, [command, *ell, "--ns", "7"])
        assert one == listed and one[0] == 0


def test_rule_size_ranges_are_never_expanded(capsys):
    # A refused size ends the command with no table, so the upper end of
    # an a:b range costs nothing: a billion is no slower than the sizes
    # the sweep reaches before N = 201.
    for argv in (["weights-compare", "--ell", "4"], ["positivity-sweep", "--ell", "1"]):
        start = time.perf_counter()
        refused = run(capsys, [*argv, "--ns", "1:1000000000"])
        assert time.perf_counter() - start < 1.0, argv
        assert refused == (2, "", "error: rule size must be in [1, 200], got 201\n"), argv


def test_positivity_sweep_matches_library(capsys):
    code, out, _ = run(capsys, ["positivity-sweep", "--ell", "1", "--ns", "1,5,10"])
    assert code == 0
    _, rows = parse_csv(out)
    b = basis_from(1.0)
    lead = 1.0 / math.sqrt(1.0 + 2.0 * b.delta_sq)
    first = rows[0]
    assert float(first[2]) == pytest.approx(lead, rel=1e-15, abs=0)
    assert float(first[3]) == pytest.approx(lead, rel=1e-15, abs=0)
    for row in rows:
        n = int(row[1])
        w = approx_rule(b, n).rule.weights
        assert float(row[2]) == w.min()
        assert float(row[3]) == math.fsum(np.abs(w))
        assert float(row[4]) == abs(math.fsum(w) - 1.0)
        assert float(row[2]) > 0.0


def test_wce_sweep_stops_below_cutoff(capsys):
    code, out, _ = run(capsys, ["wce-sweep", "--ell", "1", "--ns", "1:40"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) < 40
    main_col = [float(r[2]) for r in rows]
    assert all(v >= cli.WCE_CUTOFF for v in main_col[:-1])
    assert main_col[-1] < cli.WCE_CUTOFF
    for row in rows:
        if int(row[1]) >= 5:
            assert float(row[2]) <= float(row[4])
        assert row[5] in ("0", "1")
        float(row[3])  # the comparator column parses even when nan


def test_integrate_defaults(capsys):
    code, out, _ = run(capsys, ["integrate"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "err_sghkq", "err_kq", "err_ukq", "err_gh", "kq_flag", "ukq_flag"]
    assert [int(r[0]) for r in rows] == list(range(1, 31))
    for row in rows:
        assert float(row[1]) >= 0.0
        assert int(row[5]) in (0, 1)
        assert int(row[6]) in (0, 1)
    # the scaled rule beats plain Gauss-Hermite once the rule is moderate
    tail = [r for r in rows if 10 <= int(r[0]) <= 20]
    assert all(float(r[1]) <= float(r[4]) for r in tail)


def test_solve_flags_follow_the_refusal_rule(capsys):
    # At ell = 0.04 machine_truncation, and so exact_weights, refuses from
    # n = 20 (M = 922 is past the degree guard): a flagged comparator is
    # refused (nan), never measured, and the sweep goes on with the
    # closed-form columns finite.
    code, out, _ = run(capsys, ["integrate", "--ell", "0.04", "--ns", "17:22"])
    assert code == 0
    _, rows = parse_csv(out)
    basis = basis_from(0.04)
    for row in rows:
        nodes = approx_rule(basis, int(row[0])).rule.nodes
        for flag, x in ((row[5], nodes), (row[6], np.linspace(nodes[0], nodes[-1], nodes.size))):
            try:
                exact_weights(x, 0.04)
                refused = "0"
            except NumericalFailureError:
                refused = "1"
            assert flag == refused
        for err, flag in ((row[2], row[5]), (row[3], row[6])):
            assert (err == "nan") == (flag == "1")
        assert math.isfinite(float(row[1])) and math.isfinite(float(row[4]))
    assert [(r[5], r[6]) for r in rows] == [("0", "0")] * 3 + [("1", "1")] * 3


def test_integrate_odd_power_cancels_exactly(capsys):
    code, out, _ = run(capsys, ["integrate", "--m", "3", "--c", "1.0", "--ns", "2:4"])
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert float(row[1]) == 0.0
        assert float(row[4]) == 0.0
        assert float(row[2]) <= 1e-14


def test_integrate_rejects_vector_parameters(capsys):
    code, _, err = run(capsys, ["integrate", "--m", "3,4"])
    assert code == 2
    assert "one-dimensional" in err


def test_tensor_integrate_defaults(capsys):
    code, out, _ = run(capsys, ["tensor-integrate"])
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == list(range(2, 13))
    final = float(rows[-1][1])
    assert 1e-6 < final < 3e-6
    errs = [float(r[1]) for r in rows if int(r[0]) >= 4]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_tensor_integrate_with_overflowing_grid_values(capsys):
    # Grid values reach 7.6e430 and the integral is 3.38e261; the command
    # exited 3 ("integrand returned inf at grid point (0, 0)") while grid
    # values were checked instead of factor values.
    argv = ["tensor-integrate", "--m", "150,150", "--c", "0.01,0.01", "--ell", "4", "--ns", "180,200"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == [180, 200]
    for row in rows:
        errors = dict(zip(header, row))
        assert float(errors["err_sghkq"]) <= 1e-13 * 3.38e261
        assert float(errors["err_gh"]) <= 1e-13 * 3.38e261


def test_tensor_integrate_dimension_mismatch(capsys):
    code, _, err = run(capsys, ["tensor-integrate", "--m", "6,4", "--c", "1.5,3.0,0.5"])
    assert code == 2
    assert err == "error: --m and --c must list one value per dimension\n"


def test_constants_row_matches_library(capsys):
    code, out, _ = run(capsys, ["constants", "--ell", "0.2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "ell", "epsilon", "beta", "delta_sq", "gamma",
        "tau", "lambda", "eta", "c_theory", "c1", "c2",
    ]
    row = dict(zip(header, rows[0]))
    from gkquad.wce import theoretical_constants

    b = basis_from(0.2)
    c = theoretical_constants(b)
    assert float(row["beta"]) == b.beta
    assert float(row["gamma"]) == float(row["lambda"]) == b.eigenvalue_ratio
    assert float(row["eta"]) == c.eta
    assert float(row["c_theory"]) == c.rate
    assert float(row["c_theory"]) == pytest.approx(3.3035987820864976e-4, rel=1e-12, abs=0)


def test_constants_small_scale_and_multivariate(capsys):
    code, out, _ = run(capsys, ["constants", "--ell", "0.05", "--dims", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-3:] == ["dims", "multi_c", "multi_eta"]
    row = dict(zip(header, rows[0]))
    assert float(row["gamma"]) == pytest.approx(0.9512343774406435, rel=1e-14, abs=0)
    assert row["dims"] == "3"
    assert float(row["multi_eta"]) == float(row["eta"])
    assert float(row["multi_c"]) > 1.0


def test_validation_failures_exit_two(capsys, tmp_path):
    assert run(capsys, ["rule", "--ell", "1", "--n", "0"])[0] == 2
    assert run(capsys, ["rule", "--ell", "-1", "--n", "3"])[0] == 2
    assert run(capsys, ["rule", "--ell", "1"])[0] == 2
    assert run(capsys, ["weights-compare", "--ns", "1:5"])[0] == 2
    # One value and a list of them are one input each, never both.
    assert run(capsys, ["weights-compare", "--ell", "1", "--ells", "2", "--n", "3"])[0] == 2
    assert run(capsys, ["positivity-sweep", "--ell", "1", "--n", "3", "--ns", "4"])[0] == 2
    assert run(capsys, ["integrate", "--n", "3", "--ns", "4"])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["rule", "--ell", "1", "--n", "3", "--alpha", "1"])[0] == 2
    assert run(capsys, ["rule", "--ell", "1", "--n", "3", "--format", "csv"])[0] == 2
    # (301)!! does not fit in a float, so m = 302 has no closed form.
    code, out, err = run(capsys, ["integrate", "--m", "302"])
    assert (code, out) == (2, "")
    assert err.startswith("error: the closed-form integral")
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run(capsys, ["rule", "--ell", "1", "--n", "3", "--out", str(missing_dir)])
    assert code == 2
    assert "error" in err


def test_help_exits_zero(capsys):
    assert run(capsys, ["--help"])[0] == 0
    assert run(capsys, ["wce-sweep", "--help"])[0] == 0


def test_numerical_failure_exits_three(capsys, monkeypatch):
    def boom(basis, n):
        raise NumericalFailureError("synthetic breakdown")

    monkeypatch.setattr(cli, "approx_rule", boom)
    code, _, err = run(capsys, ["rule", "--ell", "1", "--n", "3"])
    assert code == 3
    assert "numerical failure" in err


def test_non_finite_integrand_exits_three(capsys):
    # x**401 overflows at the outermost nodes, and with m = 300 at a small
    # length scale the Gaussian factor underflows to 0 against an
    # infinite power.  The integrand's failure is reported as such, not
    # turned into a solve flag, and it is the only line on stderr: no
    # numpy warning precedes it, in-process or in a fresh interpreter.
    cases = [
        (["--m", "401", "--ns", "30"], "-inf"),
        (["--m", "300", "--c", "3", "--ell", "0.1", "--ns", "200"], "nan"),
    ]
    for argv, value in cases:
        line = f"numerical failure: integrand returned {value} at grid point (0,)\n"
        code, out, err = run(capsys, ["integrate", *argv])
        assert (code, out, err) == (3, "", line)
        proc = run_python(["-m", "gkquad.cli", "integrate", *argv])
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, b"", line.encode())


def test_extreme_length_scales_fail_typed_or_not_at_all(capsys):
    # 4 / l^2 overflows below l = 1.49e-154, and eps^2 = 1 / (2 l^2) is
    # subnormal above l = 4.74e153, so both are refused.  The constants
    # hold once lam rounds to 1, but machine_truncation's M is refused past
    # the degree guard, which weights-compare prints as a flagged row: every
    # M once lam rounds to 1, and M = 922 at l = 0.04, N = 20 (M = 921 at
    # N = 19 runs).  C is refused once d is
    # large or 1 - eta is below the smallest normal float.  Each outcome is
    # an exit code with at most one line on stderr, in process and in a
    # fresh interpreter (no traceback).
    too_large = "error: length scale 1e+200 is too large: 1 / (2 l^2) is subnormal\n"
    cases = [
        (["constants", "--ell", "1e-200"], 2,
         "error: length scale 1e-200 is too small: its square is subnormal\n"),
        (["integrate", "--ell", "1e-200", "--ns", "3"], 2,
         "error: length scale 1e-200 is too small: its square is subnormal\n"),
        (["constants", "--ell", "1e-17"], 0, ""),
        (["constants", "--ell", "1e-6", "--dims", "2"], 0, ""),
        (["constants", "--ell", "1e-120", "--dims", "1"], 3,
         "numerical failure: 1 - eta is below the smallest normal float at length scale "
         "1e-120; the multivariate bound degenerates\n"),
        (["constants", "--ell", "1", "--dims", "1000"], 3,
         "numerical failure: the multivariate bound constant C overflows a float "
         "at dimension 1000\n"),
        (["weights-compare", "--ell", "1e-17", "--ns", "3"], 0, ""),
        (["weights-compare", "--ell", "0.04", "--ns", "20"], 0, ""),
        (["weights-compare", "--ell", "0.04", "--ns", "19"], 0, ""),
        (["constants", "--ell", "1e200"], 2, too_large),
        (["weights-compare", "--ell", "1e200", "--ns", "3"], 2, too_large),
        (["integrate", "--ell", "1e200", "--ns", "3"], 2, too_large),
        (["wce-sweep", "--ell", "1e200", "--ns", "3"], 2, too_large),
        (["wce-sweep", "--ell", "0.04", "--ns", "20"], 3,
         "numerical failure: truncation to machine precision at length scale 0.04 and N = 20 "
         "needs M = 922 terms, past the degree guard 921, where lambda_921 / lambda_20 is "
         "2.23e-16\n"),
        (["constants", "--ell", "4.740375954054589e153"], 2,
         "error: length scale 4.740375954054589e+153 is too large: 1 / (2 l^2) is subnormal\n"),
        (["weights-compare", "--ell", "1e150", "--ns", "3"], 0, ""),
        (["integrate", "--ell", "1e150", "--ns", "3"], 0, ""),
        (["wce-sweep", "--ell", "1e150", "--ns", "3"], 0, ""),
    ]
    outs = {}
    for argv, want_code, want_err in cases:
        code, out, err = run(capsys, argv)
        assert (code, err) == (want_code, want_err)
        proc = run_python(["-m", "gkquad.cli", *argv])
        assert (proc.returncode, proc.stderr) == (want_code, want_err.encode())
        assert proc.stdout == out.encode()
        outs[" ".join(argv)] = out
    for ell, n in (("1e-17", "3"), ("0.04", "20")):
        _, rows = parse_csv(outs[f"weights-compare --ell {ell} --ns {n}"])
        assert rows == [[ell, n, "nan", "1"]]
    assert run(capsys, ["constants", "--ell", "1", "--dims", "10"])[0] == 0
    # At l = 1e150, N = 3 machine precision needs M = N + 1, where
    # qr_weights is the closed form to the bit: no BLAS call, and no error.
    _, rows = parse_csv(outs["weights-compare --ell 1e150 --ns 3"])
    assert rows == [["1e+150", "3", "0.0", "0"]]
    # At the top of the range, l = 4.74e153, the kernel is 1 and its mean
    # 1, as they round at 1e150, so each row is the same but for l.
    for command, ell_column in (("weights-compare", 0), ("integrate", None), ("wce-sweep", 0)):
        _, rows = parse_csv(outs[f"{command} --ell 1e150 --ns 3"])
        argv = [command, "--ell", "4.740375954054588e153", "--ns", "3"]
        _, same = parse_csv(run(capsys, argv)[1])
        if ell_column is not None:
            assert rows[0].pop(ell_column) == "1e+150"
            assert same[0].pop(ell_column) == "4.740375954054588e+153"
        assert rows == same


def test_module_run_matches_main(capsys):
    argv = ["rule", "--ell", "1", "--n", "3"]
    _, out, _ = run(capsys, argv)
    proc = run_python(["-m", "gkquad.cli", *argv])
    assert proc.returncode == 0
    assert proc.stdout == out.encode()


def test_runtime_is_scipy_free():
    proc = run_python([
        "-c", SCIPY_BLOCKED,
        "rule --ell 1 --n 9",
        "integrate --ell 1.2 --m 6 --c 1.5 --ns 1:30",
        "tensor-integrate",
    ])
    assert proc.returncode == 0, proc.stderr.decode()


def test_constants_never_loads_the_rule_table():
    proc = run_python(["-c", TABLE_OPENS, "constants --ell 0.2"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr.decode().split() == ["0", "0", "1"]


def test_import_loads_neither_fractions_nor_decimal():
    # fractions imports decimal, about 3 ms of every process start; the
    # exact tensor sums use Python ints instead.  Each import runs in its
    # own interpreter, and the probe must see the two when they load.
    probe = "import sys, {}; print(*sorted({{'decimal', 'fractions'}} & set(sys.modules)))"
    for module, want in (("gkquad", []), ("gkquad.cli", []),
                         ("fractions", ["decimal", "fractions"])):
        proc = run_python(["-c", probe.format(module)])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().split() == want, module
