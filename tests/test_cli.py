"""End-to-end checks of the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gkquad
import gkquad.cli as cli
from gkquad import basis_from, approx_rule
from gkquad.errors import NumericalFailureError
from gkquad.exact import CONDITION_MAX, kernel_system


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


def test_json_format_round_trips_the_csv_values(capsys):
    _, csv_out, _ = run(capsys, ["rule", "--ell", "2", "--n", "4"])
    code, json_out, _ = run(capsys, ["rule", "--ell", "2", "--n", "4", "--format", "json"])
    assert code == 0
    header, rows = parse_csv(csv_out)
    payload = json.loads(json_out)
    assert len(payload) == 4
    for row, entry in zip(rows, payload):
        assert list(entry) == header
        assert entry["n"] == int(row[0])
        for col, cell in zip(header[1:], row[1:]):
            assert entry[col] == float(cell)


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
    code, out, _ = run(capsys, ["weights-compare", "--ell", "4", "--ns", "1:40"])
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) < 40
    assert [r[3] for r in rows[:-1]] == ["0"] * (len(rows) - 1)
    assert rows[-1][3] == "1"


def test_positivity_sweep_matches_library(capsys):
    code, out, _ = run(capsys, ["positivity-sweep", "--ell", "1", "--ns", "1,5,10"])
    assert code == 0
    _, rows = parse_csv(out)
    b = basis_from(1.0)
    lead = 1.0 / math.sqrt(1.0 + 2.0 * b.delta_sq)
    first = rows[0]
    assert float(first[2]) == pytest.approx(lead, rel=1e-15)
    assert float(first[3]) == pytest.approx(lead, rel=1e-15)
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
    # At ell = 4 the scaled-node solve crosses CONDITION_MAX between n = 13
    # and 14: a flagged comparator is refused (nan), never measured.
    code, out, _ = run(capsys, ["integrate", "--ell", "4", "--ns", "11:16"])
    assert code == 0
    _, rows = parse_csv(out)
    basis = basis_from(4.0)
    for row in rows:
        nodes = approx_rule(basis, int(row[0])).rule.nodes
        cond = kernel_system(nodes, 4.0).condition_estimate
        assert row[5] == str(int(cond > CONDITION_MAX))
        for err, flag in ((row[2], row[5]), (row[3], row[6])):
            assert math.isnan(float(err)) == (flag == "1")
    assert [r[5] for r in rows] == ["0", "0", "0", "1", "1", "1"]


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


def test_tensor_integrate_dimension_mismatch(capsys):
    code, _, err = run(capsys, ["tensor-integrate", "--dims", "2"])
    assert code == 2
    assert "per dimension" in err


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
    assert float(row["gamma"]) == b.gamma
    assert float(row["eta"]) == c.eta
    assert float(row["c_theory"]) == c.rate
    assert float(row["c_theory"]) == pytest.approx(3.3035987820864976e-4, rel=1e-12)


def test_constants_small_scale_and_multivariate(capsys):
    code, out, _ = run(capsys, ["constants", "--ell", "0.05", "--dims", "3"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-3:] == ["dims", "multi_c", "multi_eta"]
    row = dict(zip(header, rows[0]))
    assert float(row["gamma"]) == pytest.approx(0.9512343774406435, rel=1e-14)
    assert row["dims"] == "3"
    assert float(row["multi_eta"]) == float(row["eta"])
    assert float(row["multi_c"]) > 1.0


def test_plot_script_emission(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = cli.main([
        "wce-sweep", "--ell", "1", "--ns", "1:10",
        "--out", str(out_path), "--plot-script",
    ])
    capsys.readouterr()
    assert code == 0
    script = tmp_path / "sweep.gp"
    assert script.exists()
    text = script.read_text(encoding="utf-8")
    assert "set datafile separator ','" in text
    assert str(out_path) in text
    assert "wce_sghkq" in text
    assert "ukq_flag" not in text.split("plot ")[1]


def test_plot_script_requires_csv_file_output(capsys, tmp_path):
    # Both refusals come before the table is written anywhere.
    code, out, err = run(capsys, ["rule", "--ell", "1", "--n", "3", "--plot-script"])
    assert code == 2
    assert "--out" in err
    assert out == ""
    path = tmp_path / "rule.json"
    code2, out2, err2 = run(capsys, [
        "rule", "--ell", "1", "--n", "3",
        "--out", str(path), "--format", "json", "--plot-script",
    ])
    assert code2 == 2
    assert "CSV" in err2
    assert out2 == ""
    assert not path.exists()
    assert not (tmp_path / "rule.gp").exists()


def test_validation_failures_exit_two(capsys, tmp_path):
    assert run(capsys, ["rule", "--ell", "1", "--n", "0"])[0] == 2
    assert run(capsys, ["rule", "--ell", "-1", "--n", "3"])[0] == 2
    assert run(capsys, ["rule", "--ell", "1"])[0] == 2
    assert run(capsys, ["weights-compare", "--ns", "1:5"])[0] == 2
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["rule", "--ell", "1", "--n", "3", "--alpha", "1"])[0] == 2
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
