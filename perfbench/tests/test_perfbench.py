"""Tests of the benchmark itself: inputs, statistics, spans and checks.

Run from the repository root with

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import gkquad  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert inputs.make_inputs(workload, 7) == inputs.make_inputs(workload, 7)
    assert inputs.make_inputs(workload, 7) != inputs.make_inputs(workload, 8)


def test_tensor_grids_stay_near_their_target_sizes():
    for seed in range(20):
        grids = inputs.make_inputs("tensor-cubature", seed)["grids"]
        for (d, target), grid in zip(inputs.TENSOR_TARGETS, grids):
            points = 1
            for n in grid["sizes"]:
                points *= n
            assert len(grid["sizes"]) == d
            assert abs(points - target) <= 0.05 * target


@pytest.mark.parametrize("n, index, percentile", [
    (11, 0, 100.0 / 11),
    (20, 9, 50.0),
    (1000, 989, 99.0),
    (2400, 2389, 100.0 * 2390 / 2400),
])
def test_tail_latency_leaves_ten_samples_beyond(n, index, percentile):
    samples = [float(v) for v in range(n)][::-1]
    value, p = run.tail_latency(samples)
    assert value == float(index)
    assert sum(s > value for s in samples) == 10
    assert p == pytest.approx(percentile)


def test_op_medians_scale_each_pass_by_its_reference_time():
    nominal = run.speed.NOMINAL_S
    result = {
        "ops_per_pass": 2,
        # Three passes of two operations; the second pass ran on a
        # machine twice as slow, and its reference loop shows it.
        "latencies": [1.0, 3.0, 2.0, 6.0, 1.2, 2.8],
        "references": [nominal, 2 * nominal, nominal],
    }
    assert run.op_medians(result, scaled=True) == pytest.approx([1.0, 3.0])
    assert run.op_medians(result, scaled=False) == pytest.approx([1.2, 3.0])


def test_tail_latency_with_too_few_samples_is_the_maximum():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _span(name, start, end, parent, op=0, count=None, error=None):
    return [name, start, end, parent, op, count, error]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),    # overlaps a: the union is 1..5
        _span("c", 8.0, 12.0, 0),   # clipped to the parent's end
        _span("a1", 1.5, 2.0, 1),   # grandchild: counts against a only
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_tally_splits_cold_and_warm_gauss_hermite_calls():
    tree = [
        _span("gauss_hermite.gh_rule", 0.0, 1.0, None, op=-1, count=5),
        _span("gauss_hermite.gh_rule", 1.0, 1.5, None, op=0, count=5),
        _span("gauss_hermite.gh_rule", 2.0, 4.0, None, op=0, count=7),
        _span("exact.exact_weights", 4.0, 5.0, None, op=1, error="IllConditionedError"),
    ]
    table = spans.tally(tree)
    gh = table["gauss_hermite.gh_rule"]
    assert (gh["setup_cold_calls"], gh["cold_calls"], gh["warm_calls"]) == (1, 1, 1)
    assert gh["calls"] == 2
    assert table["exact.exact_weights"]["refusals"] == 1
    assert table["exact.exact_weights"]["raised"] == 1


def test_recorder_nests_library_calls_and_restores_them():
    original = gkquad.approx.gh_rule
    recorder = spans.Recorder()
    recorder.install()
    try:
        recorder.op = 0
        gkquad.approx_rule(gkquad.basis_from(1.0), 6)
    finally:
        recorder.uninstall()
    assert gkquad.approx.gh_rule is original
    assert recorder.absent == []
    names = [s[0] for s in recorder.spans]
    assert names[:3] == ["mercer.basis_from", "approx.approx_rule", "gauss_hermite.gh_rule"]
    parent = names.index("approx.approx_rule")
    assert all(s[3] == parent for s in recorder.spans if s[0] == "approx.even_hermite_series")


def test_scipy_import_time_sums_the_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |       5000 |     scipy",
        "import time:       300 |       2000 |     scipy.linalg",
        "import time:       400 |       9000 |   gkquad.approx",
    ])
    assert run.scipy_import_ms(log) == 7.0


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    # rules-sweep is runnable but not gated: see README.md.
    assert [w["name"] for w in spec["workloads"]] == [
        w for w in inputs.WORKLOADS if w != "rules-sweep"]


def _first_op(wl, predicate):
    return next(i for i, op in enumerate(wl.ops) if predicate(op))


def test_rules_sweep_check_fails_a_flipped_weight_sign():
    wl = workloads.build(inputs.make_inputs("rules-sweep", 1))
    i = _first_op(wl, lambda op: op[1] == 12)
    out = wl.run(i)
    wl.check(i, out)
    weights = out.rule.weights.copy()
    weights[3] = -weights[3]
    bad = dataclasses.replace(out, rule=gkquad.QuadratureRule(out.rule.nodes, weights))
    with pytest.raises(workloads.CheckFailure):
        wl.check(i, bad)


def test_error_diagnostics_check_fails_a_perturbed_wce():
    wl = workloads.build(inputs.make_inputs("error-diagnostics", 1))
    i = _first_op(wl, lambda op: op[1] <= 8)
    approx, report, exact, qr = out = wl.run(i)
    wl.check(i, out)
    bad_report = dataclasses.replace(report, wce=report.wce * 1.001)
    with pytest.raises(workloads.CheckFailure):
        wl.check(i, (approx, bad_report, exact, qr))


def test_error_diagnostics_counts_a_refusal_without_failing():
    wl = workloads.build(inputs.make_inputs("error-diagnostics", 1))
    i = _first_op(wl, lambda op: op == (4.0, 8) or op[0] == 4.0 and op[1] >= 20)
    out = wl.run(i)
    assert wl.refused(out)
    wl.check(i, out)


def test_tensor_check_fails_a_perturbed_integral():
    wl = workloads.build(inputs.make_inputs("tensor-cubature", 1))
    i = min(wl.anchors)
    value = wl.run(i)
    assert wl.check(i, value) <= workloads.GAP_TOL
    with pytest.raises(workloads.CheckFailure):
        wl.check(i, value * (1.0 + 1e-9))


def test_cli_check_fails_a_truncated_csv(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    wl = workloads.build(inputs.make_inputs("cli-readme", 1))
    i = _first_op(wl, lambda op: op[0] == "rule")
    code, stdout = out = wl.run(i)
    assert wl.check(i, out) <= workloads.CLI_ORACLE_TOL
    for truncated in (stdout[: len(stdout) // 2], stdout.rsplit(b"\n", 2)[0] + b"\n"):
        with pytest.raises(workloads.CheckFailure):
            wl.check(i, (code, truncated))


class _Fake:
    ops = [0, 1]

    def check(self, i, out):
        if out < 0:
            raise workloads.CheckFailure("negative")
        return None

    def fingerprint(self, out):
        return out

    def refused(self, out):
        return False


def test_verifier_fails_errors_bad_outputs_and_later_mismatches():
    verifier = child.Verifier(_Fake())
    verifier.verify([1, ValueError("boom")])
    verifier.verify([1, 2])
    verifier.verify([-1, 2])
    assert verifier.attempted == 6
    # Op 1 raised in pass one, so it has no reference and fails in every
    # later pass too; op 0 fails once it differs from pass one.
    assert verifier.failed == 4


def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rules-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
