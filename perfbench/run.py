"""Benchmark for gkquad: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload error-diagnostics --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in a child process
(child.py) with ``src`` on PYTHONPATH and BLAS pinned to one thread
through environment variables set for that child only.  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the details: environment,
sample counts, refusals and the known-red acceptance margins.  See
README.md in this directory.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench_out"

# Set for the workload process and its children only: BLAS on one
# thread, and a fixed hash seed so processes differ only in their inputs.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
# Fresh interpreters timed for setup_s, the main workload process included.
SETUP_SAMPLES = 7
# oracle_err_max reports errors below this as this: differences there
# are roundoff (about 450 eps), not lost digits.
ORACLE_FLOOR = 1e-13
RUN_LIMIT_S = 170.0
IMPORT_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
    ("oracle_err_max", "1"),
)

# Spans recorded per layer (spans.TARGETS), each with self time and its
# share of the traced pass wall time.
LAYER_SPANS = (
    "hermite.normalized_table", "gauss_hermite.gh_rule", "mercer.basis_from",
    "mercer.eigenfunction_table", "approx.approx_rule", "approx.even_hermite_series",
    "approx.qr_weights", "wce.worst_case_error", "exact.kernel_system",
    "exact.exact_weights", "tensor.tensor_rule", "tensor.tensor_integrate", "cli.main",
)
# (metric, unit, span, row key) counted per traced pass.
LAYER_COUNTS = (
    ("hermite.normalized_table.calls", "count", "hermite.normalized_table", "calls"),
    ("hermite.normalized_table.cells", "count", "hermite.normalized_table", "work"),
    ("gauss_hermite.gh_rule.calls", "count", "gauss_hermite.gh_rule", "calls"),
    ("mercer.eigenfunction_table.calls", "count", "mercer.eigenfunction_table", "calls"),
    ("approx.approx_rule.calls", "count", "approx.approx_rule", "calls"),
    ("approx.qr_weights.calls", "count", "approx.qr_weights", "calls"),
    ("approx.qr_weights.m_terms_sum", "count", "approx.qr_weights", "work"),
    ("wce.worst_case_error.calls", "count", "wce.worst_case_error", "calls"),
    ("wce.worst_case_error.pairs", "count", "wce.worst_case_error", "work"),
    ("exact.exact_weights.calls", "count", "exact.exact_weights", "calls"),
    ("exact.exact_weights.refusals", "count", "exact.exact_weights", "refusals"),
    ("tensor.tensor_integrate.calls", "count", "tensor.tensor_integrate", "calls"),
    ("tensor.tensor_integrate.points", "count", "tensor.tensor_integrate", "work"),
)
PER_LAYER = (
    tuple((f"{s}.self_ms", "ms") for s in LAYER_SPANS)
    + tuple((f"{s}.share", "1") for s in LAYER_SPANS)
    + tuple((name, unit) for name, unit, _, _ in LAYER_COUNTS)
    + (
        ("gauss_hermite.gh_rule.cold_calls", "count"),
        ("gauss_hermite.gh_rule.cold_ms", "ms"),
        ("gauss_hermite.gh_rule.warm_us", "us"),
        ("exact.exact_weights.refusal_share", "1"),
        ("errors.raised", "count"),
        ("tensor.tensor_integrate.us_per_point", "us"),
        ("cli.import_ms", "ms"),
        ("cli.import_scipy_ms", "ms"),
    )
    + tuple((f"cli.{label}.wall_ms", "ms") for label, _ in inputs.CLI_COMMANDS)
    + (("trace.overhead_ratio", "1"), ("trace.unattributed_share", "1"))
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail_latency(samples):
    """(value, percentile) at the highest percentile with ten samples beyond it.

    That is the eleventh largest sample, at percentile 100 (n - 10) / n.
    With fewer than eleven samples no percentile qualifies, and the
    maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(CHILD_ENV)
    return env


def run_child(spec, env, timeout):
    """Start child.py; return (seconds until it printed ready, its stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, bufsize=0, env=env, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if readable else b""
        setup_s = time.perf_counter() - start
        if line != b"ready\n":
            raise BenchError("the workload process failed during set-up")
        out, _ = proc.communicate(timeout=max(1.0, timeout - setup_s))
    except subprocess.TimeoutExpired:
        raise BenchError("the workload process timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited with {proc.returncode}")
    return setup_s, out.decode()


def _timed_run(argv, env) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited with {proc.returncode}")
    return time.perf_counter() - start, proc.stderr.decode()


def scipy_import_ms(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        name = fields[2]
        module = name.strip()
        if module == "scipy" or module.startswith("scipy."):
            entries.append((len(name) - len(name.lstrip()), int(fields[1])))
    if not entries:
        return 0.0
    top = min(level for level, _ in entries)
    return sum(us for level, us in entries if level == top) / 1e3


def import_metrics(env) -> dict:
    """cli.import_ms over a bare interpreter, and scipy's part of it."""
    py = sys.executable
    bare = statistics.median(_timed_run([py, "-c", "pass"], env)[0]
                             for _ in range(IMPORT_SAMPLES))
    cli = statistics.median(_timed_run([py, "-c", "import gkquad.cli"], env)[0]
                            for _ in range(IMPORT_SAMPLES))
    _, log = _timed_run([py, "-X", "importtime", "-c", "import gkquad.cli"], env)
    return {"cli.import_ms": (cli - bare) * 1e3, "cli.import_scipy_ms": scipy_import_ms(log)}


def layer_metrics(result) -> dict:
    """Per-layer metrics per traced pass, from the child's span tally."""
    table = result["layers"]
    passes = len(result["traced_walls"])
    wall = sum(result["traced_walls"])

    def row(name):
        return table.get(name, spans.empty_row())

    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.self_ms"] = row(name)["self_s"] / passes * 1e3
        out[f"{name}.share"] = row(name)["self_s"] / wall
    for metric, _, name, key in LAYER_COUNTS:
        out[metric] = row(name)[key] / passes
    gh = row("gauss_hermite.gh_rule")
    out["gauss_hermite.gh_rule.cold_calls"] = gh["setup_cold_calls"] + gh["cold_calls"] / passes
    out["gauss_hermite.gh_rule.cold_ms"] = (gh["setup_cold_s"] + gh["cold_s"] / passes) * 1e3
    out["gauss_hermite.gh_rule.warm_us"] = gh["warm_s"] / max(gh["warm_calls"], 1) * 1e6
    exact = row("exact.exact_weights")
    out["exact.exact_weights.refusal_share"] = exact["refusals"] / max(exact["calls"], 1)
    out["errors.raised"] = sum(r.get("raised", 0) for r in table.values()) / passes
    tensor = row("tensor.tensor_integrate")
    out["tensor.tensor_integrate.us_per_point"] = tensor["incl_s"] / max(tensor["work"], 1) * 1e6
    out["trace.overhead_ratio"] = (statistics.median(result["traced_walls"])
                                   / statistics.median(result["walls"]))
    out["trace.unattributed_share"] = 1.0 - sum(out[f"{s}.share"] for s in LAYER_SPANS)
    return out


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def setup_sample(spec, env):
    setup_s, out = run_child(spec, env, 60.0)
    return setup_s, last_json(out)["setup_reference"]


def op_medians(result, scaled: bool) -> list[float]:
    """Each operation's median latency over the untraced passes, in op order.

    A stall of the machine lands on one pass of an operation and drops
    out of its median; a cost the program pays on every pass stays.
    With ``scaled``, each pass's latencies are first scaled to nominal
    machine speed by the reference loop timed during that pass.
    """
    per_pass = result["ops_per_pass"]
    lat = result["latencies"]
    factors = [speed.scale(r) if scaled else 1.0 for r in result["references"]]
    return [statistics.median(lat[p * per_pass + i] * f for p, f in enumerate(factors))
            for i in range(per_pass)]



def benchmark(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return (details, result line)."""
    began = time.perf_counter()
    if not (ROOT / "src" / "gkquad" / "__init__.py").is_file():
        raise BenchError(f"no gkquad sources under {ROOT / 'src'}")
    spec = inputs.make_inputs(workload, seed)
    spec.update(seconds=seconds, trace=trace, setup_only=True,
                spans_path=str(SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"))
    env = child_env()

    # Set-up is sampled before and after the main run, so the median
    # spans the run's drift in machine speed.
    extra = 0 if trace else SETUP_SAMPLES - 1
    # Each sample is (seconds, the process's reference time right after).
    setup = [setup_sample(spec, env) for _ in range(extra // 2)]
    main_setup, out = run_child(dict(spec, setup_only=False), env,
                                RUN_LIMIT_S - (time.perf_counter() - began))
    result = last_json(out)
    setup.append((main_setup, result["setup_reference"]))
    setup += [setup_sample(spec, env) for _ in range(extra - extra // 2)]

    attempted, failed = result["attempted"], result["failed"]
    # No anchor reached its oracle only when every anchor failed a check
    # first; the run is then incorrect, and a 100% error stands in.
    oracle = result["oracle_err_max"]
    oracle = 1.0 if oracle is None else max(oracle, ORACLE_FLOOR)
    walls = result["walls"]
    per_op = op_medians(result, scaled=True)
    raw_op = op_medians(result, scaled=False)
    tail, percentile = tail_latency(per_op)
    if trace:
        metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        metrics.update(layer_metrics(result))
        metrics.update(import_metrics(env))
        if workload == "cli-readme":
            metrics.update({f"cli.{label}.wall_ms": ms * 1e3 for (label, _), ms
                            in zip(spec["commands"], raw_op)})
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": statistics.median(t * speed.scale(r) for t, r in setup),
            "wall_s": sum(per_op),
            "op_p50_ms": statistics.median(per_op) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
            "oracle_err_max": oracle,
        }
        units = dict(END_TO_END)
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": {**result["env"], "seed": seed, "child_env": CHILD_ENV},
        "passes": len(walls),
        "ops_per_pass": result["ops_per_pass"],
        "samples": len(result["latencies"]),
        "tail_percentile": percentile,
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            "setup_samples_s": [t for t, _ in setup],
            "wall_s": sum(raw_op),
            "op_p50_ms": statistics.median(raw_op) * 1e3,
            "op_tail_ms": tail_latency(raw_op)[0] * 1e3,
            "pass_walls_s": walls,
        },
        "reference_s": {"passes": result["references"], "setup": [r for _, r in setup],
                        "nominal": speed.NOMINAL_S},
        "fail_ratio": failed / attempted,
        "failures": result["failures"],
        "refusals_per_pass": result["refusals_per_pass"],
        "refusal_share": result["refusals_per_pass"] / result["ops_per_pass"],
        "oracle_err_max_raw": result["oracle_err_max"],
        "oracle_err_max_seeded": result["oracle_err_max_seeded"],
        "known_red": result["known_red"],
        "absent_spans": result.get("absent", []),
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return details, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        details, line = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, metric in line["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
