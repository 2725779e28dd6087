"""Record benchmark runs of one checkout in one BENCH_<label>.json file.

Runs the checkout's own ``perfbench/run.py``, unmodified, once per
workload, seed and trace setting, and writes what each run printed
together with the git commit and an environment block.  It measures the
checkout it sits in, so to measure another commit, copy it there:

    python3 tools/bench_record.py --label main
    python3 tools/bench_record.py --label smoke --workloads tensor-cubature --seeds 1 --seconds 2

The default workloads are the ones BENCHMARK.json gates plus the
ungated ``rules-sweep``; the default seeds are 1 and 2.  The file holds:

- ``commit``: HEAD of the checkout, ``modified``: its tracked files
  that differ from HEAD, and ``source_sha256``: a digest of every
  file under ``src/`` and ``perfbench/``, which names the measured code
  even when it was never committed;
- ``env``: numpy's enabled CPU features and the OpenBLAS core type in
  use, which ``perfbench``'s own environment block lacks, and the
  variables that select them;
- ``runs``: per run, its arguments, exit code and the two JSON lines
  ``run.py`` printed (``details`` and ``result``);
- ``summary``: per workload and metric, the values over the seeds, in
  two tables kept apart: ``end_to_end`` holds the untraced runs'
  metrics, scaled to nominal machine speed by ``run.py``, and
  ``traced_self_ms`` the traced runs' per-layer self times, which are
  raw wall times and so not comparable across machines or runs.

Exits 1 if a run exits non-zero or reports ``"correct": false``; the
file is written either way.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXTRA_WORKLOADS = ("rules-sweep",)
SEEDS = (1, 2)
SECONDS = 10.0
# Variables that change which numpy loops and BLAS kernels run.
KERNEL_VARS = ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    """sha256 over the paths and bytes of every file under src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_core() -> dict:
    """OpenBLAS's core type and build string from the library numpy loaded (Linux only)."""
    try:
        with open("/proc/self/maps") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line.lower())
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return {"core": "unknown", "config": "unknown"}
    out = {}
    for key, names in (("core", ("openblas_get_corename", "scipy_openblas_get_corename64_")),
                       ("config", ("openblas_get_config", "scipy_openblas_get_config64_"))):
        fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if fn is None:
            out[key] = "unknown"
        else:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            out[key] = fn().decode()
    return out


def environment() -> dict:
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    np.dot(np.ones((2, 2)), np.ones((2, 2)))  # load the BLAS library
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_features_enabled": sorted(k for k, on in umath.__cpu_features__.items() if on),
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": list(umath.__cpu_dispatch__),
        "blas": _blas_core(),
        "kernel_vars": {k: os.environ.get(k) for k in KERNEL_VARS},
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def gated_workloads() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "trace": trace, "argv": argv[1:],
           "exit_code": proc.returncode, "details": None, "result": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        run["details"] = json.loads(lines[-2])["details"]
        run["result"] = json.loads(lines[-1])
    else:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def summary(runs: list[dict]) -> dict:
    """Metric values over the seeds, per workload: end-to-end and traced self times apart."""
    out = {"end_to_end": {}, "traced_self_ms": {}}
    for run in runs:
        if run["result"] is None:
            continue
        table = out["traced_self_ms" if run["trace"] else "end_to_end"]
        row = table.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            if not run["trace"] or name.endswith(".self_ms"):
                row.setdefault(name, []).append(metric["value"])
    return out


def dump(record: dict) -> str:
    """The record as JSON with each run on one line, so that the file diffs by run."""
    head = json.dumps({k: v for k, v in record.items() if k != "runs"}, indent=1)
    runs = ",\n".join(json.dumps(run) for run in record["runs"])
    return f'{head[:-2]},\n "runs": [\n{runs}\n ]\n}}\n'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=ROOT,
                        help="directory for the file (default: the checkout's root)")
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--seconds", type=float, default=SECONDS)
    args = parser.parse_args(argv)
    workloads = args.workloads or gated_workloads() + list(EXTRA_WORKLOADS)
    record = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "modified": (_git("status", "--porcelain", "--untracked-files=no") or "").splitlines(),
        "source_sha256": source_sha256(),
        "env": environment(),
        "runs": [],
    }
    for seed in args.seeds:
        for workload in workloads:
            for trace in (0, 1):
                run = run_once(workload, seed, args.seconds, trace)
                record["runs"].append(run)
                verdict = run["result"]["correct"] if run["result"] else f"exit {run['exit_code']}"
                print(f"{workload} seed {seed} trace {trace}: correct={verdict}", file=sys.stderr)
    record["summary"] = summary(record["runs"])
    out = args.out / f"BENCH_{args.label}.json"
    out.write_text(dump(record))
    print(out)
    return 0 if all(r["result"] and r["result"]["correct"] is True for r in record["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
