"""Seeded inputs for the four workloads.

This module uses the standard library only, so run.py can build a
workload's inputs without importing numpy or gkquad.  The same seed
always gives the same inputs; the workload process receives the inputs,
never the seed.

Each workload mixes seeded operations with a few fixed "anchor"
operations.  The anchors carry the oracle comparison that feeds
``oracle_err_max``, so that metric depends on the code and not on the
seed, while the seeded operations are all checked for correctness.
"""

import math
import random

WORKLOADS = ("rules-sweep", "error-diagnostics", "tensor-cubature", "cli-readme")

# The library's guarded ranges.  They are copied here so that input
# generation imports nothing from the package under test.
N_MAX = 200
ELL_MIN, ELL_MAX = 0.05, 10.0

# rules-sweep: the two ends of the guarded length-scale range are always
# swept; the rest are drawn log-uniform between them.
RULES_SEEDED_ELLS = 10

# error-diagnostics: length scales named in the sweeps, and one size per
# stratum of 1..N_MAX for each, so every seed has nearly the same cost.
DIAG_ELLS = (0.2, 0.5, 1.0, 2.0, 4.0)
DIAG_STRATA = 24
# Fixed (ell, N) points whose WCE is recomputed at 60 digits.  The ell=1
# points at N >= 30 sit on the sqrt(eps) floor of the direct WCE formula.
DIAG_ORACLE_POINTS = (
    (1.0, 20), (1.0, 30), (1.0, 40), (1.0, 60),
    (0.2, 60), (0.5, 30), (2.0, 12), (4.0, 8),
)

# tensor-cubature: target grid sizes (points) of the seeded grids, and
# two fixed anchor grids; the first anchor is criterion 10's integrand.
TENSOR_TARGETS = ((2, 10_000), (2, 25_000), (3, 20_000), (3, 60_000), (3, 100_000))
TENSOR_ANCHORS = (
    {"ell": 1.2, "sizes": [30, 30, 30], "m": [6, 4, 2], "c": [1.5, 3.0, 0.5]},
    {"ell": 0.5, "sizes": [100, 100], "m": [4, 2], "c": [1.0, 2.0]},
)

# cli-readme: the eight commands of the README, labelled for metric names.
CLI_COMMANDS = (
    ("rule", ["rule", "--ell", "1", "--n", "9"]),
    ("constants", ["constants", "--ell", "0.2"]),
    ("constants-dims", ["constants", "--ell", "1", "--dims", "3"]),
    ("positivity-sweep", ["positivity-sweep", "--ell", "0.1", "--ns", "1:200"]),
    ("weights-compare", ["weights-compare", "--ells", "0.2,1,4", "--ns", "1:60"]),
    ("wce-sweep", ["wce-sweep", "--ell", "1", "--ns", "1:40"]),
    ("integrate", ["integrate", "--ell", "1.2", "--m", "6", "--c", "1.5", "--ns", "1:30"]),
    ("tensor-integrate", ["tensor-integrate"]),
)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + rng.random() * (math.log(hi) - math.log(lo)))


def _rules_sweep(rng: random.Random) -> dict:
    seeded = [_log_uniform(rng, ELL_MIN, ELL_MAX) for _ in range(RULES_SEEDED_ELLS)]
    ells = sorted([ELL_MIN, ELL_MAX] + seeded)
    # One eigenfunction index n < N to check, per (ell, N) operation.
    check_index = [rng.randrange(n) for _ in ells for n in range(1, N_MAX + 1)]
    return {"ells": ells, "anchor_ells": [ELL_MIN, ELL_MAX], "check_index": check_index}


def _error_diagnostics(rng: random.Random) -> dict:
    ops = []
    for ell in DIAG_ELLS:
        for s in range(DIAG_STRATA):
            lo = 1 + (N_MAX * s) // DIAG_STRATA
            hi = (N_MAX * (s + 1)) // DIAG_STRATA
            ops.append([ell, rng.randint(lo, hi)])
    anchors = [[ell, n] for ell, n in DIAG_ORACLE_POINTS]
    return {"ops": ops + anchors, "anchors": list(range(len(ops), len(ops) + len(anchors)))}


def _grid_sizes(rng: random.Random, d: int, target: int) -> list[int]:
    """Rule sizes whose product is within a few percent of the target."""
    side = target ** (1.0 / d)
    lo, hi = max(2, round(side / 1.25)), min(N_MAX, round(side * 1.25))
    while True:
        sizes = [rng.randint(lo, hi) for _ in range(d - 1)]
        last = round(target / math.prod(sizes))
        if 2 <= last <= N_MAX:
            return sizes + [last]


def _tensor_cubature(rng: random.Random) -> dict:
    grids = []
    for d, target in TENSOR_TARGETS:
        grids.append({
            "ell": _log_uniform(rng, 0.5, 4.0),
            "sizes": _grid_sizes(rng, d, target),
            # Even powers keep every integral away from zero, so the
            # oracle's relative gap is well defined.
            "m": [rng.choice((0, 2, 4, 6)) for _ in range(d)],
            "c": [0.25 + 3.5 * rng.random() for _ in range(d)],
        })
    anchors = [dict(g) for g in TENSOR_ANCHORS]
    return {"grids": grids + anchors,
            "anchors": list(range(len(grids), len(grids) + len(anchors)))}


def _cli_readme(rng: random.Random) -> dict:
    commands = [[label, list(argv)] for label, argv in CLI_COMMANDS]
    rng.shuffle(commands)
    return {"commands": commands}


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload, generated from the seed."""
    makers = {
        "rules-sweep": _rules_sweep,
        "error-diagnostics": _error_diagnostics,
        "tensor-cubature": _tensor_cubature,
        "cli-readme": _cli_readme,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    spec = makers[workload](random.Random(seed))
    spec["workload"] = workload
    return spec
