"""The workload process: set up, run timed passes, check every output.

run.py starts this script with the workload's inputs as one JSON
argument and BLAS pinned to one thread.  It prints ``ready`` as soon as
set-up is done, so run.py can time set-up from process start, then
times the reference loop (speed.py), and ends with one JSON line of raw
results.  With ``setup_only`` that line holds only the reference time.

A pass runs the workload's fixed operation list once, in a closed loop:
each operation starts when the previous one returns.  Outputs of the
first pass are checked against the oracles after the pass; outputs of
later passes must be bit-identical to the first.  Checks never run
inside a timed span.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

# Time the reference loop about this often, between operations.
REFERENCE_EVERY_S = 0.05


class Verifier:
    """Checks outputs and counts attempts, failures and refusals."""

    def __init__(self, workload):
        self.workload = workload
        self.fingerprints = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.refusals_per_pass = 0
        self.oracle_errors = {}

    def verify(self, outputs) -> None:
        wl = self.workload
        first = self.fingerprints is None
        if first:
            self.fingerprints = [None] * len(outputs)
        for i, out in enumerate(outputs):
            self.attempted += 1
            try:
                if isinstance(out, Exception):
                    raise workloads.CheckFailure(f"{type(out).__name__}: {out}")
                if first:
                    err = wl.check(i, out)
                    if err is not None:
                        self.oracle_errors[i] = err
                    self.fingerprints[i] = wl.fingerprint(out)
                    self.refusals_per_pass += wl.refused(out)
                elif wl.fingerprint(out) != self.fingerprints[i]:
                    raise workloads.CheckFailure("output differs from the first pass")
            except workloads.CheckFailure as exc:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"op {i} {wl.ops[i]!r}: {exc}")


def run_pass(wl, verifier, recorder, op_id):
    """Run the operation list once.

    Returns (wall, latencies, the pass's median reference time, next op
    id).  The reference loop runs between operations, never inside one.
    """
    outputs, latencies, references = [], [], []
    clock = time.perf_counter
    start = last_reference = clock()
    for i in range(len(wl.ops)):
        if recorder is not None:
            recorder.op = op_id
        op_id += 1
        t0 = clock()
        try:
            out = wl.run(i)
        except Exception as exc:  # an unexpected error fails the operation
            out = exc
        t1 = clock()
        latencies.append(t1 - t0)
        outputs.append(out)
        if t1 - last_reference >= REFERENCE_EVERY_S or i == len(wl.ops) - 1:
            references.append(speed.reference())
            last_reference = clock()
    wall = clock() - start
    verifier.verify(outputs)
    return wall, latencies, statistics.median(references), op_id


def write_spans(path: Path, spans_list, last_op) -> None:
    """Set-up spans and the first traced pass, one JSON list per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans_list:
            if span[4] < last_op:
                handle.write(json.dumps(span) + "\n")


def main() -> int:
    spec = json.loads(sys.argv[1])
    wl = workloads.build(spec)
    recorder = spans.Recorder() if spec["trace"] and not spec["setup_only"] else None
    if recorder is not None:
        recorder.install()
    for n in wl.gh_sizes:
        workloads.gkquad.gh_rule(n)
    print("ready", flush=True)
    # Right after set-up, outside it: scales setup_s to nominal speed.
    setup_reference = speed.reference()
    if spec["setup_only"]:
        print(json.dumps({"setup_reference": setup_reference}))
        return 0
    if recorder is not None:
        recorder.uninstall()

    verifier = Verifier(wl)
    walls, latencies, references, traced_walls = [], [], [], []
    op_id = 0
    first_traced_end = None
    min_passes = 1 if recorder is None else 2
    # With tracing, traced and untraced passes alternate, starting
    # untraced, so drift in machine speed does not bias the overhead.
    while (len(walls) + len(traced_walls) < min_passes
           or sum(walls) + sum(traced_walls) < spec["seconds"]):
        traced = recorder is not None and len(traced_walls) < len(walls)
        if traced:
            recorder.install()
            wl.traced = True
        wall, lat, reference, op_id = run_pass(
            wl, verifier, recorder if traced else None, op_id)
        if traced:
            recorder.uninstall()
            wl.traced = False
            traced_walls.append(wall)
            first_traced_end = first_traced_end or op_id
        else:
            walls.append(wall)
            latencies.extend(lat)
            references.append(reference)
    result = {"ops_per_pass": len(wl.ops), "walls": walls, "latencies": latencies,
              "references": references}
    if recorder is not None:
        result["traced_walls"] = traced_walls
        if wl.runs_children:
            result["layers"] = spans.merge(wl.tallies)
        else:
            result["layers"] = spans.tally(recorder.spans)
            write_spans(Path(spec["spans_path"]), recorder.spans, first_traced_end)
        result["absent"] = recorder.absent

    usage = resource.RUSAGE_CHILDREN if wl.runs_children else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    result["setup_reference"] = setup_reference
    anchors = [verifier.oracle_errors[i] for i in wl.anchors if i in verifier.oracle_errors]
    seeded = [e for i, e in verifier.oracle_errors.items() if i not in wl.anchors]
    result.update(
        attempted=verifier.attempted,
        failed=verifier.failed,
        failures=verifier.failures,
        refusals_per_pass=verifier.refusals_per_pass,
        oracle_err_max=max(anchors) if anchors else None,
        oracle_err_max_seeded=max(seeded) if seeded else None,
        known_red=workloads.known_red_margins(),
        env=workloads.environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
