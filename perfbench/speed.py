"""The machine's current speed, from a fixed reference loop.

The shared 2-vCPU machine the benchmark was tuned on runs the same
code up to twice as fast in some minutes as in others, for reasons
outside the process.  Those phases last longer than a run, so more
work per run cannot average them out.  The benchmark therefore times
this loop next to the work, in the same process at the same moment,
and reports times scaled to a machine on which the loop takes
``NOMINAL_S``.  Raw times are kept in the details.
"""

import statistics
import time

NOMINAL_S = 250e-6
LOOP_ITERATIONS = 3000
SAMPLE_REPEATS = 5


def reference() -> float:
    """Median seconds of a few runs of the fixed pure-Python loop."""
    clock = time.perf_counter
    times = []
    for _ in range(SAMPLE_REPEATS):
        start = clock()
        total = 0
        for j in range(LOOP_ITERATIONS):
            total += j * j
        times.append(clock() - start)
    return statistics.median(times)


def scale(reference_s: float) -> float:
    """Factor that turns a time measured next to ``reference_s`` into nominal time."""
    return NOMINAL_S / reference_s
