"""Per-layer spans recorded from outside gkquad.

The recorder wraps the package's public functions by replacing their
names in every ``gkquad.*`` module namespace where they are looked up,
so calls the library makes to itself (``approx_rule`` -> ``gh_rule``
-> ``normalized_table``) become nested child spans without any change
to the library.  A target name that no longer exists is reported as
absent, not as an error.

Spans are held in memory as ``[name, start, end, parent, op, count,
error]`` lists, where ``parent`` is the index of the enclosing span,
``op`` the operation id the benchmark set before the call (-1 during
set-up), and ``count`` the layer's work count for that call.  A span's
self time is its duration minus the part of it covered by its children.
"""

import json
import sys
import time

# (module, function, work counter).  The counter receives the call's
# arguments and returns the work count the layer table reports.
TARGETS = (
    ("hermite", "normalized_table", lambda x, degree_max: len(x) * (degree_max + 1)),
    ("gauss_hermite", "gh_rule", lambda n: n),
    ("mercer", "basis_from", None),
    ("mercer", "eigenfunction_table", None),
    ("approx", "approx_rule", None),
    ("approx", "even_hermite_series", None),
    ("approx", "qr_weights", lambda basis, nodes, m_terms: m_terms),
    ("wce", "worst_case_error", lambda rule, ell: len(rule) ** 2),
    ("exact", "kernel_system", None),
    ("exact", "exact_weights", None),
    ("tensor", "tensor_rule", None),
    ("tensor", "tensor_integrate", lambda rule, f: rule.size),
    ("cli", "main", None),
)

SPANS_MARKER = "perfbench-spans "


class Recorder:
    """Collects spans while installed; restores the library on uninstall."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.absent = []
        self._stack = []
        self._patched = []

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "gkquad" or name.startswith("gkquad."))}
        self.absent = []
        for module, func, counter in TARGETS:
            owner = modules.get(f"gkquad.{module}")
            if owner is None:  # not imported by this process
                continue
            original = getattr(owner, func, None)
            if original is None:
                self.absent.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(f"{module}.{func}", original, counter)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None, None]
            if counter is not None:
                try:
                    span[5] = counter(*args, **kwargs)
                except (TypeError, AttributeError):
                    pass
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def tally(spans) -> dict:
    """Per-layer totals over the spans with op >= 0 (the timed operations).

    ``gauss_hermite.gh_rule`` calls are split into cold calls (the first
    call for a size in the process) and warm calls; cold calls made
    during set-up (op < 0) are kept apart as ``setup_cold_*``.
    """
    selfs = self_times(spans)
    table = {}
    seen_sizes = set()
    for span, self_s in zip(spans, selfs):
        name, start, end, parent, op, count, error = span
        if name == "gauss_hermite.gh_rule" and count is not None:
            cold = count not in seen_sizes
            seen_sizes.add(count)
        if op < 0:
            if name == "gauss_hermite.gh_rule" and count is not None and cold:
                row = table.setdefault(name, empty_row())
                row["setup_cold_calls"] += 1
                row["setup_cold_s"] += end - start
            continue
        row = table.setdefault(name, empty_row())
        row["calls"] += 1
        row["self_s"] += self_s
        row["incl_s"] += end - start
        row["work"] += count or 0
        if error is not None:
            if parent is None:
                row["raised"] += 1
            if error == "IllConditionedError":
                row["refusals"] += 1
        if name == "gauss_hermite.gh_rule" and count is not None:
            if cold:
                row["cold_calls"] += 1
                row["cold_s"] += end - start
            else:
                row["warm_calls"] += 1
                row["warm_s"] += end - start
    return table


def empty_row() -> dict:
    return dict(calls=0, self_s=0.0, incl_s=0.0, work=0, raised=0, refusals=0,
                cold_calls=0, cold_s=0.0, setup_cold_calls=0, setup_cold_s=0.0,
                warm_calls=0, warm_s=0.0)


def merge(tables) -> dict:
    """Sum per-layer tallies, e.g. those of several CLI processes."""
    out = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, empty_row())
            for key, value in row.items():
                acc[key] += value
    return out


def run_cli_traced(argv) -> int:
    """Run the CLI under a recorder and report its tally on stderr."""
    import gkquad.cli

    recorder = Recorder()
    recorder.install()
    recorder.op = 0
    try:
        return gkquad.cli.main(argv)
    finally:
        recorder.uninstall()
        sys.stderr.write(SPANS_MARKER + json.dumps(tally(recorder.spans)) + "\n")
