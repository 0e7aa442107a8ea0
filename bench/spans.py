"""Spans around oneshift's public functions, for the traced benchmark run.

``Tracer.install`` replaces each function in ``TARGETS`` by a timing
wrapper in every oneshift module that holds it under some name, so calls
through ``module.function`` and through names imported with ``from ...
import`` are both seen; ``uninstall`` puts the originals back.  Spans nest:
a span's self time is its duration minus that of the spans it encloses.
Nothing under ``src/`` is changed.

The cost of tracing is not read off round times, which drift with the
host's load by more than that cost.  ``call_cost_s`` times what one traced
call adds to an untraced one, and ``trace.overhead_pct`` is that cost times
the traced calls of a round, as a share of the round's request time.
"""

import functools
import math
import statistics
import sys
import time
from collections import defaultdict

# (module, function, span label)
TARGETS = (
    ("oneshift._kernels", "bisect_eigenvalues", "kernels.bisect"),
    ("oneshift._kernels", "sturm_count", "kernels.sturm"),
    ("oneshift.tridiag", "householder_tridiagonalize", "tridiag.householder"),
    ("oneshift.theory", "outlier_solve_eq4", "theory.outlier"),
    ("oneshift.forms", "build_sum_truncation", "forms.build"),
    ("oneshift.analysis", "rho_numeric", "analysis.rho_numeric"),
    ("oneshift.analysis", "tsirelson_suite", "analysis.tsirelson"),
    ("oneshift.analysis", "solve_lambda_max_crossing", "analysis.crossing"),
    ("oneshift.validate", "run_checks", "validate"),
    ("oneshift.cli", "write_text", "cli.write"),
)

# per-layer metric -> unit, better direction
METRICS = {
    "kernels.full_calls": ("count", "lower"),
    "kernels.full_s": ("s", "lower"),
    "kernels.slice_calls": ("count", "lower"),
    "kernels.slice_s": ("s", "lower"),
    "kernels.slice_indices": ("count", "lower"),
    "kernels.sturm_calls": ("count", "lower"),
    "kernels.sturm_s": ("s", "lower"),
    "kernels.sturm_rows": ("count", "lower"),
    "kernels.rows_per_s": ("rows/s", "higher"),
    "kernels.eigs_per_section": ("eigs/section", "lower"),
    "tridiag.householder_calls": ("count", "lower"),
    "tridiag.householder_s": ("s", "lower"),
    "theory.outlier_calls": ("count", "lower"),
    "theory.outlier_s": ("s", "lower"),
    "forms.build_calls": ("count", "lower"),
    "forms.build_s": ("s", "lower"),
    "analysis.rho_numeric_calls": ("count", "lower"),
    "analysis.rho_numeric_self_s": ("s", "lower"),
    "analysis.tsirelson_s": ("s", "lower"),
    "analysis.crossing_s": ("s", "lower"),
    "validate.self_s": ("s", "lower"),
    "cli.request_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.top_level_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def halvings(lo, hi, tol):
    """Bisection steps from width ``hi - lo`` down to ``tol``.

    This is the kernel's fixed-count rule, restated here so that
    ``kernels.sturm_rows`` keeps one definition whatever the kernel does.
    """
    width, steps = hi - lo, 0
    while width > tol:
        width *= 0.5
        steps += 1
    return steps


class Tracer:
    """Per-round span totals of the wrapped functions.

    ``call_cost_s`` is the time one traced call adds; it sets
    ``trace.overhead_pct``.
    """

    def __init__(self, call_cost_s=0.0):
        self.call_cost_s = call_cost_s
        self._stack = []  # time covered by child spans, one entry per open span
        self._patches = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.top_level_s = 0.0
        self.bisects = []  # (n, index count, lo, hi, tol, seconds)
        self.sturm_rows = 0
        self.bytes_written = 0

    def wrap(self, label, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.calls[label] += 1
                self.total[label] += dt
                self.self_time[label] += dt - child
                if stack:
                    stack[-1] += dt
                    if len(stack) == 1:
                        self.top_level_s += dt
                self._note(label, args, dt)

        return traced

    def _note(self, label, args, dt):
        if label == "kernels.bisect":
            diag, _, lo, hi, tol, _, idx = args
            self.bisects.append((len(diag), len(idx), float(lo), float(hi), float(tol), dt))
        elif label == "kernels.sturm":
            self.sturm_rows += len(args[0])
        elif label == "cli.write":
            self.bytes_written += len(args[1])

    def install(self):
        for module, name, label in TARGETS:
            orig = getattr(sys.modules[module], name, None)
            if orig is None:  # renamed or removed: its metrics read 0
                continue
            traced = self.wrap(label, orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "oneshift":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def round_metrics(self):
        """Per-layer metrics of the requests traced since the last ``reset``."""
        full = [c for c in self.bisects if c[1] == c[0]]
        part = [c for c in self.bisects if c[1] != c[0]]
        rows = self.sturm_rows + sum(n * k * halvings(lo, hi, tol) for n, k, lo, hi, tol, _ in self.bisects)
        kernel_s = sum(c[5] for c in self.bisects) + self.total["kernels.sturm"]
        sections = self.calls["forms.build"] + self.calls["tridiag.householder"]
        return {
            "kernels.full_calls": len(full),
            "kernels.full_s": sum(c[5] for c in full),
            "kernels.slice_calls": len(part),
            "kernels.slice_s": sum(c[5] for c in part),
            "kernels.slice_indices": sum(c[1] for c in part),
            "kernels.sturm_calls": self.calls["kernels.sturm"],
            "kernels.sturm_s": self.total["kernels.sturm"],
            "kernels.sturm_rows": rows,
            "kernels.rows_per_s": rows / kernel_s if kernel_s else 0.0,
            "kernels.eigs_per_section": sum(c[1] for c in self.bisects) / sections if sections else 0.0,
            "tridiag.householder_calls": self.calls["tridiag.householder"],
            "tridiag.householder_s": self.total["tridiag.householder"],
            "theory.outlier_calls": self.calls["theory.outlier"],
            "theory.outlier_s": self.total["theory.outlier"],
            "forms.build_calls": self.calls["forms.build"],
            "forms.build_s": self.total["forms.build"],
            "analysis.rho_numeric_calls": self.calls["analysis.rho_numeric"],
            "analysis.rho_numeric_self_s": self.self_time["analysis.rho_numeric"],
            "analysis.tsirelson_s": self.total["analysis.tsirelson"],
            "analysis.crossing_s": self.total["analysis.crossing"],
            "validate.self_s": self.self_time["validate"],
            "cli.request_s": self.total["cli"],
            "cli.self_s": self.self_time["cli"],
            "cli.write_s": self.total["cli.write"],
            "cli.bytes_written": self.bytes_written,
            "trace.top_level_s": self.top_level_s,
            "trace.overhead_pct": 100.0 * self.call_cost_s * sum(self.calls.values()) / self.total["cli"],
        }


def call_cost_s(calls=20_000, repeats=5):
    """Seconds that tracing adds to one call: the fastest of ``repeats``
    passes of ``calls`` calls to a traced no-op, less the fastest such pass
    over the bare no-op, per call.  The traced calls run inside an open span,
    as every traced call of a request does."""

    def noop(*args):
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)

    def fastest(fn):
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - t0)
        return best

    tracer._stack.append(0.0)
    return (fastest(traced) - fastest(noop)) / calls


def mean_metrics(rounds):
    """Mean over rounds of each per-layer metric.

    A mean, unlike a median, keeps the sums: ``cli.request_s`` stays equal
    to ``cli.self_s`` plus ``trace.top_level_s``.
    """
    return {name: statistics.fmean(r[name] for r in rounds) for name in rounds[0]}
