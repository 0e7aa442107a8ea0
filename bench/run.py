"""Run one workload of the oneshift benchmark and print its metrics.

    python3 bench/run.py --workload radius-sweep --seed 1 --seconds 15 --trace 0

Requests are CLI argv lists passed one after another to ``oneshift.cli.main``
in this one process: one client in a closed loop.  The workload's request
list runs in whole rounds until ``--seconds`` of round time have passed.
Request timings are given at a reference host speed (``pace.py``): the
host's speed drifts by far more than the bounds, and a fixed reference task
timed between requests tracks that drift.

Each request's distinct outputs are kept as files, compared byte for byte,
so the process holds no output text and its memory does not grow with the
number of rounds.  They are checked after the rounds, outside the timed
region, against computations that do not use oneshift (``checks.py``).

The last line of stdout is one JSON object.  With ``--trace 0`` it holds
the end-to-end metrics; with ``--trace 1`` every round is traced, and it
holds the per-layer metrics (``spans.py``).
"""

import argparse
import filecmp
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy

import checks
import pace
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
END_TO_END = {
    "wall_s": "s",
    "request_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Round:
    wall_s: float  # as elapsed, for the run length
    latencies: list  # at the reference speed
    references: list  # reference task timings, seconds


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one workload of the oneshift benchmark.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe(warmup):
    """Seconds a fresh process takes to import oneshift.cli and serve
    ``warmup``, as elapsed.  Not scaled by the reference task: a fresh
    process's imports do not follow its timings."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), *warmup],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def call(main, argv):
    """The exit code of one request; an uncaught exception counts as code 1."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def keep(out, kept, keep_dir):
    """Where the output file ``out`` is kept: the file in ``kept`` with the
    same bytes or, if there is none, ``out`` itself, moved into ``keep_dir``
    and added to ``kept``.  None if the request wrote no output.

    Files are compared rather than hashed: ``hashlib`` loads OpenSSL, which
    would add about 3.6 MB to ``peak_rss_mb``.
    """
    if not os.path.exists(out):
        return None
    for path in kept:
        if filecmp.cmp(out, path, shallow=False):
            return path
    path = Path(keep_dir) / f"{Path(out).name}.{len(kept)}"
    os.replace(out, path)
    kept.append(path)
    return path


def run_round(main, requests, outputs, kept, keep_dir):
    """Time one pass over ``requests``, with the reference task timed
    between them; then count each request's (index, exit code, kept output
    file) in ``outputs``."""
    for r in requests:
        Path(r.out).unlink(missing_ok=True)
    latencies, codes = [], []
    pacer = pace.Pacer()
    t0 = time.perf_counter()
    for i, r in enumerate(requests):
        pacer.before(i)
        t = time.perf_counter()
        codes.append(call(main, r.argv))
        latencies.append(time.perf_counter() - t)
        pacer.ran(latencies[-1])
    latencies = pacer.scaled(latencies)
    wall = time.perf_counter() - t0
    for i, (r, code) in enumerate(zip(requests, codes)):
        outputs[i, code, keep(r.out, kept[i], keep_dir)] += 1
    filecmp.clear_cache()  # it would keep one entry per comparison
    # Each request leaves argparse reference cycles behind; collected only
    # now and then, they would make peak_rss_mb grow with the round count.
    gc.collect()
    return Round(wall, latencies, [ref for _, ref in pacer.samples])


def environment(kernels):
    return {
        "kernel_path": "numba" if kernels.USE_NUMBA else "numpy",
        "use_numba": kernels.USE_NUMBA,
        "have_numba": kernels.HAVE_NUMBA,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def tally(requests, outputs):
    """(failed, wrong): requests that exited nonzero or failed their check,
    and of those the ones whose output was wrong.  Each distinct output is
    checked once and counts as often as it came."""
    failed = wrong = 0
    for (i, code, path), count in outputs.items():
        req = requests[i]
        if code != 0:
            problems = [f"exited {code}"]
        else:
            problems = checks.verdict(req.check, None if path is None else path.read_text())
        for problem in problems[:5]:
            print(f"request {i} ({' '.join(req.argv)}): {problem}", file=sys.stderr)
        if problems:
            failed += count
            wrong += count if code == 0 else 0
    return failed, wrong


def run(args, out_dir):
    requests, warmup = workloads.build(args.workload, args.seed, out_dir)
    keep_dir = Path(out_dir) / "kept"
    keep_dir.mkdir()
    kept = [[] for _ in requests]
    setup = [probe(warmup) for _ in range(SETUP_PROBES)]

    from oneshift import _kernels, cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: oneshift was imported from {cli.__file__}, not from {SRC}")
    if call(cli.main, warmup) != 0:
        sys.exit("error: the warm-up request failed")

    tracer = spans.Tracer(spans.call_cost_s()) if args.trace else None
    layer_rounds = []
    rounds = []
    outputs = Counter()
    spent = 0.0
    while not rounds or spent < args.seconds:
        if tracer:
            tracer.reset()
            tracer.install()
            try:
                rounds.append(run_round(tracer.wrap("cli", cli.main), requests, outputs, kept, keep_dir))
            finally:
                tracer.uninstall()
            layer_rounds.append(tracer.round_metrics())
        else:
            rounds.append(run_round(cli.main, requests, outputs, kept, keep_dir))
        spent += rounds[-1].wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, wrong = tally(requests, outputs)
    if tracer:
        values = spans.mean_metrics(layer_rounds)
        units = {name: unit for name, (unit, _) in spans.METRICS.items()}
    else:
        values = {
            "wall_s": statistics.median(sum(r.latencies) for r in rounds),
            # each request's median over the rounds, then the median request
            "request_p50_ms": 1000.0 * statistics.median(map(statistics.median, zip(*(r.latencies for r in rounds)))),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    print("env " + json.dumps(environment(_kernels)))
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(requests)} requests")
    refs = [ref for r in rounds for ref in r.references]
    print(
        f"reference task: median {1000 * statistics.median(refs):.4g} ms over {len(refs)} timings;"
        f" timings are scaled to {1000 * pace.REFERENCE_S:.4g} ms"
    )
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": wrong == 0,
        "attempted": len(rounds) * len(requests),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oneshift" / "cli.py").is_file():
        sys.exit(f"error: no oneshift sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as out_dir:
        return run(args, out_dir)


if __name__ == "__main__":
    sys.exit(main())
