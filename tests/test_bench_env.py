"""What the benchmark reads from the package, and the requests it serves.

``bench/run.py`` names the kernel path from ``_kernels`` after the rounds,
so a package change that drops what it reads would fail every benchmark
run; here it fails the suite instead.  Likewise each workload's seed-1
request list is served here, warm-up first, and every output must pass the
benchmark's own check, so a change that would end a run with a failed
request or a wrong output fails the suite first.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from oneshift import _kernels, cli

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_benchmark_environment_names_the_numpy_kernel_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its neighbours
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.environment(_kernels)["kernel_path"] == "numpy"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_1_requests_exit_0_and_pass_their_checks(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    checks, workloads = importlib.import_module("checks"), importlib.import_module("workloads")
    requests, warmup = workloads.build(workload, 1, str(tmp_path))
    assert cli.main(warmup) == 0
    for r in requests:
        assert cli.main(r.argv) == 0, r.argv
        assert checks.verdict(r.check, Path(r.out).read_text()) == [], r.argv
