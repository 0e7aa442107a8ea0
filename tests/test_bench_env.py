"""What the benchmark reads from the package, and the requests it serves.

``bench/run.py`` names the kernel path from ``_kernels`` after the rounds,
so a package change that drops what it reads would fail every benchmark
run; here it fails the suite instead.  Likewise each workload's seed-1
request list is served here, warm-up first, and every output must pass the
benchmark's own check, so a change that would end a run with a failed
request or a wrong output fails the suite first.  And a traced run wraps
functions of modules it finds in ``sys.modules`` after the warm-up, so a
module imported later, inside a command, would end every traced run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_traced_modules_are_imported_by_the_warm_up(monkeypatch, tmp_path):
    # in a fresh process, as the benchmark's own process imports numpy first
    monkeypatch.syspath_prepend(str(BENCH))
    spans, workloads = importlib.import_module("spans"), importlib.import_module("workloads")
    warmup = workloads.build("radius-sweep", 1, str(tmp_path))[1]
    script = (
        "import json, sys\n"
        "from oneshift import cli\n"
        f"assert cli.main({warmup!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert {module for module, _, _ in spans.TARGETS} <= set(json.loads(proc.stdout))
