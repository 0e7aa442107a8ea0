"""What the benchmark reads from the package outside its timed rounds.

``bench/run.py`` names the kernel path from ``_kernels`` after the rounds,
so a package change that drops what it reads would fail every benchmark
run; here it fails the suite instead.
"""

import importlib.util
from pathlib import Path

from oneshift import _kernels

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_environment_names_the_numpy_kernel_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its neighbours
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.environment(_kernels)["kernel_path"] == "numpy"
