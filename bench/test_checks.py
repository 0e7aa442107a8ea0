"""Negative controls for the benchmark's output checks.

Each check must pass on what the CLI writes and fail once one eigenvalue,
one spectral radius or one output row is perturbed.  Run from the
repository root with

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from oneshift import cli  # noqa: E402

DELTA = 1e-6


def bump_field(text, row, col, delta=DELTA):
    """The CSV text with field ``col`` of data row ``row`` moved by ``delta``."""
    lines = text.split("\n")
    fields = lines[1 + row].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[1 + row] = ",".join(fields)
    return "\n".join(lines)


def drop_row(text, row):
    lines = text.split("\n")
    del lines[1 + row]
    return "\n".join(lines)


def header_only(text):
    return text.split("\n")[0] + "\n"


def bump_keys(text, *keys, delta=DELTA):
    report = json.loads(text)
    for key in keys:
        report[key] = repr(float(report[key]) + delta)
    return json.dumps(report)


def run(tmp_path, argv, code=0):
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == code
    return out.read_text()


PAIR = (workloads.involution(np.random.default_rng(7), 5), workloads.involution(np.random.default_rng(8), 5))

CASES = {
    "spectrum": (
        ["spectrum", "--family", "eq5", "--theta", "1.1", "--n", "40"],
        lambda t: checks.check_spectrum(t, "eq5", None, 1.1, 40),
        [lambda t: bump_field(t, 7, 1), lambda t: drop_row(t, 39), lambda t: bump_field(t, 0, 0, 1), header_only],
    ),
    "rho-constant": (
        ["rho", "--family", "constant", "--theta", "0.5", "--n", "200"],
        lambda t: checks.check_rho(t, "constant", None, 0.5),
        [lambda t: bump_keys(t, "rho_low", "rho_high"), lambda t: bump_keys(t, "rho_closed")],
    ),
    "rho-two-constant": (
        ["rho", "--family", "two-constant", "--omega", "0.3", "--theta", "2.0", "--n", "200"],
        lambda t: checks.check_rho(t, "two-constant", 0.3, 2.0),
        [lambda t: bump_keys(t, "rho_low", "rho_high"), lambda t: bump_keys(t, "lambda0")],
    ),
    "rho-anchor": (
        ["rho", "--family", "eq3", "--omega", repr(checks.HALF_PI), "--theta", repr(checks.ANCHOR_THETA), "--n", "200"],
        lambda t: checks.check_rho(t, "eq3", checks.HALF_PI, checks.ANCHOR_THETA, lambda0=1.5),
        [lambda t: bump_keys(t, "lambda0"), lambda t: bump_keys(t, "rho_low", "rho_high")],
    ),
    "rho-eq5-band": (
        ["rho", "--family", "eq5", "--theta", "2.8", "--n", "200"],
        lambda t: checks.check_rho(t, "eq5", None, 2.8),
        [lambda t: bump_keys(t, "rho_low", "rho_high", "lambda0", delta=-0.05)],
    ),
    "sweep": (
        ["sweep", "--family", "constant", "--theta", "0.3:0.5:1.3", "--n", "100", "--mode", "rho"],
        lambda t: checks.check_sweep(t, "constant", None, [0.3, 0.8, 1.3], 100),
        [lambda t: bump_field(t, 1, 1), lambda t: bump_field(t, 0, 2), lambda t: bump_field(t, 2, 3), lambda t: drop_row(t, 2), header_only],
    ),
    "figure": (
        ["figure", "1", "--panel", "left"],
        lambda t: checks.check_figure(t, "1", "left"),
        [lambda t: bump_field(t, 55, 2), lambda t: bump_field(t, 3, 3), lambda t: drop_row(t, 100), header_only],
    ),
    "general-spectrum": (
        ["spectrum", "--family", "general-file", "--input", "{pair}"],
        lambda t: checks.check_general_spectrum(t, *PAIR),
        [lambda t: bump_field(t, 2, 1), lambda t: drop_row(t, 4), header_only],
    ),
    "general-rho": (
        ["rho", "--family", "general-file", "--input", "{pair}"],
        lambda t: checks.check_general_rho(t, *PAIR),
        [lambda t: bump_keys(t, "rho_low", "rho_high")],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_passes_output_and_fails_perturbed(tmp_path, name):
    argv, check, perturbations = CASES[name]
    pair = tmp_path / "pair.txt"
    workloads.write_pair(pair, *PAIR)
    text = run(tmp_path, [a.replace("{pair}", str(pair)) for a in argv])
    assert checks.verdict(check, text) == []
    for perturb in perturbations:
        assert checks.verdict(check, perturb(text)) != []
    assert checks.verdict(check, None) != []


def test_validate_negative_control(tmp_path):
    assert checks.check_validate(run(tmp_path, ["validate"])) == []
    assert checks.check_validate(run(tmp_path, ["validate", "--perturb"], code=1)) != []


def test_closed_forms_at_known_angles():
    assert checks.closed_rho("constant", None, math.pi / 8) == pytest.approx(math.sqrt(2.0))
    assert checks.closed_rho("constant", None, math.pi / 2) == 2.0
    # omega = 0.3: the plateau is [pi/2 - 0.3, pi/2 + 0.3]; 2.0 lies above it
    assert checks.closed_rho("two-constant", 0.3, 2.0) == pytest.approx(2.0 * math.sin(1.7))
    assert checks.closed_rho("two-constant", 0.3, 0.2) == pytest.approx(2.0 * math.sin(0.5))
    assert checks.closed_rho("eq3", 0.3, 0.2) is None
