"""Seeded request lists of the three workloads.

A request is a CLI argv list for ``oneshift.cli.main`` that writes its
output to its own ``--out`` file, with the check its output must pass.
Angles and orders are stratified (one draw per slice of the range), so
that the work in a list, and with it the timings, barely depends on the
seed while the inputs themselves do.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

FAMILIES = ("constant", "eq3", "eq5", "two-constant")
ANGLE_SLICES = 6
RHO_ORDERS = (600, 1300, 1900)  # plus an even jitter of 0..100
SWEEP_ORDER = 600
SPECTRUM_ORDERS = (600, 1250, 1900)  # plus an even jitter of 0..100
# Figure 1's right panel (31 sections of order 600, 9.4 s) and figure 2's
# right panel (961 sections of order 100, 33 s) are left out: either would
# make a round too long to repeat within a run.  The left panel of figure 2
# runs the same sections on one row of that grid.
FIGURES = (("1", "left"), ("2", "left"), ("3", None), ("4", "left"), ("4", "right"))
PAIR_ORDERS = range(2, 17)


@dataclass
class Request:
    argv: list
    out: str
    check: Callable  # output text (None when missing) -> list of problems


class OutFiles:
    """Numbers each request's output file inside ``out_dir``."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.count = 0

    def request(self, argv, check):
        out = f"{self.out_dir}/r{self.count}.out"
        self.count += 1
        return Request(argv + ["--out", out], out, check)


def _angle(rng, k, slices=ANGLE_SLICES):
    """A draw from the k-th of ``slices`` equal slices of (0, pi), off its ends."""
    return math.pi * (k + rng.uniform(0.1, 0.9)) / slices


def _order(rng, base):
    return base + 2 * rng.randint(0, 50)


def _family_args(family, omega, theta_arg):
    args = ["--family", family, "--theta", theta_arg]
    if family in ("eq3", "two-constant"):
        args += ["--omega", repr(omega)]
    return args


def rho_request(b, family, omega, theta, n, lambda0=None):
    return b.request(
        ["rho", *_family_args(family, omega, repr(theta)), "--n", str(n)],
        lambda text: checks.check_rho(text, family, omega, theta, lambda0),
    )


def radius_sweep(rng, b):
    """Seeded ``rho`` requests over all families, with a ``sweep --mode rho``
    grid per family after every quarter of them, and the paper's anchor."""
    rhos = []
    for family in FAMILIES:
        for k in range(ANGLE_SLICES):
            for base in RHO_ORDERS:
                omega = rng.uniform(0.1, math.pi - 0.1)
                rhos.append(rho_request(b, family, omega, _angle(rng, k), _order(rng, base)))
    rng.shuffle(rhos)
    reqs = [rho_request(b, "eq3", checks.HALF_PI, checks.ANCHOR_THETA, SWEEP_ORDER, lambda0=1.5)]
    quarter = len(rhos) // len(FAMILIES)
    for i, family in enumerate(FAMILIES):
        omega = rng.uniform(0.1, math.pi - 0.1)
        start, step = rng.uniform(0.1, 0.5), rng.uniform(0.9, 1.1)
        thetas = [start + j * step for j in range(3)]
        argv = ["sweep", *_family_args(family, omega, f"{start!r}:{step!r}:{start + 2 * step!r}")]
        sweep = b.request(
            argv + ["--n", str(SWEEP_ORDER), "--mode", "rho"],
            lambda text, f=family, w=omega, ts=thetas: checks.check_sweep(text, f, w, ts, SWEEP_ORDER),
        )
        reqs += rhos[i * quarter : (i + 1) * quarter] + [sweep]
    return reqs


def spectra_dataset(rng, b):
    """The figure presets plus seeded ``spectrum`` requests at three orders."""
    reqs = []
    for number, panel in FIGURES:
        argv = ["figure", number] + (["--panel", panel] if panel else [])
        reqs.append(b.request(argv, lambda text, k=(number, panel): checks.check_figure(text, *k)))
    for family, base, k in zip(rng.sample(FAMILIES, len(SPECTRUM_ORDERS)), SPECTRUM_ORDERS, rng.sample(range(ANGLE_SLICES), 3)):
        omega, theta, n = rng.uniform(0.1, math.pi - 0.1), _angle(rng, k), _order(rng, base)
        reqs.append(
            b.request(
                ["spectrum", *_family_args(family, omega, repr(theta)), "--n", str(n)],
                lambda text, a=(family, omega, theta, n): checks.check_spectrum(text, *a),
            )
        )
    rng.shuffle(reqs)
    return reqs


def involution(gen, k):
    """A random symmetric involution Q diag(+-1) Q^T with both signs present."""
    q, _ = np.linalg.qr(gen.standard_normal((k, k)))
    signs = np.where(np.arange(k) < gen.integers(1, k), 1.0, -1.0)
    a = (q * signs) @ q.T
    return 0.5 * (a + a.T)


def write_pair(path, a, b):
    """The CLI's pair-file format: the order, the rows of A, a blank line, the rows of B."""
    rows = [str(a.shape[0])]
    rows += [" ".join(repr(float(v)) for v in row) for row in a]
    rows.append("")
    rows += [" ".join(repr(float(v)) for v in row) for row in b]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def self_check(rng, b):
    """``validate`` plus general-file ``spectrum`` and ``rho`` requests on one
    random involution pair of each order 2..16, written here."""
    gen = np.random.default_rng(rng.getrandbits(64))
    reqs = [b.request(["validate"], checks.check_validate)]
    for k in PAIR_ORDERS:
        a, bb = involution(gen, k), involution(gen, k)
        path = f"{b.out_dir}/pair{k}.txt"
        write_pair(path, a, bb)
        args = ["--family", "general-file", "--input", path]
        reqs.append(b.request(["spectrum", *args], lambda text, a=a, bb=bb: checks.check_general_spectrum(text, a, bb)))
        reqs.append(b.request(["rho", *args], lambda text, a=a, bb=bb: checks.check_general_rho(text, a, bb)))
    rng.shuffle(reqs)
    return reqs


WORKLOADS = {"radius-sweep": radius_sweep, "spectra-dataset": spectra_dataset, "self-check": self_check}

# One fixed request per workload, run untimed before the timed rounds and
# timed with the import in each set-up probe.
WARMUPS = {
    "radius-sweep": ["rho", "--family", "constant", "--theta", "1.0", "--n", "600"],
    "spectra-dataset": ["spectrum", "--family", "eq5", "--theta", "1.0", "--n", "100"],
    "self-check": ["rho", "--family", "general-file", "--input", "{pair}"],
}


def build(workload, seed, out_dir):
    """The workload's request list for ``seed`` and its warm-up argv."""
    b = OutFiles(out_dir)
    reqs = WORKLOADS[workload](random.Random(seed), b)
    warmup = [a.replace("{pair}", f"{out_dir}/pair{PAIR_ORDERS[-1]}.txt") for a in WARMUPS[workload]]
    return reqs, warmup + ["--out", f"{out_dir}/warmup.out"]
