"""Command-line surface: spectra, spectral radii, sweeps, and validation.

Outputs are deterministic: floats are printed at 15 significant digits,
lines end with "\n", and identical inputs give byte-identical files.
"""

import argparse
import functools
import json
import math
import sys

from . import analysis, forms, lazy_import, theory, tridiag, validate

np = lazy_import("numpy")

THETA_GRID_DEFAULT = "0.1:0.1:3.1"
MAX_GRID_POINTS = 10_000
# Orders are bounded before any array is built.  At this order `rho` (eq3,
# omega 1.2, theta 0.7) builds no array and never loads numpy: its process
# takes about 0.08 s and peaks at 16 MB RSS, all of it the interpreter and
# the package's imports (Python 3.11, 2 cores).  A full spectrum counts
# each in-band eigenvalue twice instead of bisecting it, but that is still
# about 2*10^12 lockstep Sturm rows: n = 20,000 takes 2.8 s, and the time
# grows as n^2.  Larger orders end in a memory error.
MAX_ORDER = 1_000_000
# `sweep` solves all its sections in one batch, whose lockstep arrays peak
# at about 17 bytes per section row (tracemalloc, the lambda_max column of
# 1,001 eq3 sections of order 1,000 and 4,000), so points * order is
# bounded too: this many rows take about 170 MB.
MAX_SWEEP_ROWS = 10_000_000
# The families that read each angle or pair-file flag, and the rest of the
# one-line error of a family given a flag it does not read.
FLAG_READERS = {
    "input": (("general-file",), "only family general-file does"),
    "omega": (("eq3", "two-constant"), "only families eq3 and two-constant do"),
    "theta": (("constant", "eq3", "eq5", "two-constant"), "only the angle families do"),
}


def fmt(x):
    """15-significant-digit decimal rendering used everywhere."""
    return format(float(x), ".15g")


def parse_grid(spec):
    """Parse "start:step:stop" (inclusive) or a single number."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"bad grid spec {spec!r}; expected start:step:stop")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r}; expected numbers") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid spec {spec!r} must be finite")
    if len(values) == 1:
        return values
    start, step, stop = values
    if step <= 0 or stop < start:
        raise ValueError(f"grid spec {spec!r} is empty or decreasing")
    # floor(points) + 1 points; checked before any is built, and an
    # overflowing quotient is inf, which fails the check too
    points = (stop - start) / step + 0.5
    if not points < MAX_GRID_POINTS:
        raise ValueError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(math.floor(points) + 1)]


def even_order(n):
    """Truncation orders must be even; odd requests are bumped up, and
    orders too small to become 4 are rejected before any warning."""
    if n > MAX_ORDER:
        raise ValueError(f"order must be <= {MAX_ORDER}")
    if n < 3:
        raise ValueError("order must be >= 4")
    if n % 2:
        print(f"warning: order {n} is odd; using {n + 1}", file=sys.stderr)
        n += 1
    return n


def build_family(family, omega, theta):
    if theta is None:
        raise ValueError(f"family {family} requires --theta")
    if family == "constant":
        return forms.PairFamily.constant(theta)
    if family == "eq3":
        if omega is None:
            raise ValueError("family eq3 requires --omega")
        return forms.PairFamily.head_omega(omega, theta)
    if family == "eq5":
        return forms.PairFamily.perturbed_heads(theta)
    if family == "two-constant":
        if omega is None:
            raise ValueError("family two-constant requires --omega")
        return forms.PairFamily.two_constant(omega, theta)
    raise ValueError(f"unknown family {family!r}")


def check_flags(args):
    """Reject an ``--input``, ``--omega`` or ``--theta`` that the request's family does not read."""
    for flag, (families, readers) in FLAG_READERS.items():
        if getattr(args, flag, None) is not None and args.family not in families:
            raise ValueError(f"family {args.family} reads no --{flag}; {readers}")


def closed_forms(fam):
    """``rho_closed`` and the limit-set point to exclude, c - gamma when s > delta.

    Both exist for a family with no head angles, whose two constant angles
    are its tail's; any other family gives (None, None).
    """
    if fam.omega.head or fam.theta.head:
        return None, None
    p = analysis.family_params(fam)
    return theory.rho_two_constant_angles(p).rho, theory.tilde_point(p)


def read_pair_file(path):
    """Plain-text pair from ``--input``: first line order k, k rows for A, blank line, k rows for B."""
    if not path:
        raise ValueError("family general-file requires --input")
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ValueError(f"cannot read pair file: {exc}") from exc
    if not lines:
        raise ValueError("pair file is empty")
    try:
        k = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"pair file order must be an integer, got {lines[0].strip()!r}") from None
    if k < 1:
        raise ValueError(f"pair file order must be >= 1, got {k}")
    if len(lines) < 1 + k:
        raise ValueError(f"pair file has fewer than {k} rows for A")
    a_rows = [[float(v) for v in lines[1 + i].split()] for i in range(k)]
    offset = 1 + k
    while offset < len(lines) and not lines[offset].strip():
        offset += 1
    if len(lines) < offset + k:
        raise ValueError(f"pair file has fewer than {k} rows for B")
    b_rows = [[float(v) for v in lines[offset + i].split()] for i in range(k)]
    if any(ln.strip() for ln in lines[offset + k :]):
        raise ValueError(f"pair file has more than {k} rows for B")
    for name, rows in (("A", a_rows), ("B", b_rows)):
        for i, row in enumerate(rows, 1):
            if len(row) != k:
                raise ValueError(f"pair file row {i} of {name} has {len(row)} entries, expected {k}")
    return forms.GeneralPair(
        a=tridiag.DenseSymmetricMatrix(np.array(a_rows)),
        b=tridiag.DenseSymmetricMatrix(np.array(b_rows)),
    )


def write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_spectrum(args):
    check_flags(args)
    if args.family == "general-file":
        pair = read_pair_file(args.input)
        values = tridiag.dense_sym_eigenvalues(
            tridiag.DenseSymmetricMatrix(pair.a.entries + pair.b.entries)
        ).values
    else:
        fam = build_family(args.family, args.omega, args.theta)
        n = even_order(args.n)
        values = analysis.family_eigenvalues_at([fam], n, np.arange(n))[0]
    lines = ["index,eigenvalue"]
    lines += [f"{i},{v:.15g}" for i, v in enumerate(values.tolist())]
    write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_rho(args):
    check_flags(args)
    if args.family == "general-file":
        rho = analysis.rho_commutator_direct(read_pair_file(args.input))
        payload = {"rho_low": fmt(rho), "rho_high": fmt(rho), "branch": "direct-commutator"}
    else:
        fam = build_family(args.family, args.omega, args.theta)
        closed, exclusion = closed_forms(fam)
        rep = analysis.rho_numeric(fam, even_order(args.n), exclusion=exclusion)
        payload = {
            "rho_low": fmt(rep.rho),
            "rho_high": fmt(rep.rho),
            "lambda0": fmt(rep.lambda0),
            "branch": rep.branch,
        }
        if closed is not None:
            payload["rho_closed"] = fmt(closed)
    write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _spectrum_lines(fams, thetas, n, with_commutator):
    if with_commutator:
        lines = ["theta,index,eigenvalue,i_commutator_eig"]
    else:
        lines = ["theta," + ",".join(f"eig_{i + 1}" for i in range(n))]
    # the values are Python floats, which an f-string formats as fmt does
    for theta, row in zip(thetas, analysis.family_eigenvalues_at(fams, n, np.arange(n))):
        values, t = row.tolist(), fmt(theta)
        if with_commutator:
            for i, lam in enumerate(values):
                # theory.rho_from_lambda inline, 30 % cheaper a value: a
                # bisected eigenvalue is 0 or far above 1e-154, so its square
                # never underflows
                mu = math.sqrt(max(0.0, lam * lam * (4.0 - lam * lam)))
                lines.append(f"{t},{i},{lam:.15g},{mu:.15g}")
        else:
            lines.append(t + "," + ",".join(f"{v:.15g}" for v in values))
    return lines


def _lambda_max_column(fams, n):
    """Largest eigenvalue of the order-n section of each family, bisected in lockstep."""
    return analysis.family_eigenvalues_at(fams, n, [n - 1])[:, 0].tolist()


def cmd_sweep(args):
    check_flags(args)
    thetas = parse_grid(args.theta)
    if not thetas:
        raise ValueError("empty theta grid")
    for t in thetas:
        if not (0.0 < t < math.pi):
            raise ValueError("theta grid must lie inside (0, pi)")
    # the row cap is checked before any family is built (an order above
    # MAX_ORDER is left to even_order's message), and the families before
    # the odd-order warning, so that a bad request prints one line
    even = args.n + args.n % 2
    if args.n <= MAX_ORDER and len(thetas) * even > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep of {len(thetas)} points at order {even} exceeds {MAX_SWEEP_ROWS} section rows")
    fams = [build_family(args.family, args.omega, theta) for theta in thetas]
    n = even_order(args.n)
    if args.mode == "spectrum":
        lines = _spectrum_lines(fams, thetas, n, with_commutator=False)
    else:
        lines = ["theta,lambda_max,rho_numeric,rho_closed"]
        for theta, fam, lam in zip(thetas, fams, _lambda_max_column(fams, n)):
            closed, exclusion = closed_forms(fam)
            rep = analysis.rho_numeric(fam, n, exclusion=exclusion)
            closed_txt = fmt(closed) if closed is not None else ""
            lines.append(f"{fmt(theta)},{fmt(lam)},{fmt(rep.rho)},{closed_txt}")
    write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_figure(args):
    thetas = parse_grid(THETA_GRID_DEFAULT)
    half_pi = math.pi / 2
    if args.number == 1:
        n = 10 if args.panel == "left" else 600
        lines = _spectrum_lines(
            [forms.PairFamily.head_omega(half_pi, t) for t in thetas], thetas, n, with_commutator=True
        )
    elif args.number == 2:
        n = 100
        if args.panel == "left":
            lines = ["theta,lambda_max"]
            lams = _lambda_max_column([forms.PairFamily.head_omega(half_pi, t) for t in thetas], n)
            lines += [f"{fmt(t)},{fmt(lam)}" for t, lam in zip(thetas, lams)]
        else:
            lines = ["omega,theta,lambda_max"]
            grid = [(om, t) for om in thetas for t in thetas]
            lams = _lambda_max_column([forms.PairFamily.head_omega(om, t) for om, t in grid], n)
            lines += [f"{fmt(om)},{fmt(t)},{fmt(lam)}" for (om, t), lam in zip(grid, lams)]
    elif args.number == 3:
        lines = _spectrum_lines(
            [forms.PairFamily.perturbed_heads(t) for t in thetas], thetas, 100, with_commutator=True
        )
    elif args.number == 4:
        om = 0.3 if args.panel == "left" else 2.4
        lines = _spectrum_lines(
            [forms.PairFamily.two_constant(om, t) for t in thetas], thetas, 200, with_commutator=True
        )
    else:
        raise ValueError("figure number must be 1..4")
    write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args):
    checks = validate.run_checks(perturb=args.perturb)
    report = {
        "checks": [
            {
                "name": c.name,
                "expected": fmt(c.expected),
                "observed": fmt(c.observed),
                "tolerance": fmt(c.tolerance),
                "pass": c.passed,
            }
            for c in checks
        ],
        "all_pass": all(c.passed for c in checks),
    }
    write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if report["all_pass"] else 1


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="oneshift",
        description="Spectral radii of commutators of involution pairs in one-shifted form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = ("constant", "eq3", "eq5", "two-constant")

    def common(p):
        p.add_argument("--family", choices=(*families, "general-file"), required=True)
        p.add_argument("--omega", type=float, default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--input", default=None, help="pair file for family general-file")
        p.add_argument("--n", type=int, default=600)
        p.add_argument("--out", default=None)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of one truncation")
    common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_rho = sub.add_parser("rho", help="spectral radius of the commutator")
    common(p_rho)
    p_rho.set_defaults(func=cmd_rho)

    p_sweep = sub.add_parser("sweep", help="grid sweep over theta")
    p_sweep.add_argument("--family", choices=families, required=True)
    p_sweep.add_argument("--omega", type=float, default=None)
    p_sweep.add_argument("--theta", required=True, help='grid spec "start:step:stop"')
    p_sweep.add_argument("--n", type=int, default=600)
    p_sweep.add_argument("--mode", choices=("spectrum", "rho"), default="rho")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit a preset dataset")
    p_fig.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p_fig.add_argument("--panel", choices=("left", "right"), default="right")
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=cmd_figure)

    p_val = sub.add_parser("validate", help="run the self-check suite")
    p_val.add_argument("--out", default=None)
    p_val.add_argument("--perturb", action="store_true", help="inject a failure (negative control)")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
