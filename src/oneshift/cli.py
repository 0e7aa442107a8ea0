"""Command-line surface: spectra, spectral radii, sweeps, and validation.

Outputs are deterministic: floats are printed at 15 significant digits,
lines end with "\n", and identical inputs give byte-identical files.
"""

import functools
import math
import sys
import types

from . import analysis, forms, lazy_import, theory, tridiag, validate

json = lazy_import("json")
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
# The order of an angle family's sections when --n is not given.
DEFAULT_ORDER = 600
# `sweep` solves all its sections in one batch, whose lockstep arrays hold
# only each section's head and first tail period, but a `--mode spectrum`
# sweep keeps its output text and values, about 55 bytes per section row
# (tracemalloc, 291 eq3 points at order 1,000; `--mode rho` took 0.3 bytes
# a row at order 4,000), so points * order is bounded too: this many rows
# of spectrum output take about 550 MB.
MAX_SWEEP_ROWS = 10_000_000
# The families that read each angle, order or pair-file flag, and the rest
# of the one-line error of a family given a flag it does not read.
FLAG_READERS = {
    "input": (("general-file",), "only family general-file does"),
    "omega": (("eq3", "two-constant"), "only families eq3 and two-constant do"),
    "theta": (("constant", "eq3", "eq5", "two-constant"), "only the angle families do"),
    "n": (("constant", "eq3", "eq5", "two-constant"), "only the angle families do"),
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
    """Reject an ``--input``, ``--omega``, ``--theta`` or ``--n`` that the request's family does not read."""
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
    """Write ``text`` to the file ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "wb") as fh:
        fh.write(text.encode())


def json_strings(fields):
    """``json.dumps(dict(fields), indent=2) + "\n"`` for (key, value) string
    pairs that JSON writes unescaped, such as ``fmt`` values and branch names."""
    return "{\n" + ",\n".join(f'  "{key}": "{value}"' for key, value in fields) + "\n}\n"


def cmd_spectrum(args):
    check_flags(args)
    if args.family == "general-file":
        pair = read_pair_file(args.input)
        values = tridiag.dense_sym_eigenvalues(
            tridiag.DenseSymmetricMatrix(pair.a.entries + pair.b.entries)
        ).values
    else:
        fam = build_family(args.family, args.omega, args.theta)
        n = even_order(DEFAULT_ORDER if args.n is None else args.n)
        values = analysis.family_eigenvalues_at([fam], n, np.arange(n))[0]
    lines = ["index,eigenvalue"]
    lines += [f"{i},{v:.15g}" for i, v in enumerate(values.tolist())]
    write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_rho(args):
    check_flags(args)
    if args.family == "general-file":
        rho = analysis.rho_commutator_direct(read_pair_file(args.input))
        fields = [("rho_low", fmt(rho)), ("rho_high", fmt(rho)), ("branch", "direct-commutator")]
    else:
        fam = build_family(args.family, args.omega, args.theta)
        closed, exclusion = closed_forms(fam)
        n = even_order(DEFAULT_ORDER if args.n is None else args.n)
        rep = analysis.rho_numeric(fam, n, exclusion=exclusion)
        fields = [
            ("rho_low", fmt(rep.rho)),
            ("rho_high", fmt(rep.rho)),
            ("lambda0", fmt(rep.lambda0)),
            ("branch", rep.branch),
        ]
        if closed is not None:
            fields.append(("rho_closed", fmt(closed)))
    write_text(args.out, json_strings(fields))
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
    """Largest eigenvalue of the order-n section of each family, solved in one batch."""
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
        for theta, fam in zip(thetas, fams):
            closed, exclusion = closed_forms(fam)
            rep, (lam,) = analysis.rho_numeric_at(fam, n, exclusion, [n - 1])
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


# The command line, the one table that both the direct parse and argparse
# read: each command's handler, help text and arguments, in the order of the
# usage text, each name mapped to its keywords of ``add_argument``.  A name
# without "--" is a positional argument.
_ANGLE_FAMILIES = ("constant", "eq3", "eq5", "two-constant")
_ONE_SECTION = {
    "--family": {"choices": (*_ANGLE_FAMILIES, "general-file"), "required": True},
    "--omega": {"type": float},
    "--theta": {"type": float},
    "--input": {"help": "pair file for family general-file"},
    "--n": {"type": int},
    "--out": {},
}
COMMANDS = {
    "spectrum": (cmd_spectrum, "eigenvalues of one truncation", _ONE_SECTION),
    "rho": (cmd_rho, "spectral radius of the commutator", _ONE_SECTION),
    "sweep": (
        cmd_sweep,
        "grid sweep over theta",
        {
            "--family": {"choices": _ANGLE_FAMILIES, "required": True},
            "--omega": {"type": float},
            "--theta": {"required": True, "help": 'grid spec "start:step:stop"'},
            "--n": {"type": int, "default": DEFAULT_ORDER},
            "--mode": {"choices": ("spectrum", "rho"), "default": "rho"},
            "--out": {},
        },
    ),
    "figure": (
        cmd_figure,
        "emit a preset dataset",
        {
            "number": {"type": int, "choices": (1, 2, 3, 4)},
            "--panel": {"choices": ("left", "right"), "default": "right"},
            "--out": {},
        },
    ),
    "validate": (
        cmd_validate,
        "run the self-check suite",
        {
            "--out": {},
            "--perturb": {"action": "store_true", "default": False, "help": "inject a failure (negative control)"},
        },
    ),
}


@functools.cache
def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="oneshift",
        description="Spectral radii of commutators of involution pairs in one-shifted form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
        p.set_defaults(func=func)
    return parser


def parse_plain(argv):
    """The namespace ``build_parser().parse_args(argv)`` builds, for an argv
    of the plain form ``COMMAND [--flag value]...``; None for any other.

    Positional arguments may stand between the flags.  Each flag is spelled
    in full, with a value that does not start with "-", converts and is
    among its choices; a repeated flag keeps its last value, as in argparse.
    No required argument may be missing.  Anything else (an abbreviation,
    ``--flag=value``, a value such as -1 or -inf, an unknown flag, a bad
    value, -h) is left to argparse, whose meaning, messages and exit codes
    this never changes.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, arguments = COMMANDS[argv[0]]
    positionals = (name for name in arguments if not name.startswith("--"))
    given = {}
    words = iter(argv[1:])
    for word in words:
        flag = word.startswith("--")
        name = word if flag else next(positionals, None)
        keywords = arguments.get(name)
        if keywords is None:
            return None
        if keywords.get("action") == "store_true":
            given[name] = True
            continue
        if flag:
            word = next(words, "-")  # a flag's value; a missing one fails below
        if word.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(word)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[name] = value
    values = {"command": argv[0]}
    for name, keywords in arguments.items():
        if name not in given and (keywords.get("required") or not name.startswith("--")):
            return None
        values[name.lstrip("-")] = given.get(name, keywords.get("default"))
    return types.SimpleNamespace(**values, func=func)


def main(argv=None):
    """Serve one request: parse ``argv`` (default ``sys.argv[1:]``), run its
    command and return the exit code.

    An argv of the plain form ``COMMAND [--flag value]...`` is parsed
    directly (``parse_plain``), without importing argparse.  Every other
    spelling, such as an abbreviated flag or ``--flag=value``, goes to
    argparse unchanged, with the same meaning and the same help, error text
    and exit codes.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
