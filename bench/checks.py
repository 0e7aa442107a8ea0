"""Checks of oneshift's outputs against computations that do not use oneshift.

Sections of A + B are built here from the block pattern of the two
involutions and solved with ``scipy.linalg.eigvalsh_tridiagonal``; dense
pairs are solved with ``numpy.linalg``; spectral radii of the constant and
two-constant families come from the paper's piecewise closed forms coded
below.  Each check takes the text the CLI wrote and returns a list of
problems, empty when the output is right.
"""

import json
import math

import numpy as np

# Bisection stops at 1e-12 * scale and the CLI prints 15 significant digits;
# the worst error seen against scipy is below 1e-11.
TOL = 1e-9
HALF_PI = math.pi / 2
ANCHOR_THETA = math.acos(-0.8)

# (head angles of A, head angles of B, tail angle of A or None for theta)
HEADS = {
    "constant": lambda omega: ((), (), None),
    "eq3": lambda omega: ((omega,), (), None),
    "eq5": lambda omega: ((1.5, 2.0), (2.5,), None),
    "two-constant": lambda omega: ((), (), omega),
}

# figure preset -> (family, omega, order, rows carry the commutator column)
FIGURES = {
    ("1", "left"): ("eq3", HALF_PI, 10, True),
    ("1", "right"): ("eq3", HALF_PI, 600, True),
    ("2", "left"): ("eq3", HALF_PI, 100, False),
    ("3", None): ("eq5", None, 100, True),
    ("4", "left"): ("two-constant", 0.3, 200, True),
    ("4", "right"): ("two-constant", 2.4, 200, True),
}
FIGURE_THETAS = [0.1 + 0.1 * i for i in range(31)]


def section(family, omega, theta, n):
    """Diagonal and off-diagonal of the top-left n x n corner of A + B.

    A = diag(r(w1), r(w2), ...) and B = diag(1, r(t1), r(t2), ...) with
    r(x) = [[cos x, sin x], [sin x, -cos x]]: block k of A covers rows
    2k, 2k+1 and block k of B rows 2k+1, 2k+2 (0-based k).
    """
    head_w, head_t, tail_w = HEADS[family](omega)
    tail_w = theta if tail_w is None else tail_w
    d = np.zeros(n)
    e = np.zeros(n - 1)

    def add_block(row, x):
        d[row] += math.cos(x)
        if row + 1 < n:
            d[row + 1] -= math.cos(x)
            e[row] += math.sin(x)

    d[0] += 1.0
    for k in range(n // 2):
        add_block(2 * k, head_w[k] if k < len(head_w) else tail_w)
        add_block(2 * k + 1, head_t[k] if k < len(head_t) else theta)
    return d, e


def eigvalsh_tridiagonal(d, e, **kwargs):
    # scipy is imported only once the timed rounds are over, so that it
    # stays out of the workload's peak RSS
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(d, e, **kwargs)


def section_eigenvalues(family, omega, theta, n):
    return eigvalsh_tridiagonal(*section(family, omega, theta, n))


def closed_rho(family, omega, theta):
    """The paper's spectral radius for the constant and two-constant families.

    The constant family is the two-constant one with omega = theta.  The
    value is 2 on a plateau of half-width min(omega, pi - omega) around
    pi/2; outside it, it is 2|sin(theta +- omega)| from the band edge whose
    square is nearer 2.
    """
    if family == "constant":
        omega = theta
    elif family != "two-constant":
        return None
    if abs(theta - HALF_PI) <= min(omega, math.pi - omega):
        return 2.0
    outer = (theta < HALF_PI) == (omega <= HALF_PI)
    return 2.0 * abs(math.sin(theta + omega if outer else theta - omega))


def band_rho(theta):
    """Spectral radius from the essential band [-2 sin theta, 2 sin theta] alone."""
    return closed_rho("constant", None, theta)


def verdict(check, text):
    """The problems ``check`` finds in ``text``; output it cannot parse is one."""
    try:
        return check(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]


def _rows(text, header, count, problems):
    """The ``count`` data rows of a CSV output, or none after a problem."""
    if text is None:
        problems.append("no output")
        return []
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header:
        problems.append(f"bad header or ending: {lines[0]!r}")
        return []
    if len(lines) - 2 != count:
        problems.append(f"{len(lines) - 2} rows, expected {count}")
        return []
    return [ln.split(",") for ln in lines[1:-1]]


def _close(name, got, want, problems, tol=TOL):
    if not abs(got - want) <= tol:
        problems.append(f"{name}: {got!r} != {want!r}")


def check_spectrum(text, family, omega, theta, n):
    problems = []
    rows = _rows(text, "index,eigenvalue", n, problems)
    ref = section_eigenvalues(family, omega, theta, n)
    for i, row in enumerate(rows):
        if int(row[0]) != i:
            problems.append(f"row {i} has index {row[0]}")
        _close(f"eigenvalue {i}", float(row[1]), ref[i], problems)
    return problems


def _check_rho_value(rho, family, omega, theta, problems):
    if not 0.0 <= rho <= 2.0:
        problems.append(f"rho {rho} outside [0, 2]")
    closed = closed_rho(family, omega, theta)
    if closed is not None:
        _close("rho against the closed form", rho, closed, problems)
    elif rho < band_rho(theta) - TOL:
        problems.append(f"rho {rho} below the band value {band_rho(theta)}")
    return closed


def check_rho(text, family, omega, theta, lambda0=None):
    """A ``rho`` report; ``lambda0`` pins the selected point when given."""
    if text is None:
        return ["no output"]
    problems = []
    report = json.loads(text)
    rho, lam = float(report["rho_high"]), float(report["lambda0"])
    if float(report["rho_low"]) != rho:
        problems.append("rho_low != rho_high")
    _close("rho^2 against lambda0^2 (4 - lambda0^2)", rho * rho, lam * lam * (4.0 - lam * lam), problems)
    closed = _check_rho_value(rho, family, omega, theta, problems)
    if closed is None:
        if "rho_closed" in report:
            problems.append("rho_closed reported for a family without a closed form")
    else:
        _close("rho_closed", float(report["rho_closed"]), closed, problems)
    if lambda0 is not None:
        _close("lambda0", lam, lambda0, problems)
    return problems


def check_sweep(text, family, omega, thetas, n):
    problems = []
    rows = _rows(text, "theta,lambda_max,rho_numeric,rho_closed", len(thetas), problems)
    for row, theta in zip(rows, thetas):
        _close("theta", float(row[0]), theta, problems)
        d, e = section(family, omega, theta, n)
        top = eigvalsh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))[0]
        _close(f"lambda_max at theta={theta}", float(row[1]), top, problems)
        closed = _check_rho_value(float(row[2]), family, omega, theta, problems)
        if (row[3] == "") != (closed is None) or (closed is not None and not abs(float(row[3]) - closed) <= TOL):
            problems.append(f"rho_closed {row[3]!r} at theta={theta}")
    return problems


def check_figure(text, number, panel):
    family, omega, n, commutator = FIGURES[(number, panel)]
    problems = []
    if not commutator:
        rows = _rows(text, "theta,lambda_max", len(FIGURE_THETAS), problems)
        for row, theta in zip(rows, FIGURE_THETAS):
            _close("theta", float(row[0]), theta, problems)
            _close(f"lambda_max at theta={theta}", float(row[1]), section_eigenvalues(family, omega, theta, n)[-1], problems)
        return problems
    rows = _rows(text, "theta,index,eigenvalue,i_commutator_eig", n * len(FIGURE_THETAS), problems)
    for k, theta in enumerate(FIGURE_THETAS):
        ref = section_eigenvalues(family, omega, theta, n)
        for i, row in enumerate(rows[k * n : (k + 1) * n]):
            _close("theta", float(row[0]), theta, problems)
            if int(row[1]) != i:
                problems.append(f"theta={theta} row {i} has index {row[1]}")
            lam, mu = float(row[2]), float(row[3])
            _close(f"eigenvalue {i} at theta={theta}", lam, ref[i], problems)
            if mu < 0.0:
                problems.append(f"negative commutator modulus at theta={theta}, row {i}")
            _close(f"commutator modulus^2 at theta={theta}, row {i}", mu * mu, lam * lam * (4.0 - lam * lam), problems)
    return problems


def check_general_spectrum(text, a, b):
    problems = []
    ref = np.linalg.eigvalsh(a + b)
    for i, row in enumerate(_rows(text, "index,eigenvalue", ref.size, problems)):
        if int(row[0]) != i:
            problems.append(f"row {i} has index {row[0]}")
        _close(f"eigenvalue {i}", float(row[1]), ref[i], problems)
    return problems


def check_general_rho(text, a, b):
    """rho against the largest |eigenvalue| of AB - BA, compared as squares
    so that a tiny rho, whose square root amplifies rounding, is judged fairly."""
    if text is None:
        return ["no output"]
    problems = []
    report = json.loads(text)
    rho = float(report["rho_high"])
    if float(report["rho_low"]) != rho or report["branch"] != "direct-commutator":
        problems.append(f"unexpected report {report}")
    ref = float(np.max(np.abs(np.linalg.eigvals(a @ b - b @ a))))
    _close("rho^2 against max |eig(AB - BA)|^2", rho * rho, ref * ref, problems)
    return problems


def check_validate(text):
    if text is None:
        return ["no output"]
    report = json.loads(text)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    if failed or report["all_pass"] is not True:
        return [f"validate failed: {failed}"]
    return []
