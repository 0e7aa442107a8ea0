"""Self-validation checks wired to the CLI `validate` command.

Each check compares an observed quantity against a frozen expectation at a
fixed tolerance and reports a structured record; the CLI serializes them
to JSON and maps any failure to a nonzero exit code.
"""

import math
from dataclasses import dataclass

from . import analysis, forms, lazy_import, theory, tridiag
from .theory import SQRT2

np = lazy_import("numpy")


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: float
    observed: float
    tolerance: float
    passed: bool


def _check(name, expected, observed, tolerance):
    return CheckResult(
        name=name,
        expected=float(expected),
        observed=float(observed),
        tolerance=float(tolerance),
        passed=abs(float(observed) - float(expected)) <= float(tolerance),
    )


def run_checks(perturb=False):
    """Run the full check list; ``perturb`` injects a deliberate failure."""
    checks = []

    pair = forms.paper_example_3x3(0.01)
    spectrum = tridiag.dense_sym_eigenvalues(
        tridiag.DenseSymmetricMatrix(pair.a.entries + pair.b.entries)
    ).values
    err = float(np.max(np.abs(spectrum - np.array([-0.2, 0.2, 2.0]))))
    if perturb:
        err += 1e-3
    checks.append(_check("three-by-three-spectrum", 0.0, err, 1e-12))

    lam0 = theory.select_lambda0(theory.LimitSet(points=tuple(spectrum)))
    checks.append(_check("squared-criterion-selection", 0.2, abs(lam0), 1e-12))

    theta_rational = math.acos(-0.8)
    sols = theory.outlier_solve_eq4(math.pi / 2, theta_rational)
    top = max(sols, key=lambda r: r.lam, default=theory.OutlierSolveResult(math.nan, math.nan))
    checks.append(_check("isolated-point-location", 1.5, top.lam, 1e-10))
    checks.append(_check("isolated-point-decay-root", 0.5, top.q, 1e-10))

    fam = forms.PairFamily.head_omega(math.pi / 2, theta_rational)
    rep = analysis.rho_numeric(fam, 600)
    checks.append(_check("rho-from-isolated-point", math.sqrt(1.5**2 * (4 - 1.5**2)), rep.rho, 5e-4))
    # the band edge 2s of the constant-angle family with s = 0.6
    checks.append(_check("band-edge-rho-value", 1.92, theory.rho_from_lambda(2 * 0.6), 1e-12))

    checks.append(
        _check(
            "outlier-switch-below-half-pi",
            1.0,
            1.0 if theory.wiener_hopf_outlier_check(math.pi / 3, 2.0) else 0.0,
            0.0,
        )
    )
    checks.append(
        _check(
            "outlier-switch-above-half-pi",
            0.0,
            1.0 if theory.wiener_hopf_outlier_check(2 * math.pi / 3, 1.9) else 0.0,
            0.0,
        )
    )

    fam_c = forms.PairFamily.constant(2 * math.pi / 3)
    sample = tridiag.tridiag_eigenvalues(forms.build_sum_truncation(fam_c, 600))
    dist = analysis.hausdorff_distance(sample, theory.constant_angle_limit_set(2 * math.pi / 3))
    checks.append(_check("hausdorff-convergence", 0.0, dist, 0.02))

    fam_two = forms.PairFamily.two_constant(0.3, 2.0)
    special = math.cos(2.0) - math.cos(0.3)
    rep_ex = analysis.rho_numeric(fam_two, 400, exclusion=special)
    checks.append(_check("special-point-exclusion", 2 * abs(math.sin(1.7)), rep_ex.rho, 5e-3))

    best = analysis.tsirelson_suite(20260824, 50)
    checks.append(_check("bell-chsh-upper-bound", 0.0, max(0.0, best - 2 * SQRT2), 1e-9))

    x3 = analysis.solve_lambda_max_crossing()
    checks.append(_check("crossing-abscissa", 2.4352, x3, 1e-3))

    return checks
