"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced; tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from conftest import charpoly_tridiag_eigs
from oneshift import analysis, forms, theory, tridiag

SQRT2 = math.sqrt(2.0)
RATIONAL_THETA = math.acos(-0.8)


def report(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def sum_spectrum_3x3(x):
    p = forms.paper_example_3x3(x)
    m = tridiag.DenseSymmetricMatrix(p.a.entries + p.b.entries)
    return tridiag.dense_sym_eigenvalues(m).values


def test_criterion_1_counterexample_spectrum_and_selection():
    sum_spectrum_3x3(0.01)  # warm the kernels before timing
    t0 = time.perf_counter()
    values = sum_spectrum_3x3(0.01)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(values - np.array([-0.2, 0.2, 2.0]))))
    lam0 = theory.select_lambda0(theory.LimitSet(points=tuple(values)))
    ok = err <= 1e-12 and abs(abs(lam0) - 0.2) <= 1e-12 and lam0 != 2.0 and elapsed < 1e-3
    report(1, f"3x3 spectrum err={err:.2e}, lambda0={lam0:.3f}, t={elapsed * 1e3:.3f}ms", ok)


def test_criterion_2_outlier_anchor():
    sols = theory.outlier_solve_eq4(math.pi / 2, RATIONAL_THETA)
    lams = sorted(r.lam for r in sols)
    q = max(sols, key=lambda r: r.lam).q
    ok_sol = len(lams) == 2 and abs(lams[0] + 1.5) <= 1e-10 and abs(lams[1] - 1.5) <= 1e-10
    ok_q = abs(q - 0.5) <= 1e-10
    rep = analysis.rho_numeric(forms.PairFamily.head_omega(math.pi / 2, RATIONAL_THETA), 600)
    ok_rho = abs(rep.rho - math.sqrt(1.5**2 * (4 - 1.5**2))) <= 5e-4
    s = 0.6
    edge = math.sqrt(4 * s * s * (4 - 4 * s * s))
    ok_edge = abs(edge - 1.92) <= 1e-12
    report(
        2,
        f"outliers={lams}, q={q:.12f}, rho={rep.rho:.6f}, edge={edge:.6f}",
        ok_sol and ok_q and ok_rho and ok_edge,
    )


def test_criterion_3_constant_angle_piecewise_theorem():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(1, 32):
        theta = round(0.1 * i, 10)
        rep = analysis.rho_numeric(forms.PairFamily.constant(theta), 2000)
        worst = max(worst, abs(rep.rho - theory.rho_constant_angle(theta).rho))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    report(3, f"grid worst err={worst:.2e}, t={elapsed:.1f}s", ok)


def test_criterion_4_outlier_existence_switch():
    ok_wh = theory.wiener_hopf_outlier_check(math.pi / 3, 2.0) and not theory.wiener_hopf_outlier_check(
        2 * math.pi / 3, 1.9
    )

    def exterior(theta):
        f = forms.PairFamily.constant(theta)
        ess = theory.constant_angle_limit_set(theta)
        band = theory.LimitSet(intervals=ess.intervals)
        s1 = tridiag.tridiag_eigenvalues(forms.build_sum_truncation(f, 600))
        s2 = tridiag.tridiag_eigenvalues(forms.build_sum_truncation(f, 800))
        return analysis.detect_outliers(s1, band, 0.02, s2)

    low = exterior(math.pi / 3)
    high = exterior(2 * math.pi / 3)
    ok_fs = len(low) == 1 and abs(low[0] - 2.0) <= 1e-6 and high == []
    report(4, f"analytic switch={ok_wh}, sections: below={low}, above={high}", ok_wh and ok_fs)


def test_criterion_5_two_angle_exclusion():
    f = forms.PairFamily.two_constant(0.3, 2.0)
    special = math.cos(2.0) - math.cos(0.3)
    raw = tridiag.tridiag_eigenvalues(forms.build_sum_truncation(f, 400)).values
    near = float(np.min(np.abs(raw - special)))
    closed = 2 * abs(math.sin(1.7))
    with_excl = analysis.rho_numeric(f, 400, exclusion=special).rho
    without = analysis.rho_numeric(f, 400).rho
    ok = near <= 1e-3 and abs(with_excl - closed) <= 5e-3 and abs(without - closed) > 1e-2
    report(
        5,
        f"cluster dist={near:.1e}, excluded err={abs(with_excl - closed):.1e}, "
        f"naive err={abs(without - closed):.1e}",
        ok,
    )


def test_criterion_6_crossing_abscissa():
    x3 = analysis.solve_lambda_max_crossing()
    ok = abs(x3 - 2.4352) <= 1e-3
    report(6, f"crossing abscissa={x3:.6f}", ok)


def test_criterion_7_tsirelson_suite():
    t0 = time.perf_counter()
    best = analysis.tsirelson_suite(20260824, 500)
    maximizer = forms.GeneralPair(
        a=tridiag.DenseSymmetricMatrix(forms.rotation_block(math.pi / 4)),
        b=tridiag.DenseSymmetricMatrix(forms.rotation_block(3 * math.pi / 4)),
    )
    r = analysis.rho_commutator_direct(maximizer)
    attained = theory.bell_chsh_rho(min(2.0, r), min(2.0, r))
    elapsed = time.perf_counter() - t0
    bound = 2 * SQRT2
    ok = best <= bound + 1e-9 and abs(attained - bound) <= 1e-9 and elapsed < 30.0
    report(7, f"max over 500 trials={best:.9f}, attained={attained:.12f}, t={elapsed:.1f}s", ok)


def test_criterion_8_hausdorff_convergence():
    theta = 2 * math.pi / 3
    f = forms.PairFamily.constant(theta)
    limit = theory.constant_angle_limit_set(theta)
    d60, d600 = (
        analysis.hausdorff_distance(
            tridiag.tridiag_eigenvalues(forms.build_sum_truncation(f, n)), limit
        )
        for n in (60, 600)
    )
    ok = d600 <= 0.02 and d600 < d60
    report(8, f"hausdorff d(60)={d60:.4f}, d(600)={d600:.4f}", ok)


def test_criterion_9_eigensolver_oracle_suite():
    rng = np.random.default_rng(20260824)
    worst = 0.0
    worst_trace = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = tridiag.TridiagonalSymmetricMatrix(
            diag=rng.normal(size=n), offdiag=rng.normal(size=max(0, n - 1))
        )
        tol = tridiag.default_tol(m)
        got = tridiag.tridiag_eigenvalues(m, tol=tol).values
        want = charpoly_tridiag_eigs(m.diag, m.offdiag)
        worst = max(worst, float(np.max(np.abs(got - want))))
        worst_trace = max(
            worst_trace, abs(float(np.sum(got) - np.sum(m.diag))) / (n * max(tol, 1e-300))
        )
    ok = worst <= 1e-10 and worst_trace <= 1.0
    report(9, f"oracle worst err={worst:.2e}, trace worst={worst_trace:.2f}x n*tol", ok)
