"""Fast paths of the eigensolver pinned bitwise to the slow paths they replace.

A solve restricted to some indices must give exactly the values the full
solve gives there; the plain-Python bisection must match the vectorized
numpy one; the jitted twin, where numba is installed, must match both; and
``rho_numeric``, which bisects only exterior eigenvalues, must match the
full-spectrum pipeline ``tridiag_eigenvalues`` + ``detect_outliers``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneshift import _kernels
from oneshift.analysis import OUTLIER_MARGIN, OUTLIER_ORDER_STEP, detect_outliers, family_params, rho_numeric
from oneshift.forms import PairFamily, build_sum_truncation
from oneshift.theory import LimitSet, RhoReport, rho_from_lambda, select_lambda0, two_angle_essential
from oneshift.tridiag import TridiagonalSymmetricMatrix, tridiag_eigenvalues, tridiag_eigenvalues_at

entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.05, math.pi - 0.05)


@st.composite
def tridiagonals(draw, max_n=90):
    # orders above PY_MAX_INDICES send the full solve down the numpy path
    n = draw(st.integers(1, max_n))
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return TridiagonalSymmetricMatrix(diag=np.array(diag), offdiag=np.array(off))


def kernel_args(m):
    """(diag, off2, lo, hi, steps, tiny) exactly as ``bisect_eigenvalues`` builds them."""
    lo, hi = m.gershgorin()
    scale = max(1.0, abs(lo), abs(hi))
    steps = _kernels.halvings(lo, hi, 1e-12 * scale)
    return m.diag, m.offdiag**2, lo, hi, steps, _kernels._EPS * scale


def index_subsets(n):
    return st.lists(st.integers(0, n - 1), unique=True).map(lambda v: np.array(sorted(v), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(m=tridiagonals(), data=st.data())
def test_sliced_solve_equals_full_solve_bitwise(m, data):
    idx = data.draw(index_subsets(m.n))
    full = tridiag_eigenvalues_at(m, np.arange(m.n))
    assert np.all(np.diff(full) >= 0.0)
    assert tridiag_eigenvalues_at(m, idx).tobytes() == full[idx].tobytes()


# a subnormal first pivot at the shift 0 overflows the next quotient to -inf
TINY_PIVOT = TridiagonalSymmetricMatrix(diag=np.array([1e-310, 0.0]), offdiag=np.array([1.0]))


@settings(max_examples=60, deadline=None)
@given(case=tridiagonals(max_n=40).flatmap(lambda m: st.tuples(st.just(m), index_subsets(m.n))))
@example(case=(TINY_PIVOT, np.arange(2)))
def test_python_loop_equals_numpy_loop_bitwise(case):
    m, idx = case
    diag, off2, lo, hi, steps, tiny = kernel_args(m)
    py = _kernels._bisect_py(diag, off2, lo, hi, steps, tiny, idx)
    vec = _kernels._bisect_np(diag, off2, lo, hi, steps, tiny, idx)
    assert py.tobytes() == vec.tobytes()
    shifts = np.linspace(lo - 1.0, hi + 1.0, 9)
    rows = _kernels._rows(diag, off2)
    scalar = [_kernels._sturm_count_py(*rows, float(x), tiny) for x in shifts]
    assert scalar == _kernels._sturm_counts_np(diag, off2, shifts, tiny).tolist()


def test_sliced_solve_rejects_bad_index():
    m = TridiagonalSymmetricMatrix(diag=np.zeros(3), offdiag=np.ones(2))
    with pytest.raises(ValueError):
        tridiag_eigenvalues_at(m, [3])


def make_family(name, omega, theta):
    if name == "constant":
        return PairFamily.constant(theta)
    if name == "head_omega":
        return PairFamily.head_omega(omega, theta)
    if name == "perturbed_heads":
        return PairFamily.perturbed_heads(theta)
    return PairFamily.two_constant(omega, theta)


def full_solve_rho(f, n, exclusion, margin):
    """The estimator as a full-spectrum pipeline: every eigenvalue of both sections."""
    ess = two_angle_essential(family_params(f))
    s1 = tridiag_eigenvalues(build_sum_truncation(f, n))
    s2 = tridiag_eigenvalues(build_sum_truncation(f, n + OUTLIER_ORDER_STEP))
    lam = LimitSet(intervals=ess.intervals, points=tuple(detect_outliers(s1, ess, margin, s2)))
    if exclusion is not None:
        lam = lam.without_point(exclusion, 1e-6)
    lam0 = select_lambda0(lam)
    rho = rho_from_lambda(lam0)
    return RhoReport(rho, rho, lam0, "finite-section")


def outcome(fn, *args):
    try:
        r = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return (r.rho_low.hex(), r.rho_high.hex(), float(r.lambda0).hex(), r.branch)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["constant", "head_omega", "perturbed_heads", "two_constant"]),
    omega=angles,
    theta=angles,
    half_n=st.integers(2, 40),
    excluded=st.booleans(),
    margin=st.sampled_from([0.005, OUTLIER_MARGIN, 0.1]),
)
@example("constant", 0.5, 0.5, 30, False, OUTLIER_MARGIN)
@example("head_omega", math.pi / 2, math.acos(-0.8), 40, False, OUTLIER_MARGIN)
@example("two_constant", 0.3, 2.0, 40, True, OUTLIER_MARGIN)
@example("two_constant", 0.3, 2.0, 40, False, OUTLIER_MARGIN)
def test_rho_numeric_equals_full_solve_pipeline_bitwise(name, omega, theta, half_n, excluded, margin):
    f = make_family(name, omega, theta)
    n = 2 * half_n
    exclusion = math.cos(f.theta.tail) - math.cos(f.omega.tail) if excluded else None
    assert outcome(rho_numeric, f, n, exclusion, margin) == outcome(full_solve_rho, f, n, exclusion, margin)


def test_numba_twin_equals_numpy_path_bitwise():
    pytest.importorskip("numba")
    rng = np.random.default_rng(20260824)
    mats = [build_sum_truncation(PairFamily.head_omega(math.pi / 2, math.acos(-0.8)), 300)]
    for n in (1, 2, 7, 40, 100):
        mats.append(TridiagonalSymmetricMatrix(diag=rng.normal(size=n), offdiag=rng.normal(size=n - 1)))
    for m in mats:
        diag, off2, lo, hi, steps, tiny = kernel_args(m)
        subset = np.unique(rng.integers(0, m.n, size=min(m.n, 5)))
        for idx in (np.arange(m.n), subset):
            jit = _kernels._bisect_jit(diag, off2, lo, hi, steps, tiny, idx)
            py = _kernels._bisect_py(diag, off2, lo, hi, steps, tiny, idx)
            vec = _kernels._bisect_np(diag, off2, lo, hi, steps, tiny, idx)
            assert jit.tobytes() == py.tobytes() == vec.tobytes()
        for x in np.linspace(lo - 1.0, hi + 1.0, 7):
            count = _kernels._sturm_count_py(*_kernels._rows(diag, off2), float(x), tiny)
            assert _kernels._sturm_count_jit(diag, off2, float(x), tiny) == count
