import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import charpoly_tridiag_eigs, detscan_dense_eigs
from oneshift.tridiag import (
    DenseSymmetricMatrix,
    TridiagonalSymmetricMatrix,
    _reflect,
    _reflect_lockstep,
    dense_sym_eigenvalues,
    householder_stack,
    sturm_count,
    tridiag_eigenvalues,
)


def tri(diag, off):
    return TridiagonalSymmetricMatrix(diag=np.array(diag, float), offdiag=np.array(off, float))


class TestSturmCount:
    def test_diagonal_matrix(self):
        m = tri([2.0, 0.0, 0.0], [0.0, 0.0])
        assert sturm_count(m, 1.0) == 2
        assert sturm_count(m, -1.0) == 0

    def test_exact_hit_counts_strictly_below(self):
        # eigenvalues are -sqrt(2), 0, sqrt(2); exactly one lies below 0
        m = tri([0.0, 0.0, 0.0], [1.0, 1.0])
        assert sturm_count(m, 0.0) == 1

    def test_monotone_and_saturating(self):
        rng = np.random.default_rng(7)
        m = tri(rng.normal(size=9), rng.normal(size=8))
        lo, hi = m.gershgorin()
        xs = np.linspace(lo - 0.5, hi + 0.5, 40)
        counts = [sturm_count(m, x) for x in xs]
        assert counts == sorted(counts)
        assert counts[0] == 0
        assert counts[-1] == m.n

    def test_rejects_nonfinite_shift(self):
        m = tri([1.0], [])
        with pytest.raises(ValueError):
            sturm_count(m, math.nan)


class TestTridiagEigenvalues:
    def test_diagonal(self):
        s = tridiag_eigenvalues(tri([2.0, 0.0, 0.0], [0.0, 0.0]))
        assert np.allclose(s.values, [0.0, 0.0, 2.0], atol=1e-12)

    def test_cubic(self):
        s = tridiag_eigenvalues(tri([0.0, 0.0, 0.0], [1.0, 1.0]), tol=1e-13)
        r2 = math.sqrt(2.0)
        assert np.allclose(s.values, [-r2, 0.0, r2], atol=1e-12)

    def test_paper_style_3x3(self):
        off = 2.0 * math.sqrt(0.01 * 0.99)
        s = tridiag_eigenvalues(tri([2.0, 0.02, -0.02], [0.0, off]))
        assert np.allclose(s.values, [-0.2, 0.2, 2.0], atol=1e-12)

    def test_trace_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 30)
            m = tri(rng.normal(size=n), rng.normal(size=n - 1))
            tol = 1e-12 * max(1.0, max(abs(b) for b in m.gershgorin()))
            s = tridiag_eigenvalues(m)
            assert abs(np.sum(s.values) - np.sum(m.diag)) <= n * max(tol, 1e-10)

    def test_charpoly_oracle_small_orders(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = tri(rng.normal(size=n), rng.normal(size=max(0, n - 1)))
            got = tridiag_eigenvalues(m).values
            want = charpoly_tridiag_eigs(m.diag, m.offdiag)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_repeated_calls_are_bitwise_identical(self):
        rng = np.random.default_rng(5)
        m = tri(rng.normal(size=40), rng.normal(size=39))
        a = tridiag_eigenvalues(m).values
        b = tridiag_eigenvalues(m).values
        assert np.array_equal(a, b)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            tridiag_eigenvalues(tri([1.0], []), tol=0.0)


class TestDenseEigenvalues:
    def test_identity(self):
        s = dense_sym_eigenvalues(DenseSymmetricMatrix(np.eye(4)))
        assert np.allclose(s.values, np.ones(4), atol=1e-12)

    def test_diagonal(self):
        d = np.array([3.0, -1.0, 0.5, 2.0])
        s = dense_sym_eigenvalues(DenseSymmetricMatrix(np.diag(d)))
        assert np.allclose(s.values, np.sort(d), atol=1e-12)
        # a 1x1 matrix has lo == hi, so bisection takes no step and returns
        # its entry, signed zero, subnormal and large values included
        for entry in (-0.0, 5e-324, 1e150):
            s = dense_sym_eigenvalues(DenseSymmetricMatrix(np.array([[entry]])))
            assert s.values.tobytes() == np.array([entry]).tobytes()

    def test_random_6x6_against_det_scan(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(6, 6))
        a = 0.5 * (a + a.T)
        got = dense_sym_eigenvalues(DenseSymmetricMatrix(a)).values
        want = detscan_dense_eigs(a)
        assert np.max(np.abs(got - want)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 16), exponent=st.floats(-300.0, 150.0), data=st.data())
    def test_householder_path_against_eigvalsh(self, n, exponent, data):
        unit = st.floats(-1.0, 1.0)
        a = 10.0**exponent * np.array(data.draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
        m = DenseSymmetricMatrix(a)
        got = dense_sym_eigenvalues(m).values
        want = np.linalg.eigvalsh(m.entries)
        norm = float(np.max(np.abs(want)))
        # bisection stops within tol / 2 of an eigenvalue of the reduced
        # matrix T, where tol = 1e-12 * max(1, |lo|, |hi|) and the Gershgorin
        # bounds of a tridiagonal T lie within 3 ||T||_2 = 3 ||A||_2; the
        # reduction and the Sturm counts add rounding of order n eps ||A||_2
        bound = 1.5e-12 * max(1.0, norm) + 8 * n * np.finfo(float).eps * norm
        assert np.max(np.abs(got - want)) <= bound

    def test_householder_preserves_trace_and_norm(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8))
        a = 0.5 * (a + a.T)
        d, e = householder_stack(a[None])
        assert abs(np.sum(d) - np.trace(a)) <= 1e-10
        frob_t = np.sum(d**2) + 2 * np.sum(e**2)
        assert abs(frob_t - np.sum(a**2)) <= 1e-9


@st.composite
def reduction_stacks(draw):
    """Stacks of 1-8 symmetric matrices of one order 1-16.  Some lanes
    take the reduction's zero-norm skip, through zero columns or entries
    whose squares underflow at 1e-170, and others do not; some have -0.0
    leading entries in every column."""
    n = draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lanes = []
    for _ in range(draw(st.integers(1, 8))):
        a = gen.standard_normal((n, n))
        kind = draw(st.sampled_from(["dense", "zero column", "diagonal", "negative zero lead"]))
        if kind == "zero column":
            j = draw(st.integers(0, n - 1))
            a[j, :] = a[:, j] = 0.0
        elif kind == "diagonal":
            a = np.diag(np.diag(a))
        elif kind == "negative zero lead":
            i = np.arange(n - 1)
            a[i + 1, i] = a[i, i + 1] = -0.0
        lanes.append(draw(st.sampled_from([1.0, 1e-3, 1e4, 1e-160, 1e-170])) * a)
    stack = np.array(lanes)
    return 0.5 * (stack + stack.transpose(0, 2, 1))


class TestLockstepReduction:
    @settings(max_examples=100, deadline=None)
    @given(stack=reduction_stacks())
    def test_lockstep_reduction_equals_loop_bitwise(self, stack):
        # every entry, the skipped columns' included; lanes left out of a
        # step divide by nothing, and a RuntimeWarning would fail the test
        lockstep = stack.copy()
        _reflect_lockstep(lockstep)
        for lane, m in zip(lockstep, stack):
            loop = m.copy()
            _reflect(loop)
            assert lane.tobytes() == loop.tobytes()
        d, e = householder_stack(stack)
        for k, m in enumerate(stack):
            d1, e1 = householder_stack(m[None])
            assert d[k].tobytes() == d1[0].tobytes() and e[k].tobytes() == e1[0].tobytes()


class TestTypes:
    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError):
            tri([math.nan], [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            tri([1.0, 2.0], [0.5, 0.5])

    def test_dense_is_symmetrized(self):
        m = DenseSymmetricMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert m.entries[0, 1] == m.entries[1, 0] == 1.0

    def test_rejects_entries_whose_gershgorin_bounds_overflow(self):
        with pytest.raises(ValueError, match="too large"):
            tri([1e308, -1e308], [1e308])

    def test_dense_rejects_entries_whose_sums_overflow(self):
        with pytest.raises(ValueError, match="too large"):
            DenseSymmetricMatrix(np.full((2, 2), 1e308))
