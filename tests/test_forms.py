import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commutator
from oneshift.forms import (
    AngleSpec,
    GeneralPair,
    PairFamily,
    build_dense_pair,
    build_pair_stacks,
    build_sum_truncation,
    check_involutions,
    involution_error,
    paper_example_3x3,
    rotation_block,
    sum_entries,
)
from oneshift.tridiag import DenseSymmetricMatrix, tridiag_eigenvalues


def dense_corner(f, n):
    """Reference n x n corner of A + B built from explicit block matrices."""
    big = n + 2
    half = big // 2
    a = np.zeros((big, big))
    for k in range(half):
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rotation_block(f.omega.angle(k + 1))
    b = np.zeros((big, big))
    b[0, 0] = 1.0
    for k in range(half - 1):
        b[2 * k + 1 : 2 * k + 3, 2 * k + 1 : 2 * k + 3] = rotation_block(f.theta.angle(k + 1))
    return (a + b)[:n, :n]


class TestRotationBlock:
    def test_half_pi(self):
        assert np.allclose(rotation_block(math.pi / 2), [[0, 1], [1, 0]], atol=1e-15)

    def test_involution(self):
        r = rotation_block(0.7)
        assert np.allclose(r @ r, np.eye(2), atol=1e-15)
        assert abs(np.linalg.det(r) + 1.0) < 1e-15


class TestSumTruncation:
    def test_matches_dense_blocks(self):
        f = PairFamily(AngleSpec((0.4, 1.1), 2.3), AngleSpec((0.9,), 2.3))
        for n in (2, 4, 8, 12):
            m = build_sum_truncation(f, n)
            dense = np.diag(m.diag) + np.diag(m.offdiag, 1) + np.diag(m.offdiag, -1)
            assert np.allclose(dense, dense_corner(f, n), atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True), min_size=2, max_size=7),
        st.integers(0, 3),
        st.integers(1, 60),
    )
    def test_tiled_period_equals_the_entries_built_in_full(self, angles, heads, half_n):
        # the matrix repeats the last period of its short entries; built
        # entry by entry at the full order, the bits are the same
        f = PairFamily(AngleSpec(angles[2 : 2 + heads], angles[0]), AngleSpec(angles[2 + heads :][:heads], angles[1]))
        m = build_sum_truncation(f, 2 * half_n)
        diag, off = sum_entries(f, 2 * half_n)
        assert repr((m.diag.tolist(), m.offdiag.tolist())) == repr((diag, off))

    def test_nesting(self):
        f = PairFamily.head_omega(1.2, 0.7)
        small = build_sum_truncation(f, 6)
        large = build_sum_truncation(f, 8)
        assert np.array_equal(small.diag, large.diag[:6])
        assert np.array_equal(small.offdiag, large.offdiag[:5])

    def test_constant_is_toeplitz_plus_corner(self):
        theta = 1.1
        m = build_sum_truncation(PairFamily.constant(theta), 10)
        c, s = math.cos(theta), math.sin(theta)
        assert abs(m.diag[0] - (1.0 + c)) < 1e-15
        assert np.allclose(m.diag[1:], 0.0, atol=1e-15)
        assert np.allclose(m.offdiag, s, atol=1e-15)

    def test_two_constant_corner_entry(self):
        # leading entry is 1 + cos(omega); with cos(theta) = 2x - 1 analogues
        x = 0.01
        theta = math.acos(2 * x - 1)
        m = build_sum_truncation(PairFamily.constant(theta), 4)
        assert abs(m.diag[0] - 0.02) < 1e-15

    def test_rejects_odd_order(self):
        with pytest.raises(ValueError):
            build_sum_truncation(PairFamily.constant(1.0), 5)

    def test_degenerate_limit_spectrum(self):
        # hard-coded check: diag(2, 0, ..., 0) has spectrum {0, 2}
        from oneshift.tridiag import TridiagonalSymmetricMatrix

        m = TridiagonalSymmetricMatrix(
            diag=np.array([2.0] + [0.0] * 9), offdiag=np.zeros(9)
        )
        vals = tridiag_eigenvalues(m).values
        assert np.allclose(vals, [0.0] * 9 + [2.0], atol=1e-12)


def block_loop_pair(f, m):
    """Reference A and B of ``build_dense_pair(f, m)``, placed block by
    block with ``rotation_block``."""
    a = np.zeros((2 * m, 2 * m))
    for k in range(m):
        a[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = rotation_block(f.omega.angle(k + 1))
    b = np.zeros((2 * m, 2 * m))
    b[0, 0], b[-1, -1] = 1.0, -1.0
    for k in range(m - 1):
        b[2 * k + 1 : 2 * k + 3, 2 * k + 1 : 2 * k + 3] = rotation_block(f.theta.angle(k + 1))
    return a, b


DENSE_PAIR_FAMILIES = [
    PairFamily.constant(math.pi / 3),
    PairFamily(AngleSpec((0.3, 2.1), 1.4), AngleSpec((0.9,), 1.4)),
]


class TestDensePair:
    def test_single_block(self):
        p = build_dense_pair(PairFamily.constant(0.8), 1)
        assert np.allclose(p.a.entries, rotation_block(0.8), atol=1e-15)
        assert np.allclose(p.b.entries, np.diag([1.0, -1.0]), atol=1e-15)

    def test_involutions_at_tight_tolerance(self):
        p = build_dense_pair(PairFamily.constant(math.pi / 2), 2)
        for m in (p.a, p.b):
            assert involution_error(m.entries) <= 1e-14

    def test_commutator_radius_bounded(self):
        from oneshift.analysis import rho_commutator_direct

        p = build_dense_pair(PairFamily.constant(math.pi / 3), 50)
        assert rho_commutator_direct(p) <= 2.0 + 1e-9

    def test_entries_are_pinned(self):
        # SHA-256 of the entries of both families at m = 1, 3, 5 and 50
        h = hashlib.sha256()
        for m in (1, 3, 5, 50):
            for f in DENSE_PAIR_FAMILIES:
                p = build_dense_pair(f, m)
                h.update(p.a.entries.tobytes())
                h.update(p.b.entries.tobytes())
        assert h.hexdigest() == "053d6dcea2fd753cf8c2fbb64ac0b79baf4654c304d12570cbd3344e2fe4a08b"

    def test_stack_rows_equal_the_block_loop_bitwise(self):
        fams = [
            PairFamily(AngleSpec((0.2 * k, 0.3), 1.0 + 0.1 * k), AngleSpec((2.0,), 0.5 + 0.2 * k)) for k in range(1, 5)
        ]
        a, b = build_pair_stacks([f.omega.sequence(4) for f in fams], [f.theta.sequence(3) for f in fams])
        assert a.shape == b.shape == (4, 8, 8)
        for k, f in enumerate(fams):
            want_a, want_b = block_loop_pair(f, 4)
            assert a[k].tobytes() == want_a.tobytes()
            assert b[k].tobytes() == want_b.tobytes()

    def test_stack_of_non_involutions_is_rejected(self):
        with pytest.raises(ValueError, match="involution"):
            build_pair_stacks([[0.5, math.nan]], [[1.0]])


class TestPaperExample:
    def test_spectrum(self):
        from oneshift.tridiag import dense_sym_eigenvalues

        p = paper_example_3x3(0.01)
        s = dense_sym_eigenvalues(DenseSymmetricMatrix(p.a.entries + p.b.entries))
        assert np.allclose(s.values, [-0.2, 0.2, 2.0], atol=1e-12)

    def test_half_case(self):
        from oneshift.tridiag import dense_sym_eigenvalues

        # at x = 1/2 the nontrivial eigenvalues are +-2*sqrt(x) = +-sqrt(2)
        p = paper_example_3x3(0.5)
        s = dense_sym_eigenvalues(DenseSymmetricMatrix(p.a.entries + p.b.entries))
        assert np.allclose(s.values, [-math.sqrt(2), math.sqrt(2), 2.0], atol=1e-12)

    def test_b_is_involution(self):
        for x in (0.01, 0.3, 0.99):
            assert involution_error(paper_example_3x3(x).b.entries) <= 1e-14

    def test_uncorrected_offdiagonal_is_not_an_involution(self):
        x = 0.01
        off = math.sqrt(x * (1 - x))
        b = DenseSymmetricMatrix(
            np.array([[1, 0, 0], [0, 2 * x - 1, off], [0, off, 1 - 2 * x]], dtype=float)
        )
        assert not involution_error(b.entries) <= 1e-6


class TestCommutator:
    def test_commuting_pair(self):
        p = GeneralPair(
            a=DenseSymmetricMatrix(np.diag([1.0, -1.0])),
            b=DenseSymmetricMatrix(np.diag([-1.0, 1.0])),
        )
        assert np.allclose(commutator(p), 0.0, atol=1e-15)

    def test_quarter_turn(self):
        p = GeneralPair(
            a=DenseSymmetricMatrix(rotation_block(0.0)),
            b=DenseSymmetricMatrix(rotation_block(math.pi / 2)),
        )
        c = commutator(p)
        assert np.allclose(c, [[0.0, 2.0], [-2.0, 0.0]], atol=1e-12)

    def test_skew_symmetry(self):
        p = build_dense_pair(PairFamily(AngleSpec((0.3, 2.1), 1.4), AngleSpec((0.9,), 1.4)), 3)
        c = commutator(p)
        assert np.allclose(c, -c.T, atol=1e-14)

    def test_three_by_three_radius(self):
        from oneshift.analysis import rho_commutator_direct

        rho = rho_commutator_direct(paper_example_3x3(0.01))
        assert abs(rho - math.sqrt(0.04 * 3.96)) < 1e-12


class TestGeneralPairValidation:
    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            GeneralPair(
                a=DenseSymmetricMatrix(2 * np.eye(2)),
                b=DenseSymmetricMatrix(np.eye(2)),
            )

    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError):
            GeneralPair(
                a=DenseSymmetricMatrix(np.eye(2)),
                b=DenseSymmetricMatrix(np.eye(3)),
            )

    def test_check_rejects_a_stack_with_one_non_involution_or_nan(self):
        stack = np.array([np.eye(2), np.diag([1.0, -1.0])])
        check_involutions(stack)
        for bad in (2.0, math.nan):
            stack[1, 0, 0] = bad
            with pytest.raises(ValueError, match="not an involution at 1e-12"):
                check_involutions(stack)


class TestAngleSpec:
    def test_head_then_tail(self):
        spec = AngleSpec((0.5, 1.5), 2.5)
        assert spec.angle(1) == 0.5
        assert spec.angle(2) == 1.5
        assert spec.angle(3) == 2.5
        assert np.allclose(spec.sequence(4), [0.5, 1.5, 2.5, 2.5])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AngleSpec((0.0,), 1.0)
        with pytest.raises(ValueError):
            AngleSpec((), math.pi)
