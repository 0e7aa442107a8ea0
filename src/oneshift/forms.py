"""Builders for pairs of selfadjoint involutions in one-shifted form.

A pair is two block-diagonal involutions: the first is built from 2x2
rotation-reflection blocks r(omega_j), the second from a leading scalar 1
followed by blocks r(theta_j).  The offset of one index makes the sum a
tridiagonal matrix, which is what the finite-section machinery consumes.
``sum_entries`` lists the entries of a section of that sum in plain Python,
and ``build_sum_truncation`` builds the section from them; ``build_pair_stacks``
builds finite pairs themselves, as stacks of any number of pairs, and
``build_dense_pair`` is its case of one family's pair.
"""

import math
from dataclasses import dataclass

from . import lazy_import
from .tridiag import DenseSymmetricMatrix, TridiagonalSymmetricMatrix

np = lazy_import("numpy")


def _check_angle(eta):
    if not (0.0 < eta < math.pi):
        raise ValueError(f"angle {eta!r} not strictly inside (0, pi)")


@dataclass(frozen=True)
class AngleSpec:
    """Angle sequence: a finite head followed by a constant tail value."""

    head: tuple
    tail: float

    def __post_init__(self):
        head = tuple(float(a) for a in self.head)
        for a in head:
            _check_angle(a)
        _check_angle(self.tail)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", float(self.tail))

    def angle(self, j):
        """The j-th angle, 1-based."""
        if j < 1:
            raise ValueError("angle index is 1-based")
        return self.head[j - 1] if j <= len(self.head) else self.tail

    def sequence(self, count):
        """The first ``count`` angles as an array."""
        out = np.full(count, self.tail)
        k = min(count, len(self.head))
        out[:k] = self.head[:k]
        return out


@dataclass(frozen=True)
class PairFamily:
    """Parametric involution pair: A = diag(r(omega_j)), B = diag(1, r(theta_j))."""

    omega: AngleSpec
    theta: AngleSpec

    @classmethod
    def constant(cls, theta):
        return cls(AngleSpec((), theta), AngleSpec((), theta))

    @classmethod
    def head_omega(cls, omega, theta):
        """A = diag(r(omega), r(theta), ...), B = diag(1, r(theta), ...)."""
        return cls(AngleSpec((omega,), theta), AngleSpec((), theta))

    @classmethod
    def perturbed_heads(cls, theta):
        """Head angles (1.5, 2.0) for omega and (2.5,) for theta, then the tail theta."""
        return cls(AngleSpec((1.5, 2.0), theta), AngleSpec((2.5,), theta))

    @classmethod
    def two_constant(cls, omega, theta):
        return cls(AngleSpec((), omega), AngleSpec((), theta))


@dataclass(frozen=True)
class GeneralPair:
    """Two dense selfadjoint involutions of equal order."""

    a: DenseSymmetricMatrix
    b: DenseSymmetricMatrix

    def __post_init__(self):
        if self.a.n != self.b.n:
            raise ValueError("pair members must have equal order")
        for m in (self.a, self.b):
            check_involutions(m.entries)


def rotation_block(eta):
    """The 2x2 reflection [[cos, sin], [sin, -cos]]; an involution, det -1."""
    c, s = math.cos(eta), math.sin(eta)
    return np.array([[c, s], [s, -c]])


def involution_error(a):
    """Max-norm of a@a - I for each square matrix in the last two axes of ``a``."""
    return np.abs(a @ a - np.eye(a.shape[-1])).max(axis=(-2, -1))


def check_involutions(a):
    """Raise ValueError unless every square matrix in the last two axes of
    ``a`` is an involution at 1e-12 (``involution_error``); NaN fails."""
    if not np.max(involution_error(a)) <= 1e-12:
        raise ValueError("pair member is not an involution at 1e-12")


def short_order(f):
    """2h + 4 for the longer head h of the family's angles: the shortest even
    order whose section holds the first tail period, diagonal entries 2h + 1
    and 2h + 2 and off-diagonal ones 2h and 2h + 1, which every longer
    section repeats with period 2."""
    return 2 * max(len(f.omega.head), len(f.theta.head)) + 4


def sum_entries(f, n):
    """Diagonal and off-diagonal entries, as lists, of the top-left n x n
    corner of the infinite tridiagonal matrix A + B, by ``math``.

    Entry pattern: (0,0) is 1 + cos(omega_1); for k >= 1 the diagonal holds
    cos(theta_k) - cos(omega_k) at 2k-1 and cos(omega_{k+1}) - cos(theta_k)
    at 2k, with off-diagonal entries alternating sin(omega_k), sin(theta_k).
    The order n must be even and >= 2.
    """
    om = [f.omega.angle(j) for j in range(1, n // 2 + 1)]
    th = [f.theta.angle(j) for j in range(1, n // 2 + 1)]
    cos_om, cos_th = [math.cos(a) for a in om], [math.cos(a) for a in th]
    diag, off = [1.0 + cos_om[0]], []
    for k in range(n // 2):
        diag.append(cos_th[k] - cos_om[k])
        off.append(math.sin(om[k]))
        if k + 1 < n // 2:
            diag.append(cos_om[k + 1] - cos_th[k])
            off.append(math.sin(th[k]))
    return diag, off


def build_sum_truncation(f, n):
    """``sum_entries`` of order n as a matrix: those of order min(n,
    ``short_order``), then their last tail period tiled."""
    if n < 2 or n % 2 != 0:
        raise ValueError("truncation order must be even and >= 2")
    d, e = sum_entries(f, min(n, short_order(f)))
    k, diag, off = len(d), np.empty(n), np.empty(n - 1)
    diag[:k], off[: k - 1] = d, e
    if k < n:
        diag[k::2], diag[k + 1 :: 2], off[k - 1 :: 2], off[k::2] = d[-2], d[-1], e[-2], e[-1]
    return TridiagonalSymmetricMatrix(diag=diag, offdiag=off)


def build_pair_stacks(omega, theta):
    """A and B of a batch of exact involution pairs, as two (count, 2m, 2m) stacks.

    Row b of ``omega`` holds the m angles of pair b's A = diag(r(omega_1),
    ..., r(omega_m)), and row b of ``theta`` the m - 1 angles of its B =
    diag(1, r(theta_1), ..., r(theta_{m-1}), -1), with r as
    ``rotation_block`` builds it, cosines and sines from ``math``.  The
    trailing scalar -1 makes B an involution of A's order.
    """
    omega, theta = np.array(omega, dtype=np.float64), np.array(theta, dtype=np.float64)
    count, m = omega.shape
    pairs = np.zeros((2, count, 2 * m, 2 * m))
    a, b = pairs
    b[:, 0, 0], b[:, -1, -1] = 1.0, -1.0
    for stack, angles, first in ((a, omega, 0), (b, theta, 1)):
        i = np.arange(first, first + 2 * angles.shape[1], 2)
        c = np.array([math.cos(t) for t in angles.ravel().tolist()]).reshape(angles.shape)
        s = np.array([math.sin(t) for t in angles.ravel().tolist()]).reshape(angles.shape)
        stack[:, i, i], stack[:, i, i + 1], stack[:, i + 1, i], stack[:, i + 1, i + 1] = c, s, s, -c
    check_involutions(pairs)
    return a, b


def build_dense_pair(f, m):
    """Exact finite involution pair with m blocks in A (order 2m), the
    family's first angles in ``build_pair_stacks``."""
    if m < 1:
        raise ValueError("block count must be >= 1")
    a, b = build_pair_stacks(f.omega.sequence(m)[None], f.theta.sequence(m - 1)[None])
    return GeneralPair(a=DenseSymmetricMatrix(a[0]), b=DenseSymmetricMatrix(b[0]))


def paper_example_3x3(x):
    """The 3x3 pair whose sum has spectrum {-2 sqrt(x), 2 sqrt(x), 2}.

    B's lower block is the rotation-reflection with cosine 2x-1, so its
    off-diagonal entry is 2*sqrt(x*(1-x)); this is the involution-consistent
    form (the plain sqrt(x*(1-x)) variant squares to something other than I).
    """
    if not (0.0 < x < 1.0):
        raise ValueError("x must lie in (0, 1)")
    a = np.diag([1.0, 1.0, -1.0])
    off = 2.0 * math.sqrt(x * (1.0 - x))
    b = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 2.0 * x - 1.0, off],
            [0.0, off, 1.0 - 2.0 * x],
        ]
    )
    return GeneralPair(a=DenseSymmetricMatrix(a), b=DenseSymmetricMatrix(b))
