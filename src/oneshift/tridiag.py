"""Real symmetric eigensolver built from scratch.

Tridiagonal matrices are solved by Sturm-sequence bisection inside the
Gershgorin hull; small dense symmetric matrices are first reduced to
tridiagonal form by Householder reflections, one at a time or a (B, n, n)
stack in lockstep, with the same bits.  Eigenvalues are returned with
multiplicity, sorted ascending.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels, lazy_import

np = lazy_import("numpy")

# Stacks of up to this many matrices are reduced one at a time, larger ones
# in lockstep, whose steps cost about the same for any stack size.  Against
# the loop, lockstep took 2.0x the time for one matrix, 1.07-1.14x for two
# and 0.73-0.76x for three, at orders 3, 6 and 16 (numpy 2.4, 2 cores).
LOOP_MAX_MATRICES = 2


def _gershgorin(d, e):
    """Gershgorin bounds, lists lo and hi, of the tridiagonals with the rows
    of ``d`` (B, n) and ``e`` (B, n-1), checked finite and small enough for
    bisection: it squares e, and its midpoints and d - x are bounded by
    |lo| + |hi|."""
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("entries must be finite")
    with np.errstate(over="ignore"):
        r = np.zeros(d.shape)
        ae = np.abs(e)
        r[:, :-1] += ae
        r[:, 1:] += ae
        lo, hi = (d - r).min(axis=1).tolist(), (d + r).max(axis=1).tolist()
        if not (np.isfinite(e * e).all() and all(math.isfinite(abs(a) + abs(b)) for a, b in zip(lo, hi))):
            raise ValueError("entries too large: the eigensolver would overflow")
    # c*I gets one bound, so that its bisection, which takes no step,
    # returns 0.5 * (c + c) == c; hi alone turns c = -0.0 into +0.0
    return lo, [b if b > a else a for a, b in zip(lo, hi)]


def _list_gershgorin(d, e):
    """``_gershgorin`` of one tridiagonal given as lists ``d`` and ``e``, in
    plain Python: the same checks, and the same bounds, bitwise, but for the
    sign of a zero bound."""
    if not all(map(math.isfinite, [*d, *e])):
        raise ValueError("entries must be finite")
    ae = [abs(x) for x in e]
    r = [a + b for a, b in zip([0.0, *ae], [*ae, 0.0])]
    lo, hi = min(x - y for x, y in zip(d, r)), max(x + y for x, y in zip(d, r))
    if not (all(math.isfinite(x * x) for x in e) and math.isfinite(abs(lo) + abs(hi))):
        raise ValueError("entries too large: the eigensolver would overflow")
    return lo, hi if hi > lo else lo


def _symmetrized(a):
    """Symmetric parts of the matrices in the last two axes of ``a``, checked
    finite with finite sums of squares, which bound the products of two such
    matrices and the squared column norms of the Householder reduction."""
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    with np.errstate(over="ignore"):
        sym = 0.5 * (a + a.swapaxes(-1, -2))
        if not np.isfinite((sym * sym).sum(axis=(-2, -1))).all():
            raise ValueError("entries too large: their squares overflow")
    return sym


@dataclass(frozen=True)
class TridiagonalSymmetricMatrix:
    """Symmetric tridiagonal matrix stored as diagonal/off-diagonal arrays."""

    diag: np.ndarray
    offdiag: np.ndarray
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.ascontiguousarray(np.asarray(self.diag, dtype=np.float64))
        e = np.ascontiguousarray(np.asarray(self.offdiag, dtype=np.float64))
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diag must be a nonempty 1-d sequence")
        if e.ndim != 1 or e.size != d.size - 1:
            raise ValueError("offdiag must have length n-1")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        lo, hi = _gershgorin(d[None], e[None])
        object.__setattr__(self, "_bounds", (lo[0], hi[0]))

    @property
    def n(self):
        return self.diag.size

    def gershgorin(self):
        """Inclusive eigenvalue bounds (lo, hi) from Gershgorin discs, computed once at construction."""
        return self._bounds


@dataclass(frozen=True)
class DenseSymmetricMatrix:
    """Dense real symmetric matrix; entries are symmetrized on construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("entries must form a square matrix")
        object.__setattr__(self, "entries", _symmetrized(a))

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectrumSample:
    """Sorted eigenvalues of one finite truncation."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty 1-d sequence")
        if np.any(np.diff(v) < 0):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "values", v)

    @property
    def order(self):
        return self.values.size


def _bounds_tol(lo, hi):
    return 1e-12 * max(1.0, abs(lo), abs(hi))


def default_tol(m):
    """Scale-free bisection tolerance: 1e-12 * max(1, Gershgorin radius)."""
    return _bounds_tol(*m.gershgorin())


def sturm_count(m, x):
    """Number of eigenvalues of ``m`` strictly less than ``x``, in plain Python.

    A sequence of shifts gives a list of counts, one each, and sets ``m``
    up once.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("shift must be finite")
    rows = _kernels._rows(m.diag.tolist(), (m.offdiag**2).tolist())
    counts = [_kernels._sturm_count_py(*rows, float(v)) for v in np.atleast_1d(x).tolist()]
    return counts if np.ndim(x) else counts[0]


def sections_eigenvalues_at(ms, idx, tol=None):
    """Eigenvalues at 0-based positions ``idx`` of the ascending spectrum of
    each of the sections ``ms``, one row each, in the order of ``idx``.

    The sections must share one order.  They bisect in lockstep, and each
    value is bitwise the one the full solve of its section alone gives at
    that position.  ``tol`` defaults to each section's ``default_tol``.
    """
    if not ms:
        raise ValueError("no sections given")
    n = ms[0].n
    if any(m.n != n for m in ms):
        raise ValueError("sections must share one order")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError("eigenvalue index out of range")
    if tol is not None and tol <= 0:
        raise ValueError("tol must be positive")
    rows = [_kernels._rows(m.diag.tolist(), (m.offdiag**2).tolist()) for m in ms]
    bounds = [m.gershgorin() for m in ms]
    sections = [(r, *b, _bounds_tol(*b) if tol is None else tol) for r, b in zip(rows, bounds)]
    return _kernels.bisect_sections(sections, idx)


def dense_eigenvalues_at(a, idx):
    """``sections_eigenvalues_at`` of the Householder sections of a (B, n, n)
    stack of dense symmetric matrices, with no section objects built; row b
    is bitwise that of matrix b alone."""
    d, e = householder_stack(_symmetrized(a))
    lo, hi = _gershgorin(d, e)
    rows = map(_kernels._rows, d.tolist(), (e**2).tolist())
    return _kernels.bisect_sections([(r, *b, _bounds_tol(*b)) for r, *b in zip(rows, lo, hi)], idx)


def tridiag_eigenvalues(m, tol=None):
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending."""
    vals = sections_eigenvalues_at([m], np.arange(m.n), tol)[0]
    # two indices bisect the same points until one count splits them, the
    # lower index going left, so the values come out nondecreasing
    return SpectrumSample(values=vals)


def _reflect(a):
    """Householder reduction of one symmetric matrix ``a``, in place."""
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        norm_x = np.sqrt(np.dot(x, x))
        if norm_x == 0.0:
            continue
        alpha = -norm_x if x[0] >= 0.0 else norm_x
        v = x
        v[0] -= alpha
        norm_v = np.sqrt(np.dot(v, v))
        if norm_v == 0.0:
            continue
        v /= norm_v
        sub = a[k + 1 :, k + 1 :]
        w = sub @ v
        u = w - np.dot(v, w) * v
        sub -= 2.0 * (np.outer(v, u) + np.outer(u, v))
        a[k + 1, k] = a[k, k + 1] = alpha
        a[k + 2 :, k] = 0.0
        a[k, k + 2 :] = 0.0


def _dots(x, y):
    # the dot products of the rows of x and y, each by the BLAS ddot that
    # np.dot of two vectors calls: matmul's row-times-column case
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _reflect_lockstep(a):
    """``_reflect`` of each matrix of the stack ``a``, in place and bitwise:
    each step makes its BLAS calls on views with the same strides, and its
    elementwise arithmetic.  Matrices whose column ``_reflect`` skips (a
    zero norm) are left out of the step, so none divides by zero."""
    n = a.shape[1]
    for k in range(n - 2):
        x = a[:, k + 1 :, k].copy()
        norm_x = np.sqrt(_dots(x, x))
        alpha = np.where(x[:, 0] >= 0.0, -norm_x, norm_x)
        x[:, 0] -= alpha
        norm_v = np.sqrt(_dots(x, x))
        # a zero norm_x leaves x as it was, so norm_v is zero there too
        go = np.flatnonzero(norm_v != 0.0)
        s = a[go]
        v = x[go] / norm_v[go, None]
        sub = s[:, k + 1 :, k + 1 :]
        w = (sub @ v[:, :, None])[:, :, 0]
        u = w - _dots(v, w)[:, None] * v
        sub -= 2.0 * (v[:, :, None] * u[:, None, :] + u[:, :, None] * v[:, None, :])
        s[:, k + 1, k] = s[:, k, k + 1] = alpha[go]
        s[:, k + 2 :, k] = s[:, k, k + 2 :] = 0.0
        a[go] = s


def householder_stack(a):
    """Diagonals (B, n) and off-diagonals (B, n-1) of the Householder
    tridiagonal forms of a (B, n, n) stack of symmetric matrices: one matrix
    at a time up to ``LOOP_MAX_MATRICES``, else in lockstep, same bits."""
    a = a.copy()
    if len(a) <= LOOP_MAX_MATRICES:
        for m in a:
            _reflect(m)
    else:
        _reflect_lockstep(a)
    return np.diagonal(a, 0, 1, 2).copy(), np.diagonal(a, 1, 1, 2).copy()


def dense_sym_eigenvalues(m):
    """Eigenvalues of a dense symmetric matrix via Householder + bisection."""
    return SpectrumSample(values=dense_eigenvalues_at(m.entries[None], np.arange(m.n))[0])
