"""Real symmetric eigensolver built from scratch.

Tridiagonal matrices are solved by Sturm-sequence bisection inside the
Gershgorin hull; small dense symmetric matrices are first reduced to
tridiagonal form by Householder reflections.  Eigenvalues are returned
with multiplicity, sorted ascending.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels


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
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        with np.errstate(over="ignore"):
            r = np.zeros(d.size)
            ae = np.abs(e)
            r[:-1] += ae
            r[1:] += ae
            lo, hi = float(np.min(d - r)), float(np.max(d + r))
            # bisection squares the off-diagonal entries, and its midpoints
            # and shifted entries d - x are bounded by |lo| + |hi|
            if not (np.all(np.isfinite(e * e)) and np.isfinite(abs(lo) + abs(hi))):
                raise ValueError("entries too large: the eigensolver would overflow")
        # c*I gets one bound, so that its bisection, which takes no step,
        # returns 0.5 * (c + c) == c; hi alone turns c = -0.0 into +0.0
        object.__setattr__(self, "_bounds", (lo, hi if hi > lo else lo))

    @property
    def n(self):
        return self.diag.size

    def gershgorin(self):
        """Inclusive eigenvalue bounds (lo, hi) from Gershgorin discs, computed once at construction."""
        return self._bounds

    def to_dense(self):
        a = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        a[idx, idx + 1] = self.offdiag
        a[idx + 1, idx] = self.offdiag
        return a


@dataclass(frozen=True)
class DenseSymmetricMatrix:
    """Dense real symmetric matrix; entries are symmetrized on construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("entries must form a square matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite")
        # products of two such matrices, and the squared column norms of the
        # Householder reduction, are bounded by the sum of squared entries
        with np.errstate(over="ignore"):
            sym = 0.5 * (a + a.T)
            if not np.isfinite(np.sum(sym * sym)):
                raise ValueError("entries too large: their squares overflow")
        object.__setattr__(self, "entries", sym)

    @property
    def n(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectrumSample:
    """Sorted eigenvalues of one finite truncation."""

    values: np.ndarray
    order: int = field(default=0)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty 1-d sequence")
        if np.any(np.diff(v) < 0):
            raise ValueError("values must be nondecreasing")
        object.__setattr__(self, "values", v)
        n = self.order if self.order else v.size
        if n != v.size:
            raise ValueError("order must equal the number of eigenvalues")
        object.__setattr__(self, "order", n)


def _bounds_tol(lo, hi):
    return 1e-12 * max(1.0, abs(lo), abs(hi))


def default_tol(m):
    """Scale-free bisection tolerance: 1e-12 * max(1, Gershgorin radius)."""
    return _bounds_tol(*m.gershgorin())


def sturm_count(m, x):
    """Number of eigenvalues of ``m`` strictly less than ``x``.

    A sequence of shifts gives a list of counts, one each, and sets ``m``
    up once.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("shift must be finite")
    return _kernels.sturm_count(m.diag, m.offdiag**2, x)


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
    lo, hi = zip(*(m.gershgorin() for m in ms))
    tols = [_bounds_tol(a, b) if tol is None else tol for a, b in zip(lo, hi)]
    diag = np.array([m.diag for m in ms])
    off2 = np.array([m.offdiag for m in ms]) ** 2
    return _kernels.bisect_sections(diag, off2, lo, hi, tols, idx)


def tridiag_eigenvalues(m, tol=None):
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending."""
    vals = sections_eigenvalues_at([m], np.arange(m.n), tol)[0]
    # two indices bisect the same points until one count splits them, the
    # lower index going left, so the values come out nondecreasing
    return SpectrumSample(values=vals, order=m.n)


def householder_tridiagonalize(m):
    """Reduce a dense symmetric matrix to tridiagonal form by reflections."""
    a = m.entries.copy()
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
    return TridiagonalSymmetricMatrix(diag=np.diag(a).copy(), offdiag=np.diag(a, 1).copy())


def dense_sym_eigenvalues(m, tol=None):
    """Eigenvalues of a dense symmetric matrix via Householder + bisection."""
    return tridiag_eigenvalues(householder_tridiagonalize(m), tol=tol)
