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

    @property
    def n(self):
        return self.diag.size

    def gershgorin(self):
        """Inclusive eigenvalue bounds (lo, hi) from Gershgorin discs."""
        r = np.zeros(self.n)
        ae = np.abs(self.offdiag)
        r[:-1] += ae
        r[1:] += ae
        return float(np.min(self.diag - r)), float(np.max(self.diag + r))

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
        object.__setattr__(self, "entries", 0.5 * (a + a.T))

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


def _scale(m):
    lo, hi = m.gershgorin()
    return max(1.0, abs(lo), abs(hi))


def default_tol(m):
    """Scale-free bisection tolerance: 1e-12 * max(1, Gershgorin radius)."""
    return 1e-12 * _scale(m)


def sturm_count(m, x):
    """Number of eigenvalues of ``m`` strictly less than ``x``."""
    if not np.isfinite(x):
        raise ValueError("shift must be finite")
    return _kernels.sturm_count(m.diag, m.offdiag**2, x, _scale(m))


def tridiag_eigenvalues_at(m, idx, tol=None):
    """Eigenvalues of ``m`` at 0-based positions ``idx`` of the ascending spectrum.

    Each value is bitwise the one the full solve gives at that position;
    the output follows the order of ``idx``.
    """
    lo, hi = m.gershgorin()
    scale = max(1.0, abs(lo), abs(hi))
    if tol is None:
        tol = 1e-12 * scale
    if tol <= 0:
        raise ValueError("tol must be positive")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= m.n):
        raise ValueError("eigenvalue index out of range")
    if lo == hi:
        return np.full(idx.size, lo)
    return _kernels.bisect_eigenvalues(m.diag, m.offdiag**2, lo, hi, tol, scale, idx)


def tridiag_eigenvalues(m, tol=None):
    """All eigenvalues of a symmetric tridiagonal matrix, sorted ascending."""
    vals = tridiag_eigenvalues_at(m, np.arange(m.n), tol=tol)
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
    if m.n == 1:
        return SpectrumSample(values=m.entries[0, :1].copy(), order=1)
    return tridiag_eigenvalues(householder_tridiagonalize(m), tol=tol)
