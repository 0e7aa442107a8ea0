"""Hot numeric kernels: Sturm counts and lockstep bisection by index.

``bisect_eigenvalues`` finds the eigenvalues of a symmetric tridiagonal
matrix whose ascending (0-based) indices are listed in ``idx``; the full
spectrum is the case ``idx = arange(n)``.  Every index runs the same fixed
number of halvings, so an eigenvalue comes out bitwise the same whichever
other indices are solved with it.

A numba-jitted path and a numpy path are provided.  The jitted path is
the default when numba is installed; set the environment variable
``ONESHIFT_NO_NUMBA=1`` to force the numpy path, which also runs when
numba is absent.  The numpy path bisects a few indices in plain Python
and many in lockstep numpy vectors.  All paths do the same floating-point
operations in the same order, so their output is bit-identical.
"""

import os

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("ONESHIFT_NO_NUMBA", "0").lower() not in (
    "1",
    "true",
    "yes",
)

# Index counts up to this bisect in plain Python on the numpy path.  Per
# matrix row and bisection step, numpy costs a near-fixed ~4 us and Python
# ~0.05 us per index, so they break even near 80-90 indices at n = 100 and
# n = 600 (numpy 2.4, Python 3.11); 64 stays on the Python side.
PY_MAX_INDICES = 64


def halvings(lo, hi, tol):
    """Number of bisection steps that take the width ``hi - lo`` to ``tol``."""
    width = hi - lo
    steps = 0
    while width > tol:
        width *= 0.5
        steps += 1
    return steps


def _rows(diag, off2):
    """First diagonal entry and the (diagonal, squared off-diagonal) row pairs."""
    return float(diag[0]), list(zip(diag[1:].tolist(), off2.tolist()))


def _sturm_count_py(d0, rows, x, tiny):
    """Number of eigenvalues strictly below ``x``, in plain Python.

    ``rows`` pairs each later diagonal entry with the squared off-diagonal
    entry before it.  Exact zero pivots are replaced by ``tiny`` so the
    count stays well defined on degenerate (e.g. diagonal) matrices.
    """
    p = d0 - x
    if p == 0.0:
        p = tiny
    count = 1 if p < 0.0 else 0
    for di, ei in rows:
        p = di - x - ei / p
        if p == 0.0:
            p = tiny
        if p < 0.0:
            count += 1
    return count


def _bisect_py(diag, off2, lo0, hi0, steps, tiny, idx):
    """Plain-Python bisection, one index at a time."""
    d0, rows = _rows(diag, off2)
    out = np.empty(idx.size)
    for k, j in enumerate(idx.tolist()):
        lo, hi = lo0, hi0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if _sturm_count_py(d0, rows, mid, tiny) >= j + 1:
                hi = mid
            else:
                lo = mid
        out[k] = 0.5 * (lo + hi)
    return out


def _sturm_counts_np(diag, off2, x, tiny):
    """``_sturm_count_py`` at every shift of the array ``x`` (vectorized)."""
    p = diag[0] - x
    p = np.where(p == 0.0, tiny, p)
    count = (p < 0.0).astype(np.int64)
    # a tiny pivot overflows the next quotient to inf, which counts as in
    # the scalar twins
    with np.errstate(over="ignore"):
        for i in range(1, diag.shape[0]):
            p = diag[i] - x - off2[i - 1] / p
            p = np.where(p == 0.0, tiny, p)
            count += p < 0.0
    return count


def _bisect_np(diag, off2, lo0, hi0, steps, tiny, idx):
    """Lockstep bisection of all of ``idx`` in numpy vectors."""
    lo = np.full(idx.size, lo0)
    hi = np.full(idx.size, hi0)
    want = idx + 1
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        above = _sturm_counts_np(diag, off2, mid, tiny) >= want
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


if HAVE_NUMBA:

    @njit(cache=True)
    def _sturm_count_jit(diag, off2, x, tiny):
        p = diag[0] - x
        if p == 0.0:
            p = tiny
        count = 1 if p < 0.0 else 0
        for i in range(1, diag.shape[0]):
            p = diag[i] - x - off2[i - 1] / p
            if p == 0.0:
                p = tiny
            if p < 0.0:
                count += 1
        return count

    @njit(cache=True)
    def _bisect_jit(diag, off2, lo0, hi0, steps, tiny, idx):
        # all indices bisect in lockstep: one matrix pass serves k shifts,
        # so the division chain is independent across j and vectorizes
        n = diag.shape[0]
        k = idx.shape[0]
        lo = np.full(k, lo0)
        hi = np.full(k, hi0)
        mid = np.empty(k)
        p = np.empty(k)
        cnt = np.empty(k, np.int64)
        for _ in range(steps):
            for j in range(k):
                mid[j] = 0.5 * (lo[j] + hi[j])
                pj = diag[0] - mid[j]
                if pj == 0.0:
                    pj = tiny
                p[j] = pj
                cnt[j] = 1 if pj < 0.0 else 0
            for i in range(1, n):
                di = diag[i]
                ei = off2[i - 1]
                for j in range(k):
                    pj = di - mid[j] - ei / p[j]
                    if pj == 0.0:
                        pj = tiny
                    p[j] = pj
                    if pj < 0.0:
                        cnt[j] += 1
            for j in range(k):
                if cnt[j] >= idx[j] + 1:
                    hi[j] = mid[j]
                else:
                    lo[j] = mid[j]
        return 0.5 * (lo + hi)


def sturm_count(diag, off2, x, scale):
    """Scalar Sturm count dispatched to the active kernel path."""
    tiny = _EPS * scale
    if USE_NUMBA:
        return int(_sturm_count_jit(diag, off2, float(x), tiny))
    return _sturm_count_py(*_rows(diag, off2), float(x), tiny)


def bisect_eigenvalues(diag, off2, lo, hi, tol, scale, idx):
    """Eigenvalues at the ascending indices ``idx``, in the order of ``idx``.

    Dispatched to the active kernel path; within the numpy path, up to
    ``PY_MAX_INDICES`` indices bisect in plain Python.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    lo, hi = float(lo), float(hi)
    steps = halvings(lo, hi, tol)
    tiny = _EPS * scale
    if USE_NUMBA:
        return _bisect_jit(diag, off2, lo, hi, steps, tiny, idx)
    if idx.size <= PY_MAX_INDICES:
        return _bisect_py(diag, off2, lo, hi, steps, tiny, idx)
    return _bisect_np(diag, off2, lo, hi, steps, tiny, idx)
