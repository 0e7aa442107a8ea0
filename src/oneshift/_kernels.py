"""Hot numeric kernels: Sturm counts and lockstep bisection by index.

``bisect_sections`` finds, for each of B symmetric tridiagonal sections of
one order, the eigenvalues whose ascending (0-based) indices are listed in
``idx``; the full spectrum is the case ``idx = arange(n)``, and one section
is the case B = 1.  It is the only bisection entry point; both kernel paths
implement it.  Every (section, index) lane runs its section's fixed number
of halvings, so an eigenvalue comes out bitwise the same whichever other
sections and indices are solved with it.

A numba-jitted path and a numpy path are provided.  The jitted path is
the default when numba is installed; set the environment variable
``ONESHIFT_NO_NUMBA=1`` to force the numpy path, which also runs when
numba is absent.  The numpy path bisects a few lanes in plain Python and
many in lockstep numpy arrays.  Every section of the pair families is a
short head followed by a 2-periodic tail; the plain-Python Sturm count
stops walking the tail once a period gives back its starting pivot and
counts the remaining periods at once.  The lockstep numpy count and the
jitted one walk every row.  A repeated pivot repeats every later step, so
all paths give bit-identical output.
"""

import os

import numpy as np

# An exact zero pivot is replaced by the smallest positive double, the value
# the pivot approaches as the shift decreases to that point.  A larger
# replacement makes the next quotient e^2/p smaller than at a slightly lower
# shift, and the count can then drop as the shift rises: eps * scale did, on
# an off-diagonal entry of 6.6e-71.  The kernels read it as a global, which
# numba freezes as a constant.
_TINY = 5e-324

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

# Lane counts (sections times indices) up to this bisect in plain Python on
# the numpy path.  Per matrix row and bisection step, numpy costs a
# near-fixed ~4 us and Python ~0.05 us per lane, so they break even near
# 80-90 lanes at n = 100 and n = 600 (numpy 2.4, Python 3.11); 64 stays on
# the Python side.
PY_MAX_INDICES = 64

# Lanes bisected together on the numpy path, which holds a few float64
# arrays of one value per lane.  Chunks of this size bound that memory on
# long sweeps, and were no slower than one chunk on the 31 sections of
# order 600 of figure 1.
MAX_LANES = 1 << 16


def halvings(lo, hi, tol):
    """Number of bisection steps that take the width ``hi - lo`` to ``tol``."""
    width = hi - lo
    steps = 0
    while width > tol:
        width *= 0.5
        steps += 1
    return steps


def _rows(diag, off2):
    """First diagonal entry, head rows, tail rows and tail length of a section.

    Row i pairs diagonal entry i with the squared off-diagonal entry before
    it.  The tail is the longest run of last rows in which each row equals
    the row two after it; the two rows of its first period stand for all of
    it.  The head holds the rows before the tail; a section without a
    periodic tail keeps all but its last two rows there.  Zero entries of
    either sign compare equal, which cannot change a count: a pivot that
    comes out a signed zero is replaced by ``_TINY``.
    """
    n = diag.size
    breaks = np.flatnonzero((diag[3:] != diag[1:-2]) | (off2[2:] != off2[:-2]))
    start = int(breaks[-1]) + 2 if breaks.size else 1
    if n - start < 2:
        start = n
    head = list(zip(diag[1:start].tolist(), off2[: start - 1].tolist()))
    tail = tuple(zip(diag[start : start + 2].tolist(), off2[start - 1 : start + 1].tolist()))
    return float(diag[0]), head, tail, n - start


def _sturm_count_py(d0, head, tail, tail_len, x):
    """Number of eigenvalues strictly below ``x``, in plain Python.

    ``d0``, ``head``, ``tail`` and ``tail_len`` are as ``_rows`` returns
    them.  Exact zero pivots are replaced by ``_TINY`` so the count stays
    well defined on degenerate (e.g. diagonal) matrices.  The pivot after a
    row depends only on the pivot before it, so once a period of the tail
    gives back the pivot it started from, every later period repeats it and
    adds the same count: the rest of the tail is counted without walking it,
    and the result is bitwise that of the full loop.
    """
    p = d0 - x
    if p == 0.0:
        p = _TINY
    count = 1 if p < 0.0 else 0
    for di, ei in head:
        p = di - x - ei / p
        if p == 0.0:
            p = _TINY
        if p < 0.0:
            count += 1
    if not tail_len:
        return count
    (da, ea), (db, eb) = tail
    ax, bx = da - x, db - x
    periods, odd = divmod(tail_len, 2)
    for k in range(periods):
        start, before = p, count
        p = ax - ea / p
        if p == 0.0:
            p = _TINY
        if p < 0.0:
            count += 1
        p = bx - eb / p
        if p == 0.0:
            p = _TINY
        if p < 0.0:
            count += 1
        if p == start:
            count += (periods - 1 - k) * (count - before)
            break
    if odd:
        p = ax - ea / p
        if p == 0.0:
            p = _TINY
        if p < 0.0:
            count += 1
    return count


def _bisect_py(diag, off2, lo, hi, steps, idx):
    """Plain-Python bisection, one (section, index) lane at a time."""
    out = np.empty((len(lo), idx.size))
    for b, (lo0, hi0, nsteps) in enumerate(zip(lo, hi, steps)):
        rows = _rows(diag[b], off2[b])
        for k, j in enumerate(idx.tolist()):
            lo_j, hi_j = lo0, hi0
            for _ in range(nsteps):
                mid = 0.5 * (lo_j + hi_j)
                if _sturm_count_py(*rows, mid) >= j + 1:
                    hi_j = mid
                else:
                    lo_j = mid
            out[b, k] = 0.5 * (lo_j + hi_j)
    return out


def _sturm_counts_np(diag, off2, x):
    """``_sturm_count_py`` at every shift of ``x``, one row of shifts per section.

    ``diag`` is (B, n), ``off2`` (B, n-1) and ``x`` (B, K).
    Row i of every section is broadcast as a (B, 1) column against ``x``.
    """
    d = diag.T[:, :, None]
    e = off2.T[:, :, None]
    smallest = np.array(_TINY)  # np.copyto converts a float on every call
    p = d[0] - x
    np.copyto(p, smallest, where=p == 0.0)
    count = (p < 0.0).astype(np.int64)
    q = np.empty_like(p)
    # a tiny pivot overflows the next quotient to inf, which counts as in
    # the scalar twins
    with np.errstate(over="ignore"):
        for i in range(1, d.shape[0]):
            np.divide(e[i - 1], p, out=q)
            np.subtract(d[i], x, out=p)
            p -= q
            np.copyto(p, smallest, where=p == 0.0)
            count += p < 0.0
    return count


def _bisect_np(diag, off2, lo, hi, steps, idx):
    """Lockstep bisection of every (section, index) lane in numpy arrays.

    Sections run in descending step count, so those still halving are a
    prefix of the lane array; a section that has run its steps stops moving.
    """
    order = sorted(range(len(steps)), key=steps.__getitem__, reverse=True)
    diag, off2 = diag[order], off2[order]
    lo = np.repeat(np.array(lo)[order, None], idx.size, axis=1)
    hi = np.repeat(np.array(hi)[order, None], idx.size, axis=1)
    want = idx + 1
    steps = [steps[b] for b in order]
    for s in range(steps[0]):
        b = sum(k > s for k in steps)
        mid = 0.5 * (lo[:b] + hi[:b])
        above = _sturm_counts_np(diag[:b], off2[:b], mid) >= want
        np.copyto(hi[:b], mid, where=above)
        np.copyto(lo[:b], mid, where=~above)
    out = np.empty_like(lo)
    out[order] = 0.5 * (lo + hi)
    return out


if HAVE_NUMBA:

    @njit(cache=True)
    def _sturm_count_jit(diag, off2, x):
        p = diag[0] - x
        if p == 0.0:
            p = _TINY
        count = 1 if p < 0.0 else 0
        for i in range(1, diag.shape[0]):
            p = diag[i] - x - off2[i - 1] / p
            if p == 0.0:
                p = _TINY
            if p < 0.0:
                count += 1
        return count

    @njit(cache=True)
    def _bisect_jit(diag, off2, lo0, hi0, steps, idx):
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
                    pj = _TINY
                p[j] = pj
                cnt[j] = 1 if pj < 0.0 else 0
            for i in range(1, n):
                di = diag[i]
                ei = off2[i - 1]
                for j in range(k):
                    pj = di - mid[j] - ei / p[j]
                    if pj == 0.0:
                        pj = _TINY
                    p[j] = pj
                    if pj < 0.0:
                        cnt[j] += 1
            for j in range(k):
                if cnt[j] >= idx[j] + 1:
                    hi[j] = mid[j]
                else:
                    lo[j] = mid[j]
        return 0.5 * (lo + hi)


def sturm_count(diag, off2, x):
    """Scalar Sturm count dispatched to the active kernel path."""
    if USE_NUMBA:
        return int(_sturm_count_jit(diag, off2, float(x)))
    return _sturm_count_py(*_rows(diag, off2), float(x))


def bisect_sections(diag, off2, lo, hi, tol, idx):
    """Eigenvalues at the ascending indices ``idx`` of B sections of one order.

    ``diag`` is (B, n) and ``off2`` (B, n-1), holding squared off-diagonals;
    the sequences ``lo``, ``hi`` and ``tol`` give each section's
    Gershgorin bounds and bisection tolerance.  Row b of the
    (B, K) result holds section b's values in the order of ``idx``.
    Dispatched to the active kernel path; within the numpy path, up to
    ``PY_MAX_INDICES`` lanes bisect in plain Python and more in chunks of
    about ``MAX_LANES``.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    steps = [halvings(*b) for b in zip(lo, hi, tol)]
    if USE_NUMBA:
        rows = [_bisect_jit(*b, idx) for b in zip(diag, off2, lo, hi, steps)]
        return np.array(rows).reshape(len(steps), idx.size)
    if len(steps) * idx.size <= PY_MAX_INDICES:
        return _bisect_py(diag, off2, lo, hi, steps, idx)
    per = max(1, MAX_LANES // idx.size)
    chunks = [slice(b, b + per) for b in range(0, len(steps), per)]
    return np.concatenate([_bisect_np(diag[c], off2[c], lo[c], hi[c], steps[c], idx) for c in chunks])

