"""Hot numeric kernels: Sturm counts and lockstep bisection by index.

``bisect_sections`` finds, for each of B symmetric tridiagonal sections of
one order, the eigenvalues whose ascending (0-based) indices are listed in
``idx``; the full spectrum is the case ``idx = arange(n)``, and one section
is the case B = 1.  It is the only bisection entry point.  Every (section,
index) lane runs its section's fixed number of halvings, so an eigenvalue
comes out bitwise the same whichever other sections and indices are solved
with it.

Above ``PY_MAX_INDICES`` lanes a certificate settles most eigenvalues
without bisecting them.  Every section of the pair families is a short head
followed by a 2-periodic tail, and the tail's transfer matrix places each
eigenvalue inside a band to within rounding (``_tail.guesses``).  A guess
walks the bisection tree to a leaf; two Sturm counts at the leaf's ends
tell which indices bisection would bring to that leaf, and its midpoint is
their value, bitwise (``_certify``).  This rests on one premise: counts
never decrease as the shift rises.  Guesses only choose which leaves get
counted, so a missing or wrong guess costs speed, not bits.  The lanes no
leaf settles, chiefly the eigenvalues outside the bands and the sections
with no tail to guess from, are bisected as before.

``_bisect_lanes`` is the one place that picks a path by the number of
lanes: a few bisect in plain Python, and many go to the certificate first,
with the lanes it leaves bisected in plain Python if few and in lockstep
numpy arrays if many.  The plain-Python Sturm count stops walking a
periodic tail once a period gives back its starting pivot and counts the
remaining periods at once, which makes counts outside the bands cheap.  The lockstep
count walks every row.  A repeated pivot repeats every later step, so both
paths give bit-identical output.
"""

import numpy as np

from . import _tail

# An exact zero pivot is replaced by the smallest positive double, the value
# the pivot approaches as the shift decreases to that point.  A larger
# replacement makes the next quotient e^2/p smaller than at a slightly lower
# shift, and the count can then drop as the shift rises: eps * scale did, on
# an off-diagonal entry of 6.6e-71.
_TINY = 5e-324

# Read only by bench/run.py, to name the kernel path: always numpy.
HAVE_NUMBA = USE_NUMBA = False

# Lane counts (sections times indices) up to this bisect in plain Python.
# Per matrix row and bisection step, numpy costs a near-fixed ~4 us and
# Python ~0.05 us per lane, so they break even near 80-90 lanes at n = 100
# and n = 600 (numpy 2.4, Python 3.11); 64 stays on the Python side.
PY_MAX_INDICES = 64

# Lanes bisected together in lockstep, which holds a few float64 arrays of
# one value per lane.  Chunks of this size bound that memory on long
# sweeps, and were no slower than one chunk on the 31 sections of order 600
# of figure 1.
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

    The two rows of the tail's first period (see ``_tail.start``) stand for
    all of it; the head holds the rows before the tail.
    """
    n = diag.size
    start = _tail.start(diag, off2)
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


def _bisect_py(diag, off2, lo, hi, steps, lanes):
    """Plain-Python bisection of each (section, index) pair of ``lanes``, one at a time."""
    out = np.empty(len(lanes))
    rows = {}
    for i, (b, j) in enumerate(lanes):
        if b not in rows:
            rows[b] = _rows(diag[b], off2[b])
        row, lo_j, hi_j = rows[b], lo[b], hi[b]
        for _ in range(steps[b]):
            mid = 0.5 * (lo_j + hi_j)
            if _sturm_count_py(*row, mid) >= j + 1:
                hi_j = mid
            else:
                lo_j = mid
        out[i] = 0.5 * (lo_j + hi_j)
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
    # the plain-Python count
    with np.errstate(over="ignore"):
        for i in range(1, d.shape[0]):
            np.divide(e[i - 1], p, out=q)
            np.subtract(d[i], x, out=p)
            p -= q
            np.copyto(p, smallest, where=p == 0.0)
            count += p < 0.0
    return count


def _bisect_np(diag, off2, lo, hi, steps, idx):
    """Lockstep bisection in numpy arrays of the indices ``idx[b]`` of each section b.

    ``idx`` is (B, K).  Sections run in descending step count, so those
    still halving are a prefix of the lane array; a section that has run
    its steps stops moving.
    """
    order = sorted(range(len(steps)), key=steps.__getitem__, reverse=True)
    diag, off2, want = diag[order], off2[order], idx[order] + 1
    lo = np.repeat(lo[order, None], idx.shape[1], axis=1)
    hi = np.repeat(hi[order, None], idx.shape[1], axis=1)
    steps = [steps[b] for b in order]
    for s in range(steps[0]):
        b = sum(k > s for k in steps)
        mid = 0.5 * (lo[:b] + hi[:b])
        above = _sturm_counts_np(diag[:b], off2[:b], mid) >= want[:b]
        np.copyto(hi[:b], mid, where=above)
        np.copyto(lo[:b], mid, where=~above)
    out = np.empty_like(lo)
    out[order] = 0.5 * (lo + hi)
    return out


def sturm_count(diag, off2, x):
    """Sturm count at the shift ``x``, in plain Python.

    ``x`` may be a sequence of shifts, which gives a list of counts and sets
    the section up once.
    """
    rows = _rows(diag, off2)
    counts = [_sturm_count_py(*rows, float(v)) for v in np.atleast_1d(x).tolist()]
    return counts if np.ndim(x) else counts[0]


def _leaves(guesses, lo, hi, steps):
    """Distinct bisection leaves that the guesses of each section fall in.

    Each guess walks its section's midpoint tree, left where it lies below
    the midpoint, for the section's number of steps.  Guesses that are not
    finite are dropped.  Returns the (B, U) lower and upper leaf ends; a
    section with fewer than U leaves repeats one of them.
    """
    lower = np.repeat(lo[:, None], guesses.shape[1], axis=1)
    upper = np.repeat(hi[:, None], guesses.shape[1], axis=1)
    for s in range(steps.max()):
        mid = 0.5 * (lower + upper)
        left = guesses < mid
        live = (steps > s)[:, None]
        np.copyto(upper, mid, where=left & live)
        np.copyto(lower, mid, where=~left & live)
    # _tail.guesses puts the guesses of one eigenvalue within three columns
    # of each other, so a leaf met again that close is counted once
    keep = np.isfinite(guesses)
    for back in (1, 2, 3):
        keep[:, back:] &= (lower[:, back:] != lower[:, :-back]) | (upper[:, back:] != upper[:, :-back])
    slot = np.cumsum(keep, axis=1) - 1
    row, col = np.nonzero(keep)
    ends = []
    for e in (lower, upper):
        packed = np.repeat(e[:, :1], slot[:, -1].max() + 1, axis=1)
        packed[row, slot[row, col]] = e[row, col]
        ends.append(packed)
    return ends


def _certify(diag, off2, lo, hi, steps, idx, out):
    """Write into ``out`` each eigenvalue at ``idx`` that a tail guess certifies.

    A guess's leaf [l, h] holds index j exactly when count(l) <= j <
    count(h), and then 0.5 * (l + h) is bitwise what bisecting j gives:
    every midpoint where the guess went left is >= h, so its count is > j,
    and every one where it went right is <= l, so its count is <= j; with
    counts nondecreasing in the shift, bisecting j takes the same turns.
    One lockstep count at both ends of every distinct leaf therefore
    settles all the indices its leaves hold.  Guessing costs about two
    counts per eigenvalue, where bisecting K indices costs K * steps, so
    sections are guessed from only when K * steps exceeds 2n, and only when
    their common tail is longer than their common head.  Lanes no leaf
    holds stay NaN.
    """
    n = diag.shape[1]
    head = max(_tail.start(d, e) for d, e in zip(diag, off2))
    head += (n - head) % 2
    k = (n - head) // 2
    if idx.size * steps.max() <= 2 * n or k < 2 or 2 * k <= head:
        return
    column = np.full(n, -1)
    column[idx] = np.arange(idx.size)
    scale = np.maximum(np.abs(lo), np.abs(hi))
    scale[scale == 0.0] = 1.0
    # Candidates m per chunk, each giving four guesses and up to eight
    # counted leaf ends.  At MAX_LANES // 8 a spectra-dataset round ran 2 %
    # faster, but figure 4 peaked above its own output's memory, and the
    # round's peak RSS rose by about 0.15 MB.
    budget = MAX_LANES // 32
    per = min(len(steps), max(1, budget // (k + 2)))
    span = max(1, budget // per)
    for b in range(0, len(steps), per):
        rows = slice(b, b + per)
        for m in range(0, k + 2, span):
            guesses = _tail.guesses(
                diag[rows, : head + 2], off2[rows, : head + 1], scale[rows], k, np.arange(m, min(m + span, k + 2))
            )
            lower, upper = _leaves(guesses, lo[rows], hi[rows], steps[rows])
            if not lower.size:
                continue
            counts = _sturm_counts_np(diag[rows], off2[rows], np.concatenate([lower, upper], axis=1))
            first, stop = np.split(counts, 2, axis=1)
            sizes = np.maximum(stop - first, 0).ravel()
            within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            j = column[np.repeat(first.ravel(), sizes) + within]
            sec = np.repeat(np.arange(b, b + len(lower)).repeat(lower.shape[1]), sizes)
            value = np.repeat((0.5 * (lower + upper)).ravel(), sizes)
            asked = j >= 0
            out[sec[asked], j[asked]] = value[asked]


def _bisect_lanes(diag, off2, lo, hi, steps, idx, out):
    """Fill in every lane of ``out`` still NaN: lane (b, c) is section b's
    eigenvalue at index ``idx[c]``.

    This is the one place that chooses a path by the number of lanes.  Up
    to ``PY_MAX_INDICES`` lanes bisect in plain Python.  Above that,
    ``_certify`` first settles what it can, and the lanes it leaves are
    counted again: up to ``PY_MAX_INDICES`` bisect in Python, more in
    lockstep, each section's indices padded to a common count with its last
    one, in chunks of about ``MAX_LANES`` lanes.
    """
    for certify in (True, False):
        sec, col = np.nonzero(np.isnan(out))
        if sec.size <= PY_MAX_INDICES:
            lanes = list(zip(sec.tolist(), idx[col].tolist()))
            out[sec, col] = _bisect_py(diag, off2, lo.tolist(), hi.tolist(), steps.tolist(), lanes)
            return out
        if certify:
            _certify(diag, off2, lo, hi, steps, idx, out)
    first = np.flatnonzero(np.diff(sec, prepend=-1))
    rows, count = sec[first], np.diff(first, append=sec.size)
    rank = np.repeat(np.arange(rows.size), count)
    slot = np.arange(sec.size) - first[rank]
    grid = np.repeat(idx[col[first + count - 1]][:, None], count.max(), axis=1)
    grid[rank, slot] = idx[col]
    per = max(1, MAX_LANES // grid.shape[1])
    solved = np.concatenate(
        [
            _bisect_np(diag[r], off2[r], lo[r], hi[r], steps[r], grid[c])
            for c in (slice(a, a + per) for a in range(0, rows.size, per))
            for r in [rows[c]]
        ]
    )
    out[sec, col] = solved[rank, slot]
    return out


def bisect_sections(diag, off2, lo, hi, tol, idx):
    """Eigenvalues at the ascending indices ``idx`` of B sections of one order.

    ``diag`` is (B, n) and ``off2`` (B, n-1), holding squared off-diagonals;
    the sequences ``lo``, ``hi`` and ``tol`` give each section's
    Gershgorin bounds and bisection tolerance.  Row b of the
    (B, K) result holds section b's values in the order of ``idx``.
    ``_bisect_lanes`` settles what it can from tail guesses and bisects
    the rest; either way each value is bitwise that of plain bisection.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    steps = np.array([halvings(*b) for b in zip(lo, hi, tol)])
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    return _bisect_lanes(diag, off2, lo, hi, steps, idx, np.full((steps.size, idx.size), np.nan))
