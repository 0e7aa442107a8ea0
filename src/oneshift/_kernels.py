"""Hot numeric kernels: Sturm counts and lockstep bisection by index.

``bisect_sections`` finds, for each of B symmetric tridiagonal sections of
one order, the eigenvalues whose ascending (0-based) indices are listed in
``idx``; the full spectrum is the case ``idx = arange(n)``, and one section
is the case B = 1.  It is the only bisection entry point.  Every (section,
index) lane runs its section's fixed number of halvings, so an eigenvalue
comes out bitwise the same whichever other sections and indices are solved
with it.

A certificate settles most eigenvalues without bisecting them.  A guess
walks the bisection tree to a leaf; two Sturm counts at the leaf's ends
tell which indices bisection would bring to that leaf, and its midpoint is
their value, bitwise (``_certify``).  This rests on one premise: counts
never decrease as the shift rises.  Guesses only choose which leaves get
counted, so a missing or wrong guess costs speed, not bits.  Guesses come
from one of two sources, chosen by cost alone.  Where a dense solve costs
less than bisection, LAPACK guesses every section of the batch whole
(``_dense_guesses``), whatever its shape.  Elsewhere a family section's
2-periodic tail places each eigenvalue inside a band (``_tail.guesses``)
or in a gap around them (``_tail.exterior_guess``).  The lanes no leaf
settles, chiefly in-band eigenvalues asked for a few at a time, are
bisected as before.

``bisect_sections`` picks the path in one pass of three stages.  Above
``PY_MAX_INDICES`` lanes the dense or in-band guesses are certified in
lockstep (``_certify``).  At most ``PY_MAX_INDICES`` lanes left are
settled from dense or exterior guesses with plain-Python counts
(``_settle``) and the rest bisect in plain Python, else they bisect in
lockstep numpy arrays.  The plain-Python Sturm count stops walking a
periodic tail once a period gives back its starting pivot and counts the
remaining periods at once, which makes counts outside the bands cheap.
The lockstep count walks every row, in four array passes a tail row.  A
repeated pivot repeats every later step, so both paths give bit-identical
output.
"""

import functools
import math

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

# Lane counts (sections times indices) up to this are counted in plain
# Python, at leaves and in bisection, more in lockstep numpy arrays; the
# tail's in-band certificate runs only above it, its exterior one only up
# to it, and dense guesses on either side.  Per matrix row and bisection
# step, numpy costs a near-fixed ~4 us and Python ~0.065 us per lane, so
# they break even near 60-65 lanes at n = 100 and n = 600 (numpy 2.4,
# Python 3.11; 64 shifts, best of 200 and 50 counts).  The in-band
# certificate pays from about 20 in-band lanes: a whole spectrum of one eq3
# section (omega 1.2, theta 0.7) took 0.23, 0.47, 1.5, 2.9 and 11.3 ms at
# n = 6, 10, 20, 30 and 64, and 1.3, 1.35, 1.55, 1.54 and 1.83 ms with
# ``_certify`` run first (2 cores).  Up to order 64 dense guesses take such
# a spectrum at any lane count, in 0.9-1.5 ms at n = 64.
PY_MAX_INDICES = 64

# Lanes bisected together in lockstep, which holds a few float64 arrays of
# one value per lane.  Chunks of this size bound that memory on long
# sweeps, and were no slower than one chunk on the 31 sections of order 600
# of figure 1.
MAX_LANES = 1 << 16

# A batch gets dense guesses, for every section and whatever its tail, when
# n^2 <= DENSE_ROWS * K * steps for K indices, an O(n^3) solve against
# K * steps * n count rows.  Guessing took 0.6-0.8 of bisection's time for
# the top eigenvalue of one Householder section up to n = 64 (n^2 = 100 K
# steps), 0.5-0.9 for that of 100 sections in lockstep up to n = 32 (25 K
# steps) but 1.07 at n = 48 (56 K steps), and 0.2-0.4 for 3 indices of 10
# sections up to n = 64.  One exterior lane of a family section at n = 40
# took 130-205 us this way, against 87-96 us from its tail.  Above order
# 64 OpenBLAS solves with threads, which on a loaded host took 5-40 ms, not
# 0.3-2 ms (OpenBLAS 0.3.31, 2 cores).
DENSE_ROWS, DENSE_MAX_ORDER = 50, 64


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
    start = _tail.start(diag, off2)
    d, e = diag[: start + 2].tolist(), off2[: start + 1].tolist()
    head = list(zip(d[1:start], e[: start - 1]))
    return d[0], head, tuple(zip(d[start : start + 2], e[start - 1 : start + 1])), diag.size - start


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


def _bisect_py(rows, lo, hi, steps, lanes):
    """Plain-Python bisection of each (section, index) pair of ``lanes``, one at a time.

    ``rows`` maps each section to its ``_rows``.
    """
    out = np.empty(len(lanes))
    for i, (b, j) in enumerate(lanes):
        row, lo_j, hi_j = rows[b], lo[b], hi[b]
        for _ in range(steps[b]):
            mid = 0.5 * (lo_j + hi_j)
            if _sturm_count_py(*row, mid) >= j + 1:
                hi_j = mid
            else:
                lo_j = mid
        out[i] = 0.5 * (lo_j + hi_j)
    return out


def _exterior_guesses(rows, lo, hi, steps, lanes, counts):
    """``_tail.exterior_guess`` of each lane, None where its section has no
    gaps; each such section's count, cached by shift, goes into ``counts``."""
    guesses, sections = [], {}
    for b, j in lanes:
        if b not in sections:
            e = math.frexp(max(abs(lo[b]), abs(hi[b])))[1]
            gaps = _tail.gaps(rows[b], e, lo[b], hi[b])
            # the scaled rows and functools.cache cost a few microseconds
            # to set up, which a section with no gaps skips
            if gaps:
                counts[b] = functools.cache(functools.partial(_sturm_count_py, *rows[b]))
            sections[b] = gaps and (_tail.scaled(rows[b], e), e, gaps, counts[b])
        guesses.append(_tail.exterior_guess(*sections[b], lo[b], hi[b], steps[b], j) if sections[b] else None)
    return guesses


def _dense_guesses(diag, off2):
    """Every eigenvalue of each section, ascending, from LAPACK on its dense tridiagonal."""
    a = np.zeros(diag.shape + diag.shape[1:])
    i = np.arange(diag.shape[1])
    a[:, i, i], a[:, i[1:], i[:-1]] = diag, np.sqrt(off2)
    return np.linalg.eigvalsh(a, UPLO="L")


def _settle(rows, lo, hi, steps, lanes, guesses, counts):
    """The value of each lane that its guess certifies, else None.

    A guess walks the lane's bisection tree to a leaf [l, h], and plain
    Python counts at its ends settle the lane by the leaf argument of
    ``_certify``.  An end still at its bound is counted as bisection takes
    it, 0 at lo and n at hi, which settles an eigenvalue on a Gershgorin
    bound and, with no guess needed, every lane of a section that takes no
    step.  Such an end was moved by no step, or by midpoints that rounded
    onto the bound; in the latter case the leaf's midpoint is the bound
    too, and so is the value bisection gives, whichever way its count turns
    there.  A leaf that puts its index to one side is followed by the next
    leaf on that side, once.  ``counts`` holds cached counts of some
    sections; the rest count from ``rows``.
    """
    values = [None] * len(lanes)
    for i, ((b, j), guess) in enumerate(zip(lanes, guesses)):
        row, s = rows[b], steps[b]
        if s and (guess is None or guess != guess):
            continue
        count, n = counts.get(b) or functools.partial(_sturm_count_py, *row), 1 + len(row[1]) + row[3]
        for _ in range(2):
            l, h = lo[b], hi[b]
            for _ in range(s):
                mid = 0.5 * (l + h)
                if guess < mid:
                    h = mid
                else:
                    l = mid
            below, above = 0 if l == lo[b] else count(l), n if h == hi[b] else count(h)
            if below <= j < above:
                values[i] = 0.5 * (l + h)
                break
            guess += (hi[b] - lo[b]) * 0.5**s * (1.0 if above <= j else -1.0)
    return values


def _sturm_counts_np(diag, off2, x, tail=None):
    """``_sturm_count_py`` at every shift of ``x``, one row of shifts per section.

    ``diag`` is (B, n), ``off2`` (B, n-1) and ``x`` (B, K); row i of every
    section is broadcast as a (B, 1) column against ``x``.  Diagonal rows
    from ``tail`` on (by default none) repeat with period 2, so the shifts
    are subtracted from them once.  A zero pivot, which counts as ``_TINY``
    does, is replaced by it only when dividing by it raises.
    """
    n = diag.shape[1]
    tail = n if tail is None else tail
    d, e = diag.T[:, :, None], off2.T[:, :, None]
    period = [d[i] - x for i in range(tail, min(tail + 2, n))]
    p = d[0] - x
    q = np.empty_like(p)
    neg = p < 0.0
    count = neg.astype(np.int64)
    pending = np.zeros(p.shape, dtype=np.uint8)  # negative pivots of up to 255 rows
    # a tiny pivot overflows the next quotient to inf, as in the Python count
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        for i in range(1, n):
            try:
                np.divide(e[i - 1], p, out=q)
            except FloatingPointError:  # p holds zeros: e/0 or 0/0
                p[p == 0.0] = _TINY
                np.divide(e[i - 1], p, out=q)
            if i < tail:
                np.subtract(d[i], x, out=p)
                p -= q
            else:
                np.subtract(period[(i - tail) % 2], q, out=p)
            np.less(p, 0.0, out=neg)
            pending += neg
            if i % 255 == 0:
                count += pending
                pending[...] = 0
    return count + pending


def _walk(lo, hi, steps, width, left):
    """(B, ``width``) lower and upper ends of lanes walking each section's bisection tree.

    A lane goes left where ``left(mid)`` holds, and a section that has run
    its ``steps[b]`` steps stops moving.
    """
    lower = np.repeat(lo[:, None], width, axis=1)
    upper = np.repeat(hi[:, None], width, axis=1)
    for s in range(steps.max()):
        mid = 0.5 * (lower + upper)
        go, live = left(mid), (steps > s)[:, None]
        np.copyto(upper, mid, where=go & live)
        np.copyto(lower, mid, where=~go & live)
    return lower, upper


def _bisect_np(diag, off2, lo, hi, steps, idx):
    """Lockstep bisection in numpy arrays of the indices ``idx[b]`` of each section b; ``idx`` is (B, K)."""
    lower, upper = _walk(lo, hi, steps, idx.shape[1], lambda mid: _sturm_counts_np(diag, off2, mid) > idx)
    return 0.5 * (lower + upper)


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

    Each guess walks its section's tree (``_walk``), left where it lies
    below the midpoint.  Guesses that are not finite are dropped.  Returns
    the (B, U) lower and upper leaf ends; a section with fewer than U
    leaves repeats one of them.
    """
    lower, upper = _walk(lo, hi, steps, guesses.shape[1], lambda mid: guesses < mid)
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


def _settle_leaves(diag, off2, lo, hi, steps, guesses, column, out, tail=None):
    """Write into ``out`` every index of ``column`` that a leaf of ``guesses`` holds.

    ``guesses`` is (B, G), ``column`` maps an eigenvalue index to its column
    of ``out`` (-1 for an index not asked for), and ``tail`` is as in
    ``_sturm_counts_np``.  Both ends of every distinct leaf (``_leaves``)
    are counted in one lockstep pass, and a leaf [l, h] holds the indices j
    with count(l) <= j < count(h) (see ``_certify``).  An end at its bound
    is counted as in ``_settle``.
    """
    lower, upper = _leaves(guesses, lo, hi, steps)
    if not lower.size:
        return
    first, stop = np.split(_sturm_counts_np(diag, off2, np.concatenate([lower, upper], axis=1), tail), 2, axis=1)
    first[lower == lo[:, None]] = 0
    stop[upper == hi[:, None]] = diag.shape[1]
    sizes = np.maximum(stop - first, 0).ravel()
    within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    j = column[np.repeat(first.ravel(), sizes) + within]
    sec = np.repeat(np.arange(len(lower)).repeat(lower.shape[1]), sizes)
    value = np.repeat((0.5 * (lower + upper)).ravel(), sizes)
    asked = j >= 0
    out[sec[asked], j[asked]] = value[asked]


def _certify(diag, off2, lo, hi, steps, idx, out, dense):
    """Write into ``out`` each eigenvalue at ``idx`` that a guess certifies.

    A guess's leaf [l, h] holds index j exactly when count(l) <= j <
    count(h), and then 0.5 * (l + h) is bitwise what bisecting j gives:
    every midpoint where the guess went left is >= h, so its count is > j,
    and every one where it went right is <= l, so its count is <= j; with
    counts nondecreasing in the shift, bisecting j takes the same turns.
    One lockstep count at both ends of every distinct leaf therefore
    settles all the indices its leaves hold (``_settle_leaves``).  The
    guesses are ``dense``, the (B, K) LAPACK guesses at ``idx`` when the
    batch has them, else the tail's in-band guesses.  These cost about two
    counts per eigenvalue, where bisecting K indices costs K * steps, so
    the tails are guessed from only when K * steps exceeds 2n, and only
    when their common tail is longer than their common head.  Lanes no
    leaf holds stay NaN.
    """
    n = diag.shape[1]
    column = np.full(n, -1)
    column[idx] = np.arange(idx.size)
    if dense is not None:
        per = max(1, MAX_LANES // idx.size)
        for b in range(0, len(steps), per):
            r = slice(b, b + per)
            _settle_leaves(diag[r], off2[r], lo[r], hi[r], steps[r], dense[r], column, out[r])
        return
    if idx.size * steps.max() <= 2 * n:
        return
    head = 0
    for d, e in zip(diag, off2):  # a section with too long a head ends the scan
        head = max(head, _tail.start(d, e))
        head += (n - head) % 2
        k = (n - head) // 2
        if k < 2 or 2 * k <= head:
            return
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
        r = slice(b, b + per)
        for m in range(0, k + 2, span):
            guesses = _tail.guesses(
                diag[r, : head + 2], off2[r, : head + 1], scale[r], k, np.arange(m, min(m + span, k + 2))
            )
            _settle_leaves(diag[r], off2[r], lo[r], hi[r], steps[r], guesses, column, out[r], head)


def bisect_sections(diag, off2, lo, hi, tol, idx):
    """Eigenvalues at the ascending indices ``idx`` of B sections of one order.

    ``diag`` is (B, n) and ``off2`` (B, n-1), holding squared off-diagonals;
    the sequences ``lo``, ``hi`` and ``tol`` give each section's
    Gershgorin bounds and bisection tolerance.  Row b of the (B, K) result
    holds section b's values in the order of ``idx``; lane (b, c) is
    section b's eigenvalue at index ``idx[c]``.

    This is the one place that chooses a path.  The guess source goes by
    cost alone: where a dense solve costs less than bisection
    (``DENSE_MAX_ORDER``, ``DENSE_ROWS``), LAPACK guesses every section of
    the batch, once, tail or no tail; elsewhere each section's tail does.
    The rest goes by the number of lanes.  Above ``PY_MAX_INDICES`` lanes,
    ``_certify`` settles in lockstep what the dense or in-band guesses
    place.  If at most ``PY_MAX_INDICES`` lanes are left, ``_settle``
    settles those that a dense or exterior guess places, and the rest
    bisect in plain Python, each section's rows built once for both.  More
    bisect in lockstep, each section's indices padded to a common count
    with its last one, in chunks of about ``MAX_LANES`` lanes.  Each value
    is bitwise that of plain bisection.
    """
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    steps = np.array([halvings(*b) for b in zip(lo, hi, tol)])
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    out = np.full((steps.size, idx.size), np.nan)
    n = diag.shape[1]
    dense = None
    if n <= DENSE_MAX_ORDER and n * n <= DENSE_ROWS * idx.size * steps.max():
        per = max(1, MAX_LANES // (n * n))
        dense = np.concatenate(
            [_dense_guesses(diag[a : a + per], off2[a : a + per])[:, idx] for a in range(0, steps.size, per)]
        )
    if out.size > PY_MAX_INDICES:
        _certify(diag, off2, lo, hi, steps, idx, out, dense)
    sec, col = np.nonzero(np.isnan(out))
    if sec.size <= PY_MAX_INDICES:
        rows = {b: _rows(diag[b], off2[b]) for b in set(sec.tolist())}
        bounds = lo.tolist(), hi.tolist(), steps.tolist()
        lanes, counts = list(zip(sec.tolist(), idx[col].tolist())), {}
        guesses = _exterior_guesses(rows, *bounds, lanes, counts) if dense is None else dense[sec, col].tolist()
        values = _settle(rows, *bounds, lanes, guesses, counts)
        rest = iter(_bisect_py(rows, *bounds, [lane for lane, v in zip(lanes, values) if v is None]).tolist())
        out[sec, col] = [next(rest) if v is None else v for v in values]
        return out
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
