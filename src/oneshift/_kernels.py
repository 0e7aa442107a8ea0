"""Hot numeric kernels: Sturm counts and lockstep bisection by index.

``bisect_sections`` finds, for each of B sections of one order, given as
``tridiag.section`` builds them, the eigenvalues whose ascending (0-based)
indices are listed in ``idx``; the full spectrum is the case ``idx =
arange(n)``, and one section is the case B = 1.
``bisect_rows``, its plain-Python stage, solves indices of one section, and
``rho_numeric`` calls it directly.  These two are the bisection entry
points.  Every (section, index) lane runs its section's fixed number of
halvings, so an eigenvalue comes out bitwise the same whichever other
sections and indices are solved with it.

A certificate settles most eigenvalues without bisecting them.  A guess
walks the bisection tree to a leaf; two Sturm counts at the leaf's ends
tell which indices bisection would bring to that leaf, and its midpoint is
their value, bitwise (``_certify``).  This rests on one premise: counts
never decrease as the shift rises.  Guesses only choose which leaves get
counted, so a missing or wrong guess costs speed, not bits.  Guesses come
from one of two sources, chosen by cost alone.  Where a dense solve costs
less than bisection, LAPACK guesses every section of the batch whole
(``_dense_guesses``), whatever its shape.  Elsewhere a family section's
2-periodic tail places each eigenvalue inside a band (``_tail.guesses``,
or ``_tail.phase_guesses`` for a lane asked for alone) or in a gap around
them (``_tail.exterior_guess``).  The few lanes no leaf settles, chiefly
in a gap that the widened bands close, are bisected as before.

``bisect_sections`` picks the path in one pass of three stages.  Above
``PY_MAX_INDICES`` lanes the dense or in-band guesses are certified in
lockstep (``_certify``).  At most ``PY_MAX_INDICES`` lanes left go to
``bisect_rows``, one call for each section that has any: plain-Python
counts settle those that dense, exterior or phase guesses place
(``_settle``), and the rest bisect in plain Python.  More lanes left
bisect in lockstep numpy arrays.  The plain-Python Sturm count stops
walking a periodic tail once a period gives back its starting pivot and
counts the remaining periods at once, which makes counts outside the bands
cheap.  The lockstep count walks every row, reading each tail row off the
first tail period (``_arrays``), in four array passes a tail row.  A repeated
pivot repeats every later step, so both paths give bit-identical output.
"""

import functools
import math

from . import _tail, lazy_import

np = lazy_import("numpy")

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
# one value per lane and a copy of each lane's head and first tail period.
# Chunks of this size bound that memory on long sweeps, and were no slower
# than one chunk on the 31 sections of order 600 of figure 1.
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


def _rows(d, e2):
    """First diagonal entry, head rows, tail rows and tail length of the
    section with the diagonal ``d`` and squared off-diagonal ``e2``, lists.

    Row i pairs d[i] with e2[i - 1].  The tail is the longest run of last
    rows in which each row equals the row two after it, at least two, less
    its first row where the run is odd, so that it is whole periods; a
    section without a periodic tail gets its last two rows as one, and one
    of order 1 or 2 gets none.  The tail's first period stands for all of
    it; the head holds the rows before the tail.  Zero entries of either
    sign compare equal, which cannot change a count: a pivot that comes out
    a signed zero is replaced by ``_TINY``.
    """
    n, row = len(d), len(d) - 3
    while row >= 1 and d[row] == d[row + 2] and e2[row - 1] == e2[row + 1]:
        row -= 1
    start = row + 1 + (n - row - 1) % 2 if n > 2 else n
    head = list(zip(d[1:start], e2[: start - 1]))
    return d[0], head, tuple(zip(d[start : start + 2], e2[start - 1 : start + 1])), n - start


def _arrays(rows):
    """(B, h + 2) diagonals and (B, h + 1) squared off-diagonals of the
    sections whose ``_rows`` are ``rows``, for the stages run in lockstep:
    rows 0..h+1, for the latest tail start h.  Every tail is whole periods,
    so row i >= h is row h + (i - h) % 2 and the rows from h are (n - h) / 2
    tail periods.  Sections of order 1 or 2 have no tail and are padded with
    zeros that no stage reads."""
    h = max(1 + len(head) for _, head, _, _ in rows)
    diag, off2 = np.zeros((len(rows), h + 2)), np.zeros((len(rows), h + 1))
    for b, (d0, head, tail, _) in enumerate(rows):
        start = 1 + len(head)
        diag[b, :start], off2[b, : start - 1] = [d0, *(d for d, _ in head)], [e2 for _, e2 in head]
        for i, (d, e2) in enumerate(tail):
            diag[b, start + i :: 2], off2[b, start + i - 1 :: 2] = d, e2
    return diag, off2


def _sturm_count_py(d0, head, tail, tail_len, x):
    """Number of eigenvalues strictly below ``x``, in plain Python.

    ``d0``, ``head``, ``tail`` and ``tail_len`` are as ``_rows`` returns
    them, a tail of whole periods.  Exact zero pivots are replaced by
    ``_TINY`` so the count stays well defined on degenerate (e.g. diagonal)
    matrices.  The pivot after a period depends only on the pivot before
    it, so once a period gives back the pivot it started from, every later
    one repeats it and adds the same count: the rest of the tail is counted
    without walking it, bitwise as the full loop counts it.
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
    periods = tail_len // 2
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
    return count


def _bounded_count(rows, lo, hi):
    """The Sturm count of a section with the rows ``rows`` and bisection
    bounds ``lo`` and ``hi`` as bisection takes it, the one statement of that
    rule: 0 at or below lo, the order n at or above hi, ``_sturm_count_py``
    in between.  The rule is sound: a leaf end still at its bound was moved
    by no step, or by midpoints that rounded onto it, and bisection, which
    never counts there, returns that leaf's midpoint too.  So an eigenvalue
    on a Gershgorin bound settles, and a clamped end can only keep a leaf
    from settling an index, which is then bisected, never settle a wrong
    one; at a guess's bounds, a count only places the guess."""
    n = 1 + len(rows[1]) + rows[3]

    def count(x):
        return 0 if x <= lo else n if x >= hi else _sturm_count_py(*rows, x)

    return count


def _leaf(lo, hi, steps, left):
    """Ends of the leaf of the bisection tree of [lo, hi] that a walk going
    left where ``left(mid)`` holds reaches, as ``_walk`` walks in lockstep."""
    l, h = lo, hi
    for _ in range(steps):
        mid = 0.5 * (l + h)
        if left(mid):
            h = mid
        else:
            l = mid
    return l, h


def _bisect_py(rows, lo, hi, steps, js):
    """Plain-Python bisection of each index of ``js`` of one section, one at
    a time; ``rows`` is its ``_rows``."""
    out = []
    for j in js:
        l, h = _leaf(lo, hi, steps, lambda mid: _sturm_count_py(*rows, mid) > j)
        out.append(0.5 * (l + h))
    return out


def _dense_guesses(diag, off2, n):
    """Every eigenvalue of each order-n section, ascending, from LAPACK on its
    dense tridiagonal, rows expanded as ``_sturm_counts_np`` reads them."""
    h, i = diag.shape[1] - 2, np.arange(n)
    # sections with no periodic tail, as Householder gives them, come at
    # full order; mapping their rows cost 8 us of a 60 us solve at n = 16
    # (numpy 2.4, Python 3.11)
    if h + 2 != n:
        r = np.minimum(i, h + (i - h) % 2)
        diag, off2 = diag[:, r], off2[:, r[1:] - 1]
    a = np.zeros((len(diag), n, n))
    a[:, i, i], a[:, i[1:], i[:-1]] = diag, np.sqrt(off2)
    return np.linalg.eigvalsh(a, UPLO="L")


def _settle(count, lo, hi, steps, js, guesses):
    """The value of each index of ``js`` of one section that its guess
    certifies (``_certified``), else None; ``count`` is its
    ``_bounded_count``."""
    return [None if g is None or g != g else _certified(count, lo, hi, steps, j, g)[0] for j, g in zip(js, guesses)]


def _certified(count, lo, hi, steps, j, guess):
    """The value of index j of a section that ``guess`` certifies, or None,
    and the counts at the ends of the last leaf tried.

    The guess walks j's bisection tree to a leaf [l, h], and the counts
    (``_bounded_count``) at its ends settle j by the leaf argument of
    ``_certify``.  A leaf that puts j to one side is followed by the next
    leaf on that side, once."""
    for _ in range(2):
        l, h = _leaf(lo, hi, steps, lambda mid: guess < mid)
        below, above = count(l), count(h)
        if below <= j < above:
            return 0.5 * (l + h), below, above
        guess += (hi - lo) * 0.5**steps * (1.0 if above <= j else -1.0)
    return None, below, above


def _in_band(unit, e, count, lo, hi, steps, j):
    """Index j of one section, which no exterior guess placed, certified
    from a guess placed by the tail's bands, else None; ``unit`` is the
    section's rows scaled by 2^-e and ``count`` its cached
    ``_bounded_count``.  Counts at the ends of the band whose widened
    stretch holds j tell whether j lies in it, and its place from the band's
    outer end, about its phase m (``_tail.phase_guesses``); where no guess
    of m settles j, the index the last leaf holds or lies next to moves m by
    its distance.  Outside the bands, j is guessed in the gaps they leave."""
    ends = [lo, *(math.ldexp(x, e) for x in _tail.band_edges(unit[2])), hi]
    upper = j >= count(math.ldexp(_tail.band_edges(unit[2], _tail.EXTERIOR_DELTA)[1], e))
    c = [count(x) for x in ends[1 + 2 * upper : 3 + 2 * upper]]
    if not c[0] <= j < c[1]:
        # a leaf inside each band end, where the last minor is finite
        w = (hi - lo) * 0.5**steps
        gaps = [(a + w * (a > lo), b - w * (b < hi)) for a, b in zip(ends[::2], ends[1::2]) if a < b]
        guess = _tail.exterior_guess(unit, e, gaps, count, lo, hi, steps, j)
        return None if guess is None else _certified(count, lo, hi, steps, j, guess)[0]
    sign, m = (1, c[1] - 1 - j) if upper else (-1, j - c[0])
    # of 1,400 random in-band lanes of family sections of order 100-2000,
    # half of them the top index, the first m settled 49 %, the second the rest
    for _ in range(3):
        near = None
        for guess in _tail.phase_guesses(unit, sign, m):
            if guess is not None:
                value, below, above = _certified(count, lo, hi, steps, j, math.ldexp(guess, e))
                if value is not None:
                    return value
                near = above - 1 if j >= above else below
        if near is None:
            return None
        # the phase rises with the index along the lower band, falls along the upper
        m -= sign * (j - near)
    return None


def bisect_rows(rows, lo, hi, steps, js, guesses=None):
    """Eigenvalues at the indices ``js`` of one section, in plain Python.

    ``rows`` is the section's ``_rows``, and ``lo``, ``hi`` and ``steps``
    its bisection bounds and steps, so the section need not be built at its
    full order.  ``_settle`` settles the indices that their ``guesses``
    place, by default each index's ``_tail.exterior_guess`` and then the
    guesses of ``_in_band``, counted by one ``_bounded_count``, and the rest
    bisect (``_bisect_py``).  Each value is bitwise that of plain bisection.
    """
    count, tail = _bounded_count(rows, lo, hi), None
    # functools.cache (5 us), the scaled rows (2 us) and the gaps (4-6 us at
    # n = 1000) are skipped by a section with no tail or no index asked for
    if guesses is None and js and rows[3] >= 4:
        e = math.frexp(max(abs(lo), abs(hi)))[1]
        count, tail, gaps = functools.cache(count), (_tail.scaled(rows, e), e), _tail.gaps(rows, e, lo, hi)
        guesses = [_tail.exterior_guess(*tail, gaps, count, lo, hi, steps, j) for j in js]
    values = _settle(count, lo, hi, steps, js, guesses or [None] * len(js))
    if tail:
        values = [_in_band(*tail, count, lo, hi, steps, j) if v is None else v for j, v in zip(js, values)]
    rest = iter(_bisect_py(rows, lo, hi, steps, [j for j, v in zip(js, values) if v is None]))
    return [next(rest) if v is None else v for v in values]


def _sturm_counts_np(diag, off2, x, n):
    """``_sturm_count_py`` at every shift of ``x``, one row of shifts per order-n section.

    ``diag`` is (B, h + 2), ``off2`` (B, h + 1) and ``x`` (B, K); row i of
    every section is broadcast as a (B, 1) column against ``x``.  Row
    i >= h is row h + (i - h) % 2, so the shifts are subtracted from the
    tail rows once (full arrays are the case h = n - 2).  A zero pivot,
    which counts as ``_TINY`` does, is replaced by it only when dividing by
    it raises.
    """
    h = diag.shape[1] - 2
    d, e = diag.T[:, :, None], off2.T[:, :, None]
    period = [d[i] - x for i in range(h, min(h + 2, n))]
    p = d[0] - x
    q = np.empty_like(p)
    neg = p < 0.0
    count = neg.astype(np.int64)
    pending = np.zeros(p.shape, dtype=np.uint8)  # negative pivots of up to 255 rows
    # a tiny pivot overflows the next quotient to inf, as in the Python count
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        for i in range(1, n):
            r = i if i < h else h + (i - h) % 2
            try:
                np.divide(e[r - 1], p, out=q)
            except FloatingPointError:  # p holds zeros: e/0 or 0/0
                p[p == 0.0] = _TINY
                np.divide(e[r - 1], p, out=q)
            if i < h:
                np.subtract(d[i], x, out=p)
                p -= q
            else:
                np.subtract(period[r - h], q, out=p)
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


def _bisect_np(diag, off2, n, lo, hi, steps, idx):
    """Lockstep bisection in numpy arrays of the indices ``idx[b]`` of each order-n section b; ``idx`` is (B, K)."""
    lower, upper = _walk(lo, hi, steps, idx.shape[1], lambda mid: _sturm_counts_np(diag, off2, mid, n) > idx)
    return 0.5 * (lower + upper)


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


def _settle_leaves(diag, off2, n, lo, hi, steps, guesses, column, out):
    """Write into ``out`` every index of ``column`` that a leaf of ``guesses`` holds.

    ``guesses`` is (B, G), and ``column`` maps an eigenvalue index to its
    column of ``out`` (-1 for an index not asked for).  Both ends of every
    distinct leaf (``_leaves``) are counted in one lockstep pass, and a leaf
    [l, h] holds the indices j with count(l) <= j < count(h) (see
    ``_certify``), an end at its bound counted as by ``_bounded_count``.
    """
    lower, upper = _leaves(guesses, lo, hi, steps)
    if not lower.size:
        return
    first, stop = np.split(_sturm_counts_np(diag, off2, np.concatenate([lower, upper], axis=1), n), 2, axis=1)
    first[lower == lo[:, None]] = 0
    stop[upper == hi[:, None]] = n
    sizes = np.maximum(stop - first, 0).ravel()
    within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    j = column[np.repeat(first.ravel(), sizes) + within]
    sec = np.repeat(np.arange(len(lower)).repeat(lower.shape[1]), sizes)
    value = np.repeat((0.5 * (lower + upper)).ravel(), sizes)
    asked = j >= 0
    out[sec[asked], j[asked]] = value[asked]


def _certify(n, diag, off2, lo, hi, steps, idx, out, dense):
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
    when their common tail is longer than their common head, the arrays'
    width less two.  Lanes no leaf holds stay NaN.
    """
    column = np.full(n, -1)
    column[idx] = np.arange(idx.size)
    if dense is not None:
        per = max(1, MAX_LANES // idx.size)
        for b in range(0, len(steps), per):
            r = slice(b, b + per)
            _settle_leaves(diag[r], off2[r], n, lo[r], hi[r], steps[r], dense[r], column, out[r])
        return
    head = diag.shape[1] - 2
    k = (n - head) // 2
    if idx.size * steps.max() <= 2 * n or k < 2 or 2 * k <= head:
        return
    e = np.frexp(np.maximum(np.abs(lo), np.abs(hi)))[1]
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
            guesses = _tail.guesses(diag[r], off2[r], e[r], k, np.arange(m, min(m + span, k + 2)))
            _settle_leaves(diag[r], off2[r], n, lo[r], hi[r], steps[r], guesses, column, out[r])


def bisect_sections(sections, idx):
    """Eigenvalues at the ascending indices ``idx`` of B sections of one order.

    Each section is a tuple (rows, lo, hi, tol), as ``tridiag.section``
    builds it: its ``_rows``, Gershgorin bounds and bisection tolerance.
    Row b of the (B, K) result holds section b's values in the order of
    ``idx``; lane (b, c) is section b's eigenvalue at index ``idx[c]``.

    This is the one place that chooses a path.  The guess source goes by
    cost alone: where a dense solve costs less than bisection
    (``DENSE_MAX_ORDER``, ``DENSE_ROWS``), LAPACK guesses every section of
    the batch, once, tail or no tail; elsewhere each section's tail does.
    The rest goes by the number of lanes.  Above ``PY_MAX_INDICES`` lanes,
    ``_certify`` settles in lockstep what the dense or in-band guesses
    place.  If at most ``PY_MAX_INDICES`` lanes are left, they are split
    at section boundaries, and ``bisect_rows`` settles each section's
    lanes that a dense, exterior or phase guess places and bisects the
    rest in plain Python, from the section's rows.  More bisect in lockstep, one
    lane to a row of arrays, in chunks of ``MAX_LANES`` lanes.  A batch with
    dense guesses or more lanes, all of which run some lockstep stage,
    builds the arrays of its head and first tail period once (``_arrays``).
    Each value is bitwise that of plain bisection.
    """
    rows, lo, hi, tol = zip(*sections)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    steps = np.array([halvings(*b) for b in zip(lo, hi, tol)])
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    out = np.full((steps.size, idx.size), np.nan)
    n = 1 + len(rows[0][1]) + rows[0][3]
    dense, guessed = None, n <= DENSE_MAX_ORDER and n * n <= DENSE_ROWS * idx.size * steps.max()
    if guessed or out.size > PY_MAX_INDICES:
        diag, off2 = _arrays(rows)
    if guessed:
        per = max(1, MAX_LANES // (n * n))
        dense = np.concatenate(
            [_dense_guesses(diag[a : a + per], off2[a : a + per], n)[:, idx] for a in range(0, steps.size, per)]
        )
    if out.size > PY_MAX_INDICES:
        _certify(n, diag, off2, lo, hi, steps, idx, out, dense)
    sec, col = np.nonzero(np.isnan(out))
    if sec.size <= PY_MAX_INDICES:
        # each section's first lane; a 1-d prepend skips np.broadcast_to, half the cost
        first = np.flatnonzero(np.diff(sec, prepend=[-1]))
        js, bounds = idx[col].tolist(), [*zip(lo.tolist(), hi.tolist(), steps.tolist())]
        guesses = None if dense is None else dense[sec, col].tolist()
        for a, z in zip(first.tolist(), [*first[1:].tolist(), sec.size]):
            b = sec[a]
            out[b, col[a:z]] = bisect_rows(rows[b], *bounds[b], js[a:z], guesses and guesses[a:z])
        return out
    for a in range(0, sec.size, MAX_LANES):
        s, c = sec[a : a + MAX_LANES], col[a : a + MAX_LANES]
        out[s, c] = _bisect_np(diag[s], off2[s], n, lo[s], hi[s], steps[s], idx[c][:, None])[:, 0]
    return out
