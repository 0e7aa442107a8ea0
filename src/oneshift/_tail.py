"""Where a section's eigenvalues lie, read off its 2-periodic tail.

Every section of the pair families is a short head followed by a tail whose
rows repeat with period 2, the form ``_kernels._rows`` gives every section
in.  One period's transfer matrix places the eigenvalues at a cost that
does not grow with the tail's length: ``guesses`` (``phase_guesses`` for one
lane) those inside the tail's bands, and ``exterior_guess`` those in the
gaps around them (``band_edges``).  ``_kernels`` asks for these guesses only where a dense
LAPACK solve of the section would cost more.  They are only as good as
floating point allows; ``_kernels`` certifies them with Sturm counts
before any is used.
"""

import math
import sys

from . import lazy_import

np = lazy_import("numpy")


# Newton steps per tail guess.  On the 31 sections each of figure 1 (right
# panel), figure 3 and figure 4 (left, right) and on 40 random family
# sections of order 600-2000, 2 steps left 40, 583, 62, 201 and 86 lanes to
# bisect, 3 steps 37, 86, 55, 46 and 61, and 4 steps 37, 63, 55, 46 and 63,
# which on the figures are exactly their exterior eigenvalues.  5, 6 and 8
# steps left the same within 2 lanes (numpy 2.4, Python 3.11).
GUESS_NEWTON_STEPS = 4


def guesses(diag, off2, scale, k, m):
    """Guessed eigenvalues of sections whose last 2k rows are k tail periods.

    ``diag`` and ``off2`` hold each section's head, rows 0..h-1, and its
    first tail period, rows h and h+1, with diagonal entries d_a, d_b and
    squared off-diagonals e_a^2, e_b^2; ``scale`` bounds each section's
    entries.  Over one period the minors P_i of T - x obey a transfer matrix
    of determinant c^2, c = |e_a e_b|, and trace c*Delta with
    Delta = ((d_a - x)(d_b - x) - e_a^2 - e_b^2) / c.  Inside a band,
    Delta = 2 cos(phi) and, by Cayley-Hamilton, P_n is proportional to
    sin(k phi + arg z), z = w - u exp(-i phi), where u = P_h and
    w = P_{h+2} / c.  So each eigenvalue in a band solves
    k phi + arg z = m pi for an integer m, with x on one of the branches
    (d_a + d_b)/2 +- sqrt(((d_a - d_b)/2)^2 + e_a^2 + e_b^2 + 2c cos(phi)).
    For each m in ``m`` and each branch this takes Newton steps twice: from
    phi = m pi / k with arg z cut at +-pi, and from phi = (m + 1/2) pi / k
    with it cut at +-pi/2, so that a root next to one cut or start is
    still found from the other.  Returns a (B, G)
    array; a guess may be missing, repeated or wrong, and is NaN or inf
    where the steps broke down.
    """
    h = diag.shape[1] - 2
    s = scale[:, None]
    d, e2 = diag / s, off2 / s / s
    head = [(d[:, i : i + 1], e2[:, i - 1 : i]) for i in range(1, h)]
    period = (d[:, h : h + 1], e2[:, h - 1 : h]), (d[:, h + 1 :], e2[:, h:])
    fns = np.cos, np.sin, np.sqrt, np.arctan2
    with np.errstate(all="ignore"):
        # interleaved by m, the two guesses of one eigenvalue sit side by side
        guesses = [
            np.stack([_newton(d[:, :1], head, period, k, sign, m * math.pi, start, fns) for start in (0, 1)], axis=2)
            for sign in (-1.0, 1.0)
        ]
    return np.concatenate([g.reshape(len(s), -1) for g in guesses], axis=1) * s


def _newton(d0, head, period, k, sign, target, start, fns):
    """The Newton steps of ``guesses`` from one start on one branch, on
    floats or arrays, with ``fns`` their cos, sin, sqrt and atan2.  The head
    minors and their x-derivatives are rescaled by one positive factor per
    row, which leaves arg z alone."""
    cos_, sin_, sqrt_, atan2 = fns
    (da, ea2), (db, eb2) = period
    c = sqrt_(ea2) * sqrt_(eb2)
    centre, spread = 0.5 * (da + db), (0.5 * (da - db)) ** 2 + ea2 + eb2
    cut, offset = ((math.pi, 0.0), (0.5 * math.pi, 0.5 * math.pi))[start]
    phi = (target + offset) / k
    for _ in range(GUESS_NEWTON_STEPS):
        cos, sin = cos_(phi), sin_(phi)
        root = sqrt_(spread + 2.0 * c * cos)
        x, dx = centre + sign * root, -sign * c * sin / root
        p0, p, q0, q = 1.0, d0 - x, 0.0, -1.0
        for di, e2 in head:
            di = di - x
            p0, p, q0, q = p, di * p - e2 * p0, q, di * q - p - e2 * q0
            t = abs(p) + abs(p0)
            t = t + (t == 0.0)
            p0, p, q0, q = p0 / t, p / t, q0 / t, q / t
        p1, q1 = (da - x) * p - ea2 * p0, (da - x) * q - p - ea2 * q0
        w, dw = ((db - x) * p1 - eb2 * p) / c, ((db - x) * q1 - p1 - eb2 * q) / c
        zr, zi = w - p * cos, p * sin
        dzr, dzi = (dw - q * cos) * dx + p * sin, q * sin * dx + p * cos
        arg = (atan2(zi, zr) + cut) % (2.0 * cut) - cut
        phi = phi - (k * phi + arg - target) / (k + (zr * dzi - zi * dzr) / (zr * zr + zi * zi))
    return centre + sign * sqrt_(spread + 2.0 * c * cos_(phi))


def phase_guesses(unit, sign, m):
    """The two guesses of ``guesses`` at the phase m on the branch ``sign``
    (-1 lower, +1 upper) of one section's rows scaled by 2^-e (``scaled``),
    in plain Python, each None where its steps broke down.  An odd tail
    lends its first row to the head, as in ``_kernels._arrays``."""
    d0, head, tail, tail_len = unit
    k, odd = divmod(tail_len, 2)
    if odd:
        head, tail = [*head, tail[0]], tail[::-1]
    out = []
    for start in (0, 1):
        try:
            x = _newton(d0, head, tail, k, sign, m * math.pi, start, (math.cos, math.sin, math.sqrt, math.atan2))
        except (ArithmeticError, ValueError):
            x = math.nan
        out.append(x if math.isfinite(x) else None)
    return out


def band_edges(tail, delta=0.0):
    """Ascending ends of the stretches where |Delta| <= 2 + delta, for the
    2-periodic operator whose period is ``tail``: rows (a, c^2) and
    (b, d^2) of diagonal entries a, b and squared off-diagonal entries.
    They solve (x - a)(x - b) = c^2 + d^2 -+ (2 + delta)|cd|, which for
    delta = 0 is (|c| -+ |d|)^2, the ends of the two bands.  Where widened
    bands overlap, the inner pair meets in the middle.  An empty ``tail``
    has no bands."""
    if not tail:
        return []
    (a, c2), (b, d2) = tail
    half, reach = 0.5 * (a - b), (2.0 + delta) * math.sqrt(c2) * math.sqrt(d2)
    base = half * half + c2 + d2
    mid, inner, outer = 0.5 * (a + b), math.sqrt(max(base - reach, 0.0)), math.sqrt(base + reach)
    return [mid - outer, mid - inner, mid + inner, mid + outer]


# Gaps are taken where |Delta| >= 2 + EXTERIOR_DELTA, so the tail's
# multiplier there is at most exp(-0.25) in size, and a plain-Python Sturm
# count finds its repeated pivot within about 80 periods.  On 400 random
# family sections of order 600, a gap ended 0.010 beyond its band in the
# median (0.0007 to 0.17), short of the 0.018 at which ``analysis`` starts
# asking for eigenvalues, and a count at a gap's end walked 70 periods in
# the median and 84 at most.
EXTERIOR_DELTA = 0.0628


def gaps(rows, e, lo, hi):
    """The stretches of [lo, hi] below, between and above the tail's bands
    where |Delta| >= 2 + EXTERIOR_DELTA.  There are none when the tail is a
    single period, as the last two rows of a section with no periodic tail
    are, or when a squared off-diagonal entry of its period, scaled by
    2^-2e as ``scaled`` scales it, is zero or subnormal: ``last_minor``
    divides by their product."""
    if rows[3] < 4:
        return []
    tail = [_scaled_row(*r, e) for r in rows[2]]
    if not min(tail[0][1], tail[1][1]) >= sys.float_info.min:
        return []
    ends = [lo, *(math.ldexp(x, e) for x in band_edges(tail, EXTERIOR_DELTA)), hi]
    return [(x, y) for x, y in zip(ends[::2], ends[1::2]) if x < y]


def _scaled_row(d, e2, e):
    return math.ldexp(d, -e), math.ldexp(e2, -2 * e)


def scaled(rows, e):
    """``rows`` with the diagonal entries scaled by 2^-e and the squared
    off-diagonal ones by 2^-2e, which is exact but for subnormals."""
    d0, head, tail, tail_len = rows
    return math.ldexp(d0, -e), [_scaled_row(*r, e) for r in head], tuple(_scaled_row(*r, e) for r in tail), tail_len


def last_minor(rows, x):
    """The last leading minor P_n of T - x over c^k U_{k-1}(Delta/2), times
    a positive factor, at a shift x outside the tail's bands.  The entries
    must be of order one (``scaled``): the head minors, rescaled together,
    differ in size by the entries' scale.

    ``rows`` is a section as ``_kernels._rows`` gives it: a head that ends
    in the state s = (P_h, P_{h-1}), then k periods of transfer matrix
    c M, det M = 1 and trace M = Delta, c = |e_a e_b|, and one more row a if
    the tail is odd.  Cayley-Hamilton gives M^k = U_{k-1} M - U_{k-2} I for
    the Chebyshev polynomials U at Delta/2, and outside the bands
    U_{k-2}/U_{k-1} = r = mu (1 - mu^(2k-2)) / (1 - mu^(2k)) for the
    multiplier |mu| < 1, so the value is e_1 [R_a] (M - r I) s, in O(head).
    Its sign is (-1)^count times one sign per gap, and its roots there are
    the section's eigenvalues.  The head minors are rescaled by their hypot
    at every row, which keeps the value smooth in x.  Raises
    ``ArithmeticError`` or ``ValueError`` where it breaks down, such as
    inside a band.
    """
    d0, head, ((da, ea2), (db, eb2)), tail_len = rows
    p0, p = 1.0, d0 - x
    for d, e2 in head:
        t = math.hypot(p, p0)
        p0, p = p / t, ((d - x) * p - e2 * p0) / t
    k, odd = divmod(tail_len, 2)
    c = math.sqrt(ea2) * math.sqrt(eb2)
    half = 0.5 * ((da - x) * (db - x) - ea2 - eb2) / c
    mu = 1.0 / (half + math.copysign(math.sqrt((half - 1.0) * (half + 1.0)), half))
    mu2 = mu * mu
    r = mu * (1.0 - mu2 ** (k - 1)) / (1.0 - mu2**k)
    q = (da - x) * p - ea2 * p0
    y0, y1 = ((db - x) * q - eb2 * p) / c - r * p, q / c - r * p0
    return (da - x) * y0 - ea2 * y1 if odd else y0


# Regula falsi steps per exterior guess, a bound the guesses stay far
# below: on the seed-1 rounds of radius-sweep and spectra-dataset, a guess
# evaluated ``last_minor`` 13 times in the median and 27 at most.
EXTERIOR_STEPS = 60


def exterior_guess(unit, e, gaps, count, lo, hi, steps, j):
    """A guess at eigenvalue j of a section when it lies in one of the
    section's ``gaps``, else None.

    ``unit`` is the section's rows scaled by 2^-e (``scaled``), ``count(x)``
    its Sturm count, and ``lo``, ``hi`` and ``steps`` its bisection bounds
    and steps; the counts at ``lo`` and ``hi`` are taken as 0 and n.  Counts
    at the gaps' ends find the gap that holds j, and counts at midpoints
    narrow it until it holds j alone; every shift counted lies in a gap,
    where counts are cheap.  Regula falsi on ``last_minor``, halving the
    weight of an end kept twice (Illinois), then narrows the gap to a
    quarter of a bisection leaf.  A wrong guess costs only speed.
    """
    n = 1 + len(unit[1]) + unit[3]
    for a, b in gaps if 2 * j < n else gaps[::-1]:
        ca, cb = 0 if a == lo else count(a), n if b == hi else count(b)
        if ca <= j < cb:
            break
    else:
        return None
    width = (hi - lo) * 0.5**steps
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if cb - ca < 2 or b - a <= width or not a < mid < b:
            break
        cm = count(mid)
        if cm > j:
            b, cb = mid, cm
        else:
            a, ca = mid, cm
    if cb - ca > 1:
        return 0.5 * (a + b)
    a, b, width = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(width, -e)
    try:
        fa, fb = last_minor(unit, a), last_minor(unit, b)
        if not fa * fb < 0.0:
            return None
        kept = 0
        for _ in range(EXTERIOR_STEPS):
            x = (a * fb - b * fa) / (fb - fa)
            fx = last_minor(unit, x)
            if fx * fb > 0.0:
                b, fb = x, fx
                if kept == -1:
                    fa *= 0.5
                kept = -1
            elif fx * fa > 0.0:
                a, fa = x, fx
                if kept == 1:
                    fb *= 0.5
                kept = 1
            else:  # a root, or not a number
                break
            if b - a < 0.25 * width:
                break
    except (ArithmeticError, ValueError):
        return None
    return math.ldexp(x, e)
