"""Where a section's 2-periodic tail starts, and its in-band eigenvalues.

Every section of the pair families is a short head followed by a tail whose
rows repeat with period 2.  ``start`` finds the tail; ``guesses`` places
the eigenvalues inside the tail's bands from one period's transfer matrix,
at a cost that does not grow with the tail's length.  The guesses are only
as good as floating point allows; ``_kernels`` certifies them with Sturm
counts before any is used.
"""

import math

import numpy as np


def start(diag, off2):
    """Row at which the 2-periodic tail of a section starts, or n without one.

    Row i pairs diagonal entry i with the squared off-diagonal entry before
    it.  The tail is the longest run of last rows in which each row equals
    the row two after it, and holds at least two rows; a section without a
    periodic tail gets its last two rows as one.  Zero entries of either
    sign compare equal, which cannot change a count: a pivot that comes out
    a signed zero is replaced by ``_kernels._TINY``.
    """
    n = diag.size
    breaks = np.flatnonzero((diag[3:] != diag[1:-2]) | (off2[2:] != off2[:-2]))
    row = int(breaks[-1]) + 2 if breaks.size else 1
    return n if n - row < 2 else row


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
    da, db, ea2, eb2 = d[:, h : h + 1], d[:, h + 1 :], e2[:, h - 1 : h], e2[:, h:]
    c = np.sqrt(ea2) * np.sqrt(eb2)
    centre, spread = 0.5 * (da + db), (0.5 * (da - db)) ** 2 + ea2 + eb2
    target = m * math.pi
    guesses = []
    with np.errstate(all="ignore"):
        for sign in (-1.0, 1.0):
            branch = []
            for cut, offset in ((math.pi, 0.0), (0.5 * math.pi, 0.5 * math.pi)):
                phi = np.repeat((target + offset)[None] / k, len(s), axis=0)
                for _ in range(GUESS_NEWTON_STEPS):
                    cos, sin = np.cos(phi), np.sin(phi)
                    root = np.sqrt(spread + 2.0 * c * cos)
                    x, dx = centre + sign * root, -sign * c * sin / root
                    # the head minors and their x-derivatives, rescaled by
                    # one positive factor per row, which leaves arg z alone
                    p0, p, q0, q = np.ones_like(x), d[:, :1] - x, np.zeros_like(x), np.full_like(x, -1.0)
                    for i in range(1, h):
                        di = d[:, i : i + 1] - x
                        p0, p, q0, q = p, di * p - e2[:, i - 1 : i] * p0, q, di * q - p - e2[:, i - 1 : i] * q0
                        t = np.abs(p) + np.abs(p0)
                        t[t == 0.0] = 1.0
                        p0, p, q0, q = p0 / t, p / t, q0 / t, q / t
                    p1, q1 = (da - x) * p - ea2 * p0, (da - x) * q - p - ea2 * q0
                    w, dw = ((db - x) * p1 - eb2 * p) / c, ((db - x) * q1 - p1 - eb2 * q) / c
                    # z and dz/dphi in real and imaginary parts
                    zr, zi = w - p * cos, p * sin
                    dzr, dzi = (dw - q * cos) * dx + p * sin, q * sin * dx + p * cos
                    arg = np.mod(np.arctan2(zi, zr) + cut, 2.0 * cut) - cut
                    phi -= (k * phi + arg - target) / (k + (zr * dzi - zi * dzr) / (zr * zr + zi * zi))
                branch.append(centre + sign * np.sqrt(spread + 2.0 * c * np.cos(phi)))
            # interleaved by m, the two guesses of one eigenvalue sit side by side
            guesses.append(np.stack(branch, axis=2).reshape(len(s), -1))
    return np.concatenate(guesses, axis=1) * s
