"""Numerical experiments tying finite sections to the closed forms.

Hausdorff distances between spectra and limit sets, outlier stabilization
filtering, the numeric spectral-radius estimator with the special-point
exclusion rule, and the Bell-CHSH bound stress suite.
"""

import math

from . import _kernels, lazy_import
from .forms import build_pair_stacks, short_order, sum_entries
from .theory import (
    LimitSet,
    RhoReport,
    TwoAngleParams,
    bell_chsh_rho,
    rho_from_lambda,
    select_lambda0,
    two_angle_essential,
)
from .tridiag import SpectrumSample, dense_eigenvalues_at, section

np = lazy_import("numpy")

OUTLIER_MARGIN = 0.02
OUTLIER_ORDER_STEP = 200


def _as_intervals(obj):
    """A LimitSet or SpectrumSample as the ends (lo, hi) of sorted intervals."""
    if isinstance(obj, SpectrumSample):
        return obj.values, obj.values
    if isinstance(obj, LimitSet):
        ivs = sorted(list(obj.intervals) + [(p, p) for p in obj.points])
        return tuple(np.array(ivs, dtype=np.float64).reshape(-1, 2).T)
    raise TypeError(f"unsupported operand {type(obj).__name__}")


def _covered(x, lo, hi):
    # x lies in an interval when those starting at or before it reach it
    last = np.searchsorted(lo, x, side="right") - 1
    return (last >= 0) & (np.maximum.accumulate(hi)[np.maximum(last, 0)] >= x)


def _distances(x, lo, hi):
    # outside every interval, the distance is that to the nearest end
    ends = np.sort(np.concatenate([lo, hi]))
    i = np.searchsorted(ends, x)
    below = np.abs(x - ends[np.maximum(i - 1, 0)])
    above = np.abs(x - ends[np.minimum(i, ends.size - 1)])
    return np.where(_covered(x, lo, hi), 0.0, np.minimum(below, above))


def _directed(a, b):
    # sup over a of dist(., b): attained at interval endpoints of a or at
    # midpoints of b's coverage gaps that fall inside an interval of a
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    mids = 0.5 * (b_hi[:-1] + b_lo[1:])
    candidates = np.concatenate([a_lo, a_hi, mids[_covered(mids, a_lo, a_hi)]])
    return float(np.max(_distances(candidates, b_lo, b_hi)))


def hausdorff_distance(a, b):
    """Hausdorff distance between two closed sets on the real line."""
    a_ivs, b_ivs = _as_intervals(a), _as_intervals(b)
    if not a_ivs[0].size or not b_ivs[0].size:
        raise ValueError("both sets must be nonempty")
    return max(_directed(a_ivs, b_ivs), _directed(b_ivs, a_ivs))


def detect_outliers(s, ess, margin, s_next):
    """Stabilized eigenvalues outside the essential set.

    Keeps eigenvalues of ``s`` lying farther than ``margin`` from the
    essential set that move by less than margin/10 against their nearest
    neighbor in the larger-order sample; everything else is a truncation
    artifact drifting at O(1/n).
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    if s_next.order <= s.order:
        raise ValueError("s_next must come from a strictly larger order")
    nxt = s_next.values.tolist()
    return _stabilized(s.values, ess, margin, lambda v: bool(nxt) and min(abs(x - v) for x in nxt) < margin / 10.0)


def _stabilized(values, ess, margin, near):
    # the filter of detect_outliers on sorted values, where near(v) tells
    # whether the next-order sample has an eigenvalue within margin/10 of v
    out = []
    for v in values:
        if ess.distance(v) <= margin:
            continue
        if (not out or abs(v - out[-1]) > 1e-9) and near(v):
            out.append(float(v))
    return out


def _family_sections(f, *orders):
    """(rows, lo, hi, tol) of the family's sections of the even ``orders``.

    These are, bitwise, the ``tridiag.section`` that ``build_sum_truncation(f,
    order)`` keeps, but built by ``section`` from entries made in plain
    Python (``sum_entries``) at order min(order, S), S = ``short_order(f)``,
    once each.  A longer section repeats the last tail period of that one,
    which adds nothing to the bounds and only length to the tail of its
    rows.
    """
    short, built, out = short_order(f), {}, []
    for order in orders:
        k = min(order, short)
        if k not in built:
            built[k] = section(*sum_entries(f, k))
        (d0, head, tail, tail_len), lo, hi, tol = built[k]
        out.append(((d0, head, tail, tail_len + order - k), lo, hi, tol))
    return out


def family_eigenvalues_at(fams, n, idx):
    """``sections_eigenvalues_at`` of the order-n sections of ``fams``, bitwise, from ``_family_sections``."""
    return _kernels.bisect_sections([_family_sections(f, n)[0] for f in fams], idx)


def _exterior_values(section, ess, dist, top):
    """Sorted eigenvalues of a ``_family_sections`` section at every index
    that can lie beyond ``dist``, and its eigenvalues at the indices
    ``top``, solved together.

    An eigenvalue whose bisected value lies farther than ``dist`` from the
    essential intervals has its exact value farther than ``dist - tol``, so
    plain-Python Sturm counts at the interval edges widened by that bound
    the indices to solve; an index of ``top`` among them is solved once.
    Values match the full solve bitwise.
    """
    rows, lo, hi, tol = section
    reach = dist - tol
    counts = [_kernels._sturm_count_py(*rows, x) for a, b in ess.intervals for x in (a - reach, b + reach)]
    counts = [0, *counts, 1 + len(rows[1]) + rows[3]]
    # the stretches overlap only when dist < tol
    idx = sorted({j for a, b in zip(counts[::2], counts[1::2]) for j in range(a, b)})
    asked = sorted({*idx, *top})
    values = dict(zip(asked, _kernels.bisect_rows(rows, lo, hi, _kernels.halvings(lo, hi, tol), asked)))
    return [values[j] for j in idx], [values[j] for j in top]


def _has_neighbor(section, v, r):
    """Whether a bisected eigenvalue of a ``_family_sections`` section lies
    within ``r`` of ``v``, told by Sturm counts where they can.

    A bisected value is the midpoint of a leaf at most tol wide, below which
    the count, as bisection takes it (``_kernels._bounded_count``), is at
    most its index and above which it is more.  So with pad = 2 tol, a
    count that rises over [v - r + pad, v + r - pad] puts a value within r,
    one flat over [v - r - pad, v + r + pad] puts none, and otherwise the
    indices between those outer counts are bisected and read.
    """
    rows, lo, hi, tol = section
    count, pad = _kernels._bounded_count(rows, lo, hi), 2.0 * tol
    if count(v - r + pad) < count(v + r - pad):
        return True
    js = [*range(count(v - r - pad), count(v + r + pad))]
    values = js and _kernels.bisect_rows(rows, lo, hi, _kernels.halvings(lo, hi, tol), js)
    return any(abs(x - v) < r for x in values)


def family_params(f):
    """Two-angle constants of the family's limiting (tail) angles."""
    return TwoAngleParams.from_angles(f.omega.tail, f.theta.tail)


def rho_numeric(f, n, exclusion=None):
    """Spectral-radius estimate from finite sections of the family.

    The essential band comes from the tail angles analytically; isolated
    points are the exterior eigenvalues of the order-n section that
    stabilize at order n+200, as ``detect_outliers`` keeps them, but
    solving only the order-n eigenvalues that can lie outside the band.
    Both sections are read off one short plain-Python build
    (``_family_sections``), bitwise as if built in full.  Whether the
    order-(n+200) section has an eigenvalue within margin/10 of a value
    beyond the margin, ``OUTLIER_MARGIN``, which is all the filter reads of
    it, is told by Sturm counts on its rows (``_has_neighbor``).  A point
    whose bisection leaf holds -2, 0 or 2, where rho is 0, may be that
    value, so it enters the selection as it, rho's least value over the
    leaf.  Points within 1e-6 of ``exclusion`` are removed before the
    selection step.
    """
    return rho_numeric_at(f, n, exclusion, [])[0]


def rho_numeric_at(f, n, exclusion, top):
    """``rho_numeric(f, n, exclusion)`` and the order-n section's eigenvalues
    at the indices ``top``, bitwise those of ``family_eigenvalues_at``, from
    one solve of that section (``_exterior_values``)."""
    if n < 4 or n % 2 != 0:
        raise ValueError("truncation order must be even and >= 4")
    margin = OUTLIER_MARGIN
    ess = two_angle_essential(family_params(f))
    first, second = _family_sections(f, n, n + OUTLIER_ORDER_STEP)
    v1, at_top = _exterior_values(first, ess, margin, top)
    outliers = _stabilized(v1, ess, margin, lambda v: _has_neighbor(second, v, margin / 10.0))
    _, lo, hi, tol = first
    steps = _kernels.halvings(lo, hi, tol)
    leaves = [_kernels._leaf(lo, hi, steps, lambda mid: v < mid) for v in outliers]
    points = [next((z for z in (-2.0, 0.0, 2.0) if l <= z <= h), v) for v, (l, h) in zip(outliers, leaves)]
    lam = LimitSet(intervals=ess.intervals, points=tuple(points))
    if exclusion is not None:
        lam = lam.without_point(exclusion, 1e-6)
    lam0 = select_lambda0(lam)
    return RhoReport(rho_from_lambda(lam0), lam0, "finite-section"), at_top


def _commutator_radii(a, b):
    """Direct spectral radii of the commutators C = AB - BA of the pairs of
    matrices of the (B, n, n) stacks ``a`` and ``b``.

    A commutator is skew-symmetric, hence normal; its spectral radius is
    the square root of the largest eigenvalue of -C^2, the only one solved,
    of all the pairs' Householder sections in one batch.
    """
    c = a @ b - b @ a
    tops = dense_eigenvalues_at(-(c @ c), [a.shape[1] - 1])[:, 0]
    return [math.sqrt(max(0.0, top)) for top in tops.tolist()]


def rho_commutator_direct(p):
    """Direct spectral radius of the commutator of a finite pair (``_commutator_radii``)."""
    return _commutator_radii(p.a.entries[None], p.b.entries[None])[0]


class Lcg:
    """Deterministic 64-bit linear-congruential generator.

    x <- 6364136223846793005 * x + 1442695040888963407 (mod 2^64); doubles
    are the top 53 bits mapped to [0, 1).  Used instead of library RNGs so
    the stress suite is reproducible byte-for-byte across platforms.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = (int(seed) ^ 0x9E3779B97F4A7C15) & self.MASK

    def next_float(self):
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return (self.state >> 11) / float(1 << 53)

    def angle(self):
        return 0.05 + self.next_float() * (math.pi - 0.1)


def _random_pairs(rng, count):
    """``count`` random order-6 involution pairs as two (count, 6, 6) stacks.

    Each pair is ``build_pair_stacks`` of its seven draws (see
    ``tsirelson_suite``), as ``build_dense_pair(f, 3)`` of the family f
    they make; the omega and theta tails lie beyond order 6.
    """
    angles = np.array([rng.angle() for _ in range(7 * count)]).reshape(count, 7)
    return build_pair_stacks(angles[:, :3], angles[:, 4:6])


def tsirelson_suite(seed, trials):
    """Max Bell-CHSH spectral radius over random finite involution pairs.

    Trial t takes pairs 2t and 2t + 1 of ``_random_pairs(Lcg(seed), 2 *
    trials)``, seven draws a pair in the order omega_1..3, omega tail,
    theta_1..2, theta tail.  All are reduced and solved as stacks, bitwise
    as one at a time.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    radii = [min(2.0, r) for r in _commutator_radii(*_random_pairs(Lcg(seed), 2 * trials))]
    return max(bell_chsh_rho(r1, r2) for r1, r2 in zip(radii[::2], radii[1::2]))


def solve_lambda_max_crossing():
    """Angle where the largest isolated point of the one-head family (omega pi/2) meets 2|cos theta|.

    At omega = pi/2 (gamma = 0) the isolated points +-lam of ``outlier_solve_eq4``
    have q^2 = (1 + c) / (-c), so lam^2 = s^2 (q + 1/q)^2 = (1 - c) / (-c).
    Setting lam = 2|cos theta| = -2c gives 4c^3 - c + 1 = 0, whose one real
    root is c* = cbrt(-1/8 + sqrt(26/1728)) + cbrt(-1/8 - sqrt(26/1728)),
    by Cardano's formula; the crossing is theta* = arccos c*.
    """
    r = math.sqrt(26.0 / 1728.0)
    return math.acos(float(np.cbrt(-0.125 + r) + np.cbrt(-0.125 - r)))
