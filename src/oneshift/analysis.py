"""Numerical experiments tying finite sections to the closed forms.

Finite truncation spectra, Hausdorff-distance convergence records, outlier
stabilization filtering, the numeric spectral-radius estimator with the
special-point exclusion rule, and the Bell-CHSH bound stress suite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .forms import PairFamily, build_dense_pair, build_sum_truncation, commutator
from .theory import (
    LimitSet,
    RhoReport,
    TwoAngleParams,
    bell_chsh_rho,
    outlier_solve_eq4,
    rho_from_lambda,
    select_lambda0,
    two_angle_essential,
)
from .tridiag import (
    DenseSymmetricMatrix,
    SpectrumSample,
    default_tol,
    dense_sym_eigenvalues,
    sturm_count,
    tridiag_eigenvalues,
    tridiag_eigenvalues_at,
)

OUTLIER_MARGIN = 0.02
OUTLIER_ORDER_STEP = 200


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    hausdorff_to_limit: float


def _as_intervals(obj):
    """Normalize a LimitSet or SpectrumSample to a sorted interval list."""
    if isinstance(obj, SpectrumSample):
        return [(float(v), float(v)) for v in obj.values]
    if isinstance(obj, LimitSet):
        ivs = list(obj.intervals) + [(p, p) for p in obj.points]
        return sorted(ivs)
    raise TypeError(f"unsupported operand {type(obj).__name__}")


def _point_to_intervals(x, ivs):
    return min(
        0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi)) for lo, hi in ivs
    )


def _directed(a_ivs, b_ivs):
    # sup over a of dist(., b): attained at interval endpoints of a or at
    # midpoints of b's coverage gaps that fall inside an interval of a
    candidates = []
    for lo, hi in a_ivs:
        candidates.extend((lo, hi))
        for (_, h1), (l2, _) in zip(b_ivs, b_ivs[1:]):
            mid = 0.5 * (h1 + l2)
            if lo <= mid <= hi:
                candidates.append(mid)
    return max(_point_to_intervals(x, b_ivs) for x in candidates)


def hausdorff_distance(a, b):
    """Hausdorff distance between two closed sets on the real line."""
    a_ivs, b_ivs = _as_intervals(a), _as_intervals(b)
    if not a_ivs or not b_ivs:
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
    return _stabilized(s.values, ess, margin, s_next.values)


def _stabilized(values, ess, margin, nxt):
    # the filter of detect_outliers on sorted values; ``nxt`` needs to hold
    # only the next-order eigenvalues that can lie within margin/10 of one
    # of them, and may then be empty
    out = []
    for v in values:
        if ess.distance(v) <= margin:
            continue
        if nxt.size and np.min(np.abs(nxt - v)) < margin / 10.0:
            if not out or abs(v - out[-1]) > 1e-9:
                out.append(float(v))
    return out


def _exterior_eigenvalues(m, ess, dist, tol):
    """Sorted eigenvalues of ``m`` at every index that can lie beyond ``dist``.

    An eigenvalue whose bisected value lies farther than ``dist`` from the
    essential intervals has its exact value farther than ``dist - tol``, so
    Sturm counts at the interval edges widened by ``dist - tol`` bound the
    indices to bisect; the values are those of the full solve, bitwise.
    """
    slack = default_tol(m) if tol is None else tol
    reach = dist - slack
    edges = [x for lo, hi in ess.intervals for x in (lo - reach, hi + reach)]
    counts = [0] + [sturm_count(m, x) for x in edges] + [m.n]
    stretches = [np.arange(a, b) for a, b in zip(counts[::2], counts[1::2])]
    # the stretches overlap only when dist < tol
    idx = np.unique(np.concatenate(stretches))
    return tridiag_eigenvalues_at(m, idx, tol=tol)


def family_params(f):
    """Two-angle constants of the family's limiting (tail) angles."""
    return TwoAngleParams.from_angles(f.omega.tail, f.theta.tail)


def rho_numeric(f, n, exclusion=None, margin=OUTLIER_MARGIN, tol=None):
    """Spectral-radius estimate from finite sections of the family.

    The essential band comes from the tail angles analytically; isolated
    points are the stabilized exterior eigenvalues of truncations at orders
    n and n+200, found as ``detect_outliers`` finds them but bisecting only
    the eigenvalues that can lie outside the band.  Points within 1e-6 of
    ``exclusion`` are removed before the selection step.
    """
    if n < 4 or n % 2 != 0:
        raise ValueError("truncation order must be even and >= 4")
    if margin <= 0:
        raise ValueError("margin must be positive")
    ess = two_angle_essential(family_params(f))
    v1 = _exterior_eigenvalues(build_sum_truncation(f, n), ess, margin, tol)
    # a neighbor within margin/10 of a kept value lies beyond margin - margin/10
    m2 = build_sum_truncation(f, n + OUTLIER_ORDER_STEP)
    v2 = _exterior_eigenvalues(m2, ess, margin - margin / 10.0, tol)
    outliers = _stabilized(v1, ess, margin, v2)
    lam = LimitSet(intervals=ess.intervals, points=tuple(outliers))
    if exclusion is not None:
        lam = lam.without_point(exclusion, 1e-6)
    lam0 = select_lambda0(lam)
    rho = rho_from_lambda(lam0)
    return RhoReport(rho, rho, lam0, "finite-section")


def rho_commutator_direct(p):
    """Direct spectral radius of the commutator of a finite pair.

    The commutator is skew-symmetric, hence normal; its spectral radius is
    the square root of the largest eigenvalue of minus its square.
    """
    c = commutator(p)
    m = DenseSymmetricMatrix(-(c @ c))
    top = dense_sym_eigenvalues(m).values[-1]
    return math.sqrt(max(0.0, top))


def convergence_study(f, orders, limit):
    """Hausdorff distance of each truncation spectrum to the limit set."""
    if list(orders) != sorted(set(orders)):
        raise ValueError("orders must be strictly increasing")
    records = []
    for n in orders:
        sample = tridiag_eigenvalues(build_sum_truncation(f, n))
        records.append(ConvergenceRecord(n=n, hausdorff_to_limit=hausdorff_distance(sample, limit)))
    return records


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


def _random_pair(rng, blocks=3):
    from .forms import AngleSpec

    omega = AngleSpec(tuple(rng.angle() for _ in range(blocks)), rng.angle())
    theta = AngleSpec(tuple(rng.angle() for _ in range(max(1, blocks - 1))), rng.angle())
    return build_dense_pair(PairFamily(omega, theta), blocks)


def tsirelson_suite(seed, trials):
    """Max Bell-CHSH spectral radius over random finite involution pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = Lcg(seed)
    best = 0.0
    for _ in range(trials):
        r1 = rho_commutator_direct(_random_pair(rng))
        r2 = rho_commutator_direct(_random_pair(rng))
        best = max(best, bell_chsh_rho(min(2.0, r1), min(2.0, r2)))
    return best


def lambda_max_outlier(omega, theta):
    """Largest isolated point of the one-head family, or None."""
    sols = outlier_solve_eq4(omega, theta)
    return max((r.lam for r in sols), default=None)


def solve_lambda_max_crossing(omega=math.pi / 2, lo=2.36, hi=2.60, tol=1e-9):
    """Angle where the outlier curve meets 2|cos theta| (one-head family)."""

    def gap(theta):
        lam = lambda_max_outlier(omega, theta)
        if lam is None:
            raise ValueError(f"no isolated point at theta={theta}")
        return lam - 2.0 * abs(math.cos(theta))

    f_lo = gap(lo)
    f_hi = gap(hi)
    if f_lo * f_hi > 0:
        raise ValueError("crossing not bracketed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = gap(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
