"""Closed-form spectral results for one-shifted involution pairs.

Everything here is analytic: the commutator spectral-radius formula driven
by the point of the sum's spectrum whose square is closest to 2, the exact
limit spectra of constant-angle families, the essential-spectrum intervals
and the special point c - gamma for two-angle families, the outlier
equation solver, and the Bell-CHSH combination rule.  A spectral radius is
one number (``RhoReport``): each family solved here has a closed form or a
constant-angle tail, where s = delta and no point c - gamma needs a bound.
"""

import math
import sys
from dataclasses import dataclass

SQRT2 = math.sqrt(2.0)
# How far a computed eigenvalue of a section of A + B may lie beyond the
# bound ||A + B|| <= 2: the default bisection tolerance is 1e-12 * scale,
# and the Gershgorin scale of a sum section is at most 4.
LAMBDA_SLACK = 4e-12


@dataclass(frozen=True)
class LimitSet:
    """Union of closed real intervals and isolated points."""

    intervals: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        ivs = sorted((float(lo), float(hi)) for lo, hi in self.intervals)
        merged = []
        for lo, hi in ivs:
            if hi < lo:
                raise ValueError("interval endpoints out of order")
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        pts = []
        for p in sorted(float(p) for p in self.points):
            if any(lo <= p <= hi for lo, hi in merged):
                continue
            if pts and p == pts[-1]:
                continue
            pts.append(p)
        object.__setattr__(self, "intervals", tuple(merged))
        object.__setattr__(self, "points", tuple(pts))

    @property
    def empty(self):
        return not self.intervals and not self.points

    def without_point(self, value, tol):
        """Copy with isolated points within ``tol`` of ``value`` removed."""
        kept = tuple(p for p in self.points if abs(p - value) > tol)
        return LimitSet(intervals=self.intervals, points=kept)

    def distance(self, x):
        """Distance from a real number to the set."""
        if self.empty:
            raise ValueError("empty set")
        best = math.inf
        for lo, hi in self.intervals:
            best = min(best, 0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi)))
        for p in self.points:
            best = min(best, abs(x - p))
        return best


@dataclass(frozen=True)
class TwoAngleParams:
    """Derived constants of a pair with block angles omega and theta."""

    omega: float
    theta: float
    gamma: float
    delta: float
    c: float
    s: float
    lambda1: float
    lambda2: float

    @classmethod
    def from_angles(cls, omega, theta):
        if not (0.0 < omega < math.pi and 0.0 < theta < math.pi):
            raise ValueError("angles must lie in (0, pi)")
        return cls(
            omega=omega,
            theta=theta,
            gamma=math.cos(omega),
            delta=math.sin(omega),
            c=math.cos(theta),
            s=math.sin(theta),
            lambda1=2.0 * abs(math.sin(0.5 * (theta - omega))),
            lambda2=2.0 * abs(math.sin(0.5 * (theta + omega))),
        )


@dataclass(frozen=True)
class RhoReport:
    """Spectral radius ``rho`` of a commutator: sqrt(l^2 (4 - l^2)) at the
    point l = ``lambda0`` of the sum's spectrum that the rule ``branch`` chose."""

    rho: float
    lambda0: float
    branch: str


@dataclass(frozen=True)
class OutlierSolveResult:
    """An isolated spectrum point outside the essential band, with its decay root."""

    lam: float
    q: float


def rho_from_lambda(lambda0):
    """sqrt(lambda0^2 * (4 - lambda0^2)), clamped into [0, 2].

    Where lambda0^2 is below the normal range, 4 - lambda0^2 rounds to 4
    and the value is 2 |lambda0|, which the square would lose to underflow.
    """
    if abs(lambda0) > 2.0 + LAMBDA_SLACK:
        raise ValueError("spectrum point must satisfy |lambda| <= 2")
    t = lambda0 * lambda0
    if t < sys.float_info.min:
        return 2.0 * abs(lambda0)
    return min(2.0, math.sqrt(max(0.0, t * (4.0 - t))))


def _exact_squared_gap(v):
    # |v^2 - 2| times 4^1074, an integer: v = p / q with q = 2^k, k <= 1074
    p, q = v.as_integer_ratio()
    return abs(p * p - 2 * q * q) << 2 * (1075 - q.bit_length())


def select_lambda0(spec):
    """Point of the set whose square is closest to 2.

    This is the squared-distance criterion: on {-0.2, 0.2, 2} it selects
    0.2, not the point 2 that is nearest to sqrt(2).  Candidates are
    compared by their exact squared gaps, so two points whose gaps round
    alike, such as tiny band ends l1 < l2, are told apart.  Exact ties
    break toward the nonnegative candidate of smallest magnitude.
    """
    if spec.empty:
        raise ValueError("empty set")
    candidates = list(spec.points)
    for lo, hi in spec.intervals:
        candidates.extend((lo, hi))
        for target in (SQRT2, -SQRT2):
            if lo <= target <= hi:
                candidates.append(target)
    return min(candidates, key=lambda v: (_exact_squared_gap(v), 0 if v >= 0 else 1, abs(v)))


def constant_angle_limit_set(theta):
    """Exact spectrum of the constant-angle sum, the two-angle family with
    omega = theta: [-2s, 2s], plus 2 below pi/2 (``outlier_solve_eq4``)."""
    ess = two_angle_essential(TwoAngleParams.from_angles(theta, theta))
    return LimitSet(intervals=ess.intervals, points=tuple(r.lam for r in outlier_solve_eq4(theta, theta)))


def _decay_root(lam, s):
    """Root of q^2 - (lam/s) q + 1 with modulus < 1 (requires |lam| > 2s)."""
    mu = lam / s
    return 0.5 * (mu - math.copysign(math.sqrt(mu * mu - 4.0), mu))


def wiener_hopf_outlier_check(theta, lam):
    """Decide whether ``lam`` outside the essential band is an outlier.

    The factorization of the shifted symbol puts the decision into one
    scalar: the growing root of q^2 - (lam/s) q + 1 must equal (1+c)/s.
    """
    s, c = math.sin(theta), math.cos(theta)
    if abs(lam) <= 2.0 * s:
        raise ValueError("lam lies inside the essential band [-2s, 2s]")
    q2 = 1.0 / _decay_root(lam, s)
    return abs(1.0 - (1.0 + c) / (s * q2)) <= 1e-9


def rho_constant_angle(theta):
    """Exact commutator spectral radius for the constant-angle family.

    The family is the two-constant family with omega = theta.
    """
    return rho_two_constant_angles(theta, theta)


def two_angle_essential(p):
    """Essential spectrum [-l2, -l1] u [l1, l2]; one interval when l1 = 0."""
    l1, l2 = p.lambda1, p.lambda2
    if l1 <= 1e-12:
        return LimitSet(intervals=((-l2, l2),))
    return LimitSet(intervals=((-l2, -l1), (l1, l2)))


def tilde_point(p):
    """The extra limit-set point c - gamma, present exactly when s > delta."""
    return p.c - p.gamma if p.s > p.delta else None


def outlier_solve_eq4(omega, theta):
    """All isolated points lam with 2s < |lam| <= 2 of the one-head family.

    Putting lam = s(q + 1/q), with q the decay root, into the outlier
    equation lam^2 - (c + s q + 1) lam + (1 + gamma)(c + s q - 1) = 0 and
    multiplying by q^2 leaves a cubic in q, as the q^4 terms cancel:
    s(gamma - c) q^3 + (s^2 + (1 + gamma)(c - 1)) q^2 - s(c + 1) q + s^2.
    It factors as s (q - tan(theta/2)) ((gamma - c) q^2 - (1 + c)).  The
    root q = tan(theta/2) makes c + s q = 1 and lam = 2, a decay root
    exactly when theta < pi/2; the other two roots are
    q = +-sqrt((1 + c) / (gamma - c)), decay roots when 1 + c < gamma - c,
    which needs c < 0.  So the point 2 and the pair +-lam never occur
    together, and no root is double.  The points are sorted by lam.
    """
    if not (0.0 < omega < math.pi and 0.0 < theta < math.pi):
        raise ValueError("angles must lie in (0, pi)")
    gamma, c, s = math.cos(omega), math.cos(theta), math.sin(theta)
    roots = [(2.0, math.tan(0.5 * theta))]
    if 0.0 < 1.0 + c < gamma - c:  # 0 < q^2 < 1
        q = math.sqrt((1.0 + c) / (gamma - c))
        lam = s * (q + 1.0 / q)
        roots += [(-lam, -q), (lam, q)]
    kept = [(lam, q) for lam, q in roots if abs(q) < 1.0 and 2.0 * s < abs(lam) <= 2.0 + LAMBDA_SLACK]
    return [OutlierSolveResult(lam=lam, q=q) for lam, q in sorted(kept)]


def rho_two_constant_angles(omega, theta=None):
    """Exact commutator spectral radius for the two-constant-angle family.

    Accepts either two angles or a ready TwoAngleParams.  Piecewise in
    theta with a plateau of width 2*min(omega, pi - omega) around pi/2.
    Off it rho comes from a band edge, lambda2 (outer) or lambda1 (inner);
    absolute values keep both branches nonnegative on every subinterval.
    """
    p = omega if isinstance(omega, TwoAngleParams) else TwoAngleParams.from_angles(omega, theta)
    om, th = p.omega, p.theta
    half_pi = math.pi / 2
    outer = (2.0 * abs(math.sin(th + om)), p.lambda2, "outer-band-edge")
    inner = (2.0 * abs(math.sin(th - om)), p.lambda1, "inner-band-edge")
    # rho(pi - omega, pi - theta) = rho(omega, theta), so the edge below the
    # plateau for one omega lies above it for the other
    below, above = (outer, inner) if om <= half_pi else (inner, outer)
    if th <= abs(half_pi - om):
        return RhoReport(*below)
    if th <= (half_pi + om if om <= half_pi else 3 * half_pi - om):
        return RhoReport(2.0, SQRT2, "sqrt2-in-band")
    return RhoReport(*above)


def bell_chsh_rho(rho1, rho2):
    """Combined Bell-CHSH spectral radius sqrt(4 + rho1 * rho2)."""
    for r in (rho1, rho2):
        if not (0.0 <= r <= 2.0):
            raise ValueError("commutator spectral radii must lie in [0, 2]")
    return math.sqrt(4.0 + rho1 * rho2)
