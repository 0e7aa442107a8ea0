"""Closed-form spectral results for one-shifted involution pairs.

Everything here is analytic: the commutator spectral-radius formula driven
by the point of the sum's spectrum whose square is closest to 2, the exact
limit spectra of constant-angle families, the essential-spectrum intervals
and the special point c - gamma for two-angle families, the outlier
equation solver, and the Bell-CHSH combination rule.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

SQRT2 = math.sqrt(2.0)


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
    """Spectral-radius result; rho_low == rho_high when the value is exact."""

    rho_low: float
    rho_high: float
    lambda0: Optional[float]
    branch: str

    @property
    def exact(self):
        return self.rho_low == self.rho_high

    @property
    def rho(self):
        if not self.exact:
            raise ValueError("only an interval is known; use rho_low/rho_high")
        return self.rho_high


@dataclass(frozen=True)
class OutlierSolveResult:
    """An isolated spectrum point outside the essential band, with its decay root."""

    lam: float
    q: float


def rho_from_lambda(lambda0):
    """sqrt(lambda0^2 * (4 - lambda0^2)), clamped into [0, 2]."""
    if abs(lambda0) > 2.0 + 1e-12:
        raise ValueError("spectrum point must satisfy |lambda| <= 2")
    t = lambda0 * lambda0
    return min(2.0, math.sqrt(max(0.0, t * (4.0 - t))))


def _squared_gap(v):
    return abs(v * v - 2.0)


def select_lambda0(spec):
    """Point of the set whose square is closest to 2.

    This is the squared-distance criterion: on {-0.2, 0.2, 2} it selects
    0.2, not the point 2 that is nearest to sqrt(2).  Exact floating-point
    ties break toward the nonnegative candidate of smallest magnitude.
    Points that are equal only in exact arithmetic, such as the bisected
    +-0.2 of the 3x3 example, are split by rounding of their squared gaps,
    which there selects -0.2.
    """
    if spec.empty:
        raise ValueError("empty set")
    candidates = list(spec.points)
    for lo, hi in spec.intervals:
        candidates.extend((lo, hi))
        for target in (SQRT2, -SQRT2):
            if lo <= target <= hi:
                candidates.append(target)
    return min(candidates, key=lambda v: (_squared_gap(v), 0 if v >= 0 else 1, abs(v)))


def constant_angle_limit_set(theta):
    """Exact spectrum of the constant-angle sum: [-2s, 2s], plus 2 below pi/2."""
    if not (0.0 < theta < math.pi):
        raise ValueError("theta must lie in (0, pi)")
    s2 = 2.0 * math.sin(theta)
    points = (2.0,) if theta < math.pi / 2 and s2 < 2.0 else ()
    return LimitSet(intervals=((-s2, s2),), points=points)


def _decay_root(lam, s):
    """Root of q^2 - (lam/s) q + 1 with modulus < 1 (requires |lam| > 2s)."""
    mu = lam / s
    return 0.5 * (mu - math.copysign(math.sqrt(mu * mu - 4.0), mu))


def wiener_hopf_outlier_check(theta, lam, tol=1e-9):
    """Decide whether ``lam`` outside the essential band is an outlier.

    The factorization of the shifted symbol puts the decision into one
    scalar: the growing root of q^2 - (lam/s) q + 1 must equal (1+c)/s.
    """
    s, c = math.sin(theta), math.cos(theta)
    if abs(lam) <= 2.0 * s:
        raise ValueError("lam lies inside the essential band [-2s, 2s]")
    q2 = 1.0 / _decay_root(lam, s)
    return abs(1.0 - (1.0 + c) / (s * q2)) <= tol


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


def outlier_solve_eq4(omega, theta, grid=10_000, tol=1e-13):
    """All isolated points lam with 2s < |lam| <= 2 of the one-head family.

    The coupled system is the quadratic in lam with the decay root q(lam)
    substituted; its residual is scanned for sign changes on both sides of
    the essential band and refined by bisection.
    """
    if not (0.0 < omega < math.pi and 0.0 < theta < math.pi):
        raise ValueError("angles must lie in (0, pi)")
    gamma, c, s = math.cos(omega), math.cos(theta), math.sin(theta)

    def residual(lam):
        q = _decay_root(lam, s)
        return lam * lam - (c + s * q + 1.0) * lam + (1.0 + gamma) * (c + s * q - 1.0)

    results = []
    lo_abs = 2.0 * s * (1.0 + 1e-9)
    if lo_abs < 2.0:
        for sign in (1.0, -1.0):
            xs = sign * np.linspace(lo_abs, 2.0, grid)
            fs = np.array([residual(x) for x in xs])
            for i in range(grid - 1):
                a, b = xs[i], xs[i + 1]
                fa, fb = fs[i], fs[i + 1]
                if fa == 0.0:
                    results.append(float(a))
                    continue
                if fa * fb < 0.0:
                    while abs(b - a) > tol:
                        mid = 0.5 * (a + b)
                        fm = residual(mid)
                        if fm == 0.0:
                            a = b = mid
                        elif fa * fm < 0.0:
                            b = mid
                        else:
                            a, fa = mid, fm
                    results.append(0.5 * (a + b))
            if fs[-1] == 0.0:
                results.append(float(xs[-1]))
    out = []
    for lam in sorted(set(results)):
        if any(abs(lam - r.lam) <= 1e-10 for r in out):
            continue
        out.append(OutlierSolveResult(lam=lam, q=_decay_root(lam, s)))
    return out


def rho_two_constant_angles(omega, theta=None):
    """Exact commutator spectral radius for the two-constant-angle family.

    Accepts either two angles or a ready TwoAngleParams.  Piecewise in
    theta with a plateau of width 2*min(omega, pi - omega) around pi/2.
    The outer branches come from the band edges lambda2 and lambda1;
    absolute values keep them nonnegative on every subinterval.
    """
    p = omega if isinstance(omega, TwoAngleParams) else TwoAngleParams.from_angles(omega, theta)
    om, th = p.omega, p.theta
    half_pi = math.pi / 2
    if om <= half_pi:
        if th <= half_pi - om:
            rho = 2.0 * math.sin(th + om)
            return RhoReport(rho, rho, p.lambda2, "outer-band-edge")
        if th <= half_pi + om:
            return RhoReport(2.0, 2.0, SQRT2, "sqrt2-in-band")
        rho = 2.0 * abs(math.sin(th - om))
        return RhoReport(rho, rho, p.lambda1, "inner-band-edge")
    if th <= om - half_pi:
        rho = 2.0 * abs(math.sin(th - om))
        return RhoReport(rho, rho, p.lambda1, "inner-band-edge")
    if th <= 3 * half_pi - om:
        return RhoReport(2.0, 2.0, SQRT2, "sqrt2-in-band")
    rho = 2.0 * abs(math.sin(th + om))
    return RhoReport(rho, rho, p.lambda2, "outer-band-edge")


def theorem_bounds_general(p, lam, exclusion_tol=1e-9):
    """Spectral-radius bounds from a limit set of a two-angle family.

    Exact whenever sqrt(2) lies in the essential band or the selected point
    differs from c - gamma.  When the selected point is c - gamma the value
    may be spurious (the point can come from the reflected symbol only), so
    a sandwich is returned instead.
    """
    if p.lambda1 <= SQRT2 <= p.lambda2:
        return RhoReport(2.0, 2.0, SQRT2, "sqrt2-in-band")
    lam0 = select_lambda0(lam)
    special = p.c - p.gamma
    if abs(lam0 - special) > exclusion_tol:
        rho = rho_from_lambda(lam0)
        return RhoReport(rho, rho, lam0, "limit-set-point")
    reduced = lam.without_point(special, exclusion_tol)
    lam_star = select_lambda0(reduced)
    return RhoReport(
        rho_from_lambda(lam_star),
        min(2.0, rho_from_lambda(lam0)),
        lam0,
        "sandwich-around-special-point",
    )


def bell_chsh_rho(rho1, rho2):
    """Combined Bell-CHSH spectral radius sqrt(4 + rho1 * rho2)."""
    for r in (rho1, rho2):
        if not (0.0 <= r <= 2.0 + 1e-12):
            raise ValueError("commutator spectral radii must lie in [0, 2]")
    return math.sqrt(4.0 + rho1 * rho2)
