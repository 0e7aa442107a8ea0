import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneshift.forms import PairFamily, build_sum_truncation
from oneshift.theory import (
    LimitSet,
    TwoAngleParams,
    bell_chsh_rho,
    constant_angle_limit_set,
    outlier_solve_eq4,
    rho_constant_angle,
    rho_from_lambda,
    rho_two_constant_angles,
    select_lambda0,
    tilde_point,
    two_angle_essential,
    wiener_hopf_outlier_check,
)
from oneshift.tridiag import sturm_count, tridiag_eigenvalues

SQRT2 = math.sqrt(2.0)
ANGLES = st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True)


class TestRhoFromLambda:
    def test_maximizer(self):
        assert abs(rho_from_lambda(SQRT2) - 2.0) < 1e-12

    def test_zeros(self):
        assert rho_from_lambda(0.0) == 0.0
        assert rho_from_lambda(2.0) == 0.0

    def test_interior_value(self):
        assert abs(rho_from_lambda(1.5) - math.sqrt(3.9375)) < 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rho_from_lambda(2.1)

    def test_accepts_section_eigenvalue_beyond_two(self):
        # bisection leaves this largest eigenvalue 1.13e-12 above ||A + B|| <= 2
        m = build_sum_truncation(PairFamily.perturbed_heads(0.7717338500043578), 40)
        lam = tridiag_eigenvalues(m).values[-1]
        assert lam > 2.0 + 1e-12
        assert rho_from_lambda(lam) == 0.0

    @given(st.floats(min_value=5e-324, max_value=1e-100))
    @example(1e-200)
    @example(1e-158)
    @example(1.5e-154)
    @settings(max_examples=200, deadline=None)
    def test_tiny_lambda_gives_twice_its_magnitude(self, lam):
        # lam^2 underflows below 1.49e-154; rho = |lam| sqrt(4 - lam^2) = 2|lam|
        assert rho_from_lambda(lam) == pytest.approx(2.0 * lam, rel=1e-15, abs=0.0)
        assert rho_from_lambda(-lam) == rho_from_lambda(lam)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_the_tiny_branch_moves_no_other_bits(self, lam):
        t = lam * lam
        formula = min(2.0, math.sqrt(max(0.0, t * (4.0 - t))))
        assert rho_from_lambda(lam) == (2.0 * abs(lam) if t < sys.float_info.min else formula)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetries(self, lam):
        assert rho_from_lambda(lam) == rho_from_lambda(-lam)
        # near lam = 0 the mirrored argument rounds to exactly 2, so allow
        # for the rounding of 4 - lam^2 at the top of the range
        mirrored = math.sqrt(max(0.0, 4.0 - lam * lam))
        assert abs(rho_from_lambda(lam) - rho_from_lambda(min(2.0, mirrored))) < 1e-7


class TestSelectLambda0:
    def test_squared_criterion_not_nearest_to_sqrt2(self):
        assert select_lambda0(LimitSet(points=(-0.2, 0.2, 2.0))) == 0.2

    def test_rounded_gap_ties_go_by_the_exact_gap(self):
        # both squared gaps round to 2.0; the larger point's is smaller
        assert abs(1e-9 * 1e-9 - 2.0) == abs(2e-9 * 2e-9 - 2.0)
        assert select_lambda0(LimitSet(points=(1e-9, 2e-9))) == 2e-9
        assert select_lambda0(LimitSet(points=(-2e-9, 1e-9))) == -2e-9
        # rounded gaps one ulp apart in the order the exact gaps reverse
        assert abs(1.9290592092666174**2 - 2.0) < abs(0.5279493982794683**2 - 2.0)
        assert select_lambda0(LimitSet(points=(0.5279493982794683, 1.9290592092666174))) == 0.5279493982794683
        # the tiny band ends l1 < l2 of angles both near pi
        ess = two_angle_essential(TwoAngleParams.from_angles(3.141592649721693, 3.1415926535833307))
        (_, _), (l1, l2) = ess.intervals
        assert abs(l1 * l1 - 2.0) == abs(l2 * l2 - 2.0) and l1 < l2
        assert select_lambda0(ess) == l2

    def test_interval_containing_sqrt2(self):
        assert select_lambda0(LimitSet(intervals=((-1.8, 1.8),))) == SQRT2

    def test_single_point(self):
        assert select_lambda0(LimitSet(points=(2.0,))) == 2.0

    def test_tie_prefers_nonnegative_small(self):
        # 0 and 2 are both at squared distance 2
        assert select_lambda0(LimitSet(points=(0.0, 2.0))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_lambda0(LimitSet())


class TestConstantAngleLimitSet:
    def test_below_half_pi_has_isolated_point(self):
        ls = constant_angle_limit_set(math.pi / 3)
        assert ls.points == (2.0,)
        (lo, hi) = ls.intervals[0]
        assert abs(lo + math.sqrt(3)) < 1e-15 and abs(hi - math.sqrt(3)) < 1e-15

    def test_above_half_pi_no_point(self):
        ls = constant_angle_limit_set(2 * math.pi / 3)
        assert ls.points == ()

    def test_half_pi_point_absorbed(self):
        ls = constant_angle_limit_set(math.pi / 2)
        assert ls.points == ()
        assert ls.intervals == ((-2.0, 2.0),)

    def test_equals_the_closed_form(self):
        # built from the two-angle band and the outlier solver, the set must
        # be the closed form exactly, also on the 50 doubles on each side of
        # pi/2, where sin(theta) rounds to 1 and tan(theta/2) is 1 to 1e-13
        below, above = [math.pi / 2], [math.pi / 2]
        for _ in range(50):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], 4.0))
        for theta in np.linspace(0.0, math.pi, 20_001)[1:-1].tolist() + below + above[1:]:
            s2 = 2.0 * math.sin(theta)
            ls = constant_angle_limit_set(theta)
            assert ls.intervals == ((-s2, s2),)
            assert ls.points == ((2.0,) if theta < math.pi / 2 and s2 < 2.0 else ())


class TestWienerHopfCheck:
    def test_point_two_is_in_spectrum_below_half_pi(self):
        assert wiener_hopf_outlier_check(math.pi / 3, 2.0)

    def test_no_exterior_point_above_half_pi(self):
        assert not wiener_hopf_outlier_check(2 * math.pi / 3, 1.9)

    def test_negative_side_rejected_below_half_pi(self):
        assert not wiener_hopf_outlier_check(math.pi / 4, -2.0)

    def test_interior_point_rejected(self):
        with pytest.raises(ValueError):
            wiener_hopf_outlier_check(math.pi / 3, 1.0)


class TestRhoConstantAngle:
    def test_low_branch(self):
        assert abs(rho_constant_angle(math.pi / 6).rho - math.sqrt(3)) < 1e-15

    def test_plateau(self):
        assert rho_constant_angle(math.pi / 2).rho == 2.0

    def test_high_branch(self):
        assert abs(rho_constant_angle(0.9 * math.pi).rho - 2 * math.sin(0.2 * math.pi)) < 1e-12

    @given(st.floats(min_value=0.05, max_value=math.pi - 0.05))
    @settings(max_examples=200, deadline=None)
    def test_composition_of_ingredients(self, theta):
        direct = rho_constant_angle(theta).rho
        composed = rho_from_lambda(select_lambda0(constant_angle_limit_set(theta)))
        assert abs(direct - composed) < 1e-12


class TestTwoAngleParams:
    def test_lambda_identities(self):
        p = TwoAngleParams.from_angles(0.3, 2.0)
        assert abs(p.lambda1**2 - ((p.c - p.gamma) ** 2 + (p.s - p.delta) ** 2)) < 1e-14
        assert abs(p.lambda2**2 - ((p.c - p.gamma) ** 2 + (p.s + p.delta) ** 2)) < 1e-14

    def test_ordering_chain(self):
        p = TwoAngleParams.from_angles(0.3, 2.0)
        assert -2 <= -p.lambda2 < -p.lambda1 < p.c - p.gamma < p.lambda1 < p.lambda2 <= 2

    def test_essential_intervals_match_symbol_extrema(self):
        p = TwoAngleParams.from_angles(0.3, 2.0)
        phi = np.linspace(0.0, 2 * math.pi, 100_000)
        lam = np.sqrt(
            (p.c - p.gamma) ** 2 + p.delta**2 + 2 * p.delta * p.s * np.cos(phi) + p.s**2
        )
        ess = two_angle_essential(p)
        (lo2, lo1), (hi1, hi2) = ess.intervals
        assert abs(hi1 - lam.min()) < 1e-8
        assert abs(hi2 - lam.max()) < 1e-8
        assert abs(lo1 + lam.min()) < 1e-8 and abs(lo2 + lam.max()) < 1e-8

    def test_equal_angles_merge(self):
        p = TwoAngleParams.from_angles(1.1, 1.1)
        ess = two_angle_essential(p)
        assert len(ess.intervals) == 1

    def test_full_band_at_half_pi(self):
        p = TwoAngleParams.from_angles(math.pi / 2, math.pi / 2)
        assert two_angle_essential(p).intervals == ((-2.0, 2.0),)


class TestTildePoint:
    def test_present_when_s_exceeds_delta(self):
        p = TwoAngleParams.from_angles(0.3, 2.0)
        assert tilde_point(p) == pytest.approx(math.cos(2.0) - math.cos(0.3), abs=1e-15)

    def test_absent_otherwise(self):
        assert tilde_point(TwoAngleParams.from_angles(2.4, 0.2)) is None

    def test_equality_boundary_absent(self):
        assert tilde_point(TwoAngleParams.from_angles(1.0, 1.0)) is None


class TestOutlierSolve:
    def test_rational_anchor(self):
        sols = outlier_solve_eq4(math.pi / 2, math.acos(-0.8))
        lams = sorted(r.lam for r in sols)
        assert np.allclose(lams, [-1.5, 1.5], atol=1e-10)
        q = max(sols, key=lambda r: r.lam).q
        assert abs(q - 0.5) < 1e-10

    def test_no_room_at_half_pi(self):
        assert outlier_solve_eq4(math.pi / 2, math.pi / 2) == []

    def test_residual_invariants(self):
        for om, th in [(math.pi / 2, 2.0), (0.7, 2.6), (math.pi / 2, math.acos(-0.8))]:
            gamma, c, s = math.cos(om), math.cos(th), math.sin(th)
            for r in outlier_solve_eq4(om, th):
                assert abs(r.q) < 1.0
                assert abs(r.q**2 - (r.lam / s) * r.q + 1.0) < 1e-12
                eq = r.lam**2 - (c + s * r.q + 1.0) * r.lam + (1.0 + gamma) * (c + s * r.q - 1.0)
                assert abs(eq) < 1e-10

    @given(
        st.floats(min_value=0.05, max_value=math.pi - 0.05),
        st.floats(min_value=0.05, max_value=math.pi - 0.05).filter(lambda t: abs(t - math.pi / 2) >= 1e-3),
    )
    @example(1.133, 0.701)
    @example(1.625, 0.441)
    @example(2.597, 0.220)
    @example(1.28, 0.77)
    @example(2.07, 1.33)
    @settings(max_examples=100, deadline=None)
    def test_points_are_section_eigenvalues(self, om, th):
        gamma, c, s = math.cos(om), math.cos(th), math.sin(th)
        sols = outlier_solve_eq4(om, th)
        m = build_sum_truncation(PairFamily.head_omega(om, th), 600)
        for r in sols:
            eq = r.lam**2 - (c + s * r.q + 1.0) * r.lam + (1.0 + gamma) * (c + s * r.q - 1.0)
            assert abs(eq) < 1e-10
            if abs(r.q) <= 0.99:
                # an eigenvalue of the order-600 section within 1e-6
                assert sturm_count(m, r.lam + 1e-6) > sturm_count(m, r.lam - 1e-6)
        assert any(abs(r.lam - 2.0) <= 1e-12 for r in sols) == (th < math.pi / 2)

    @pytest.mark.parametrize("theta", [0.05, 0.4, 1.0, 1.5, 1.65, 2.2, 3.0])
    def test_constant_angle_points(self, theta):
        sols = outlier_solve_eq4(theta, theta)
        points = constant_angle_limit_set(theta).points
        assert len(sols) == len(points)
        for r, p in zip(sols, points):
            assert abs(r.lam - p) <= 1e-12
            assert wiener_hopf_outlier_check(theta, r.lam)


class TestRhoTwoConstantAngles:
    def test_plateau(self):
        assert rho_two_constant_angles(math.pi / 6, math.pi / 2).rho == 2.0

    def test_sum_branch(self):
        r = rho_two_constant_angles(math.pi / 6, math.pi / 4)
        assert abs(r.rho - 2 * math.sin(5 * math.pi / 12)) < 1e-12

    def test_difference_branch(self):
        r = rho_two_constant_angles(0.3, 2.0)
        assert abs(r.rho - 2 * abs(math.sin(1.7))) < 1e-12

    def test_large_omega_mirror(self):
        # third branch with omega above pi/2 stays nonnegative
        r = rho_two_constant_angles(2.4, 3.0)
        assert r.rho == pytest.approx(2 * abs(math.sin(5.4)), abs=1e-12)
        assert r.rho >= 0.0

    @given(
        st.floats(min_value=0.05, max_value=math.pi - 0.05),
        st.floats(min_value=0.05, max_value=math.pi - 0.05),
    )
    @settings(max_examples=200, deadline=None)
    def test_always_within_tsirelson(self, om, th):
        r = rho_two_constant_angles(om, th)
        assert 0.0 <= r.rho <= 2.0 + 1e-12

    @given(ANGLES, ANGLES)
    @example(0.3, math.pi / 2 - 0.3)
    @example(0.3, math.pi / 2 + 0.3)
    @example(2.4, 2.4 - math.pi / 2)
    @example(2.4, 1.5 * math.pi - 2.4)
    @example(math.pi / 2, math.pi / 2)
    @example(3.140625, 5e-324)
    @example(3.141592649721693, 3.1415926535833307)
    @settings(max_examples=500, deadline=None)
    def test_equals_the_selection_rule_on_the_band(self, om, th):
        # the closed form summarizes rho at the band point whose square is
        # closest to 2, on either side of omega = pi/2; on 200,000 uniform
        # pairs the two differed by 3.4e-14 at most.  For angles both near
        # pi the band ends l1 < l2 are tiny and their squared gaps round
        # alike; the rule tells them apart by the exact gaps (the last
        # example).  It is read within 4 ulps of its point: near lambda = 2,
        # sqrt(l^2 (4 - l^2)) turns one rounding of l into thousands of ulps
        # of a small rho (2.7e-13 at the example before it).
        lam = select_lambda0(two_angle_essential(TwoAngleParams.from_angles(om, th)))
        near = [rho_from_lambda(lam + k * math.ulp(lam)) for k in (-4, 0, 4)]
        assert min(near) - 1e-13 <= rho_two_constant_angles(om, th).rho <= max(near) + 1e-13


class TestBellChsh:
    def test_tsirelson_value(self):
        assert abs(bell_chsh_rho(2.0, 2.0) - 2 * SQRT2) < 1e-15

    def test_commuting_factor(self):
        assert bell_chsh_rho(0.0, 1.7) == 2.0

    def test_paper_arithmetic(self):
        assert abs(bell_chsh_rho(math.sqrt(3.9375), 2.0) - math.sqrt(4 + 2 * math.sqrt(3.9375))) < 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bell_chsh_rho(-0.1, 1.0)
        with pytest.raises(ValueError):
            bell_chsh_rho(1.0, 2.5)
        with pytest.raises(ValueError):
            bell_chsh_rho(1.0, math.nextafter(2.0, 3.0))


class TestLimitSet:
    def test_merges_and_absorbs(self):
        ls = LimitSet(intervals=((0.0, 1.0), (0.5, 2.0)), points=(1.5, 3.0, 3.0))
        assert ls.intervals == ((0.0, 2.0),)
        assert ls.points == (3.0,)

    def test_distance(self):
        ls = LimitSet(intervals=((1.0, 2.0),), points=(5.0,))
        assert ls.distance(0.0) == 1.0
        assert ls.distance(1.5) == 0.0
        assert ls.distance(4.0) == 1.0

    def test_without_point(self):
        ls = LimitSet(points=(1.0, 2.0))
        assert ls.without_point(2.0, 1e-6).points == (1.0,)
