import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import commutator, involution
from oneshift import analysis, cli
from oneshift.analysis import (
    Lcg,
    detect_outliers,
    hausdorff_distance,
    rho_commutator_direct,
    rho_numeric,
    tsirelson_suite,
)
from oneshift.forms import (
    AngleSpec,
    DenseSymmetricMatrix,
    GeneralPair,
    PairFamily,
    build_dense_pair,
    build_sum_truncation,
    paper_example_3x3,
    rotation_block,
)
from oneshift.theory import (
    LimitSet,
    TwoAngleParams,
    bell_chsh_rho,
    constant_angle_limit_set,
    outlier_solve_eq4,
    rho_from_lambda,
    rho_two_constant_angles,
    select_lambda0,
    two_angle_essential,
)
from oneshift.tridiag import (
    SpectrumSample,
    TridiagonalSymmetricMatrix,
    dense_sym_eigenvalues,
    sections_eigenvalues_at,
    tridiag_eigenvalues,
)

RATIONAL_THETA = math.acos(-0.8)
# angles down to the smallest subnormal and up to the last double below pi
END_WEIGHTED_ANGLES = st.one_of(
    st.floats(0.05, math.pi - 0.05),
    st.floats(0.0, 1e-3, exclude_min=True),
    st.floats(math.pi - 1e-3, math.pi, exclude_max=True),
)


def spectrum(f, n):
    return tridiag_eigenvalues(build_sum_truncation(f, n))


class TestHausdorff:
    def test_identical_points(self):
        a = SpectrumSample(values=np.array([0.0]))
        assert hausdorff_distance(a, a) == 0.0

    def test_point_to_interval(self):
        # directed distances: point->interval clamps to 1, interval->point
        # is attained at the far endpoint, so the metric value is 2
        a = SpectrumSample(values=np.array([0.0]))
        b = LimitSet(intervals=((1.0, 2.0),))
        assert hausdorff_distance(a, b) == 2.0

    def test_directed_max(self):
        a = SpectrumSample(values=np.array([-1.0, 3.0]))
        b = SpectrumSample(values=np.array([0.0]))
        assert hausdorff_distance(a, b) == 3.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = SpectrumSample(values=np.sort(rng.normal(size=12)))
        b = LimitSet(intervals=((-0.5, 0.5),), points=(2.0,))
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)

    def test_gap_midpoint_matters(self):
        # the farthest point of [0, 2] from {0, 2} is the midpoint 1
        a = LimitSet(intervals=((0.0, 2.0),))
        b = SpectrumSample(values=np.array([0.0, 2.0]))
        assert hausdorff_distance(a, b) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_distance(LimitSet(), LimitSet(points=(0.0,)))


def reference_hausdorff(a, b):
    """The scalar Hausdorff distance that ``hausdorff_distance`` replaced,
    kept as the reference it must equal bitwise."""

    def as_intervals(obj):
        if isinstance(obj, SpectrumSample):
            return [(float(v), float(v)) for v in obj.values]
        return sorted(list(obj.intervals) + [(p, p) for p in obj.points])

    def point_to_intervals(x, ivs):
        return min(0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi)) for lo, hi in ivs)

    def directed(a_ivs, b_ivs):
        candidates = []
        for lo, hi in a_ivs:
            candidates.extend((lo, hi))
            for (_, h1), (l2, _) in zip(b_ivs, b_ivs[1:]):
                mid = 0.5 * (h1 + l2)
                if lo <= mid <= hi:
                    candidates.append(mid)
        return max(point_to_intervals(x, b_ivs) for x in candidates)

    a_ivs, b_ivs = as_intervals(a), as_intervals(b)
    return max(directed(a_ivs, b_ivs), directed(b_ivs, a_ivs))


# few distinct values, so that ends coincide, points fall on interval ends
# and gap midpoints land exactly on them
coords = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def real_sets(draw):
    if draw(st.booleans()):
        values = sorted(draw(st.lists(coords, min_size=1, max_size=30)))
        return SpectrumSample(values=np.array(values))
    ends = draw(st.lists(st.tuples(coords, coords).map(sorted), max_size=6))
    points = draw(st.lists(coords, min_size=0 if ends else 1, max_size=6))
    return LimitSet(intervals=tuple(ends), points=tuple(points))


@settings(max_examples=200, deadline=None)
@given(a=real_sets(), b=real_sets())
def test_hausdorff_equals_scalar_reference_bitwise(a, b):
    assert hausdorff_distance(a, b).hex() == reference_hausdorff(a, b).hex()


class TestDetectOutliers:
    def test_rational_anchor_pair(self):
        f = PairFamily.head_omega(math.pi / 2, RATIONAL_THETA)
        ess = two_angle_essential(TwoAngleParams.from_angles(RATIONAL_THETA, RATIONAL_THETA))
        found = detect_outliers(spectrum(f, 600), ess, 0.05, spectrum(f, 800))
        assert np.allclose(found, [-1.5, 1.5], atol=1e-8)

    def test_no_outliers_above_half_pi(self):
        theta = 2 * math.pi / 3
        f = PairFamily.constant(theta)
        ess = two_angle_essential(TwoAngleParams.from_angles(theta, theta))
        assert detect_outliers(spectrum(f, 600), ess, 0.02, spectrum(f, 800)) == []

    def test_no_outliers_high_angle(self):
        theta = 0.9 * math.pi
        f = PairFamily.constant(theta)
        ess = two_angle_essential(TwoAngleParams.from_angles(theta, theta))
        assert detect_outliers(spectrum(f, 600), ess, 0.02, spectrum(f, 800)) == []

    def test_requires_larger_second_order(self):
        f = PairFamily.constant(1.0)
        s = spectrum(f, 100)
        ess = constant_angle_limit_set(1.0)
        with pytest.raises(ValueError):
            detect_outliers(s, ess, 0.02, s)


class TestRhoNumeric:
    def test_constant_angle_matches_closed_form(self):
        from oneshift.theory import rho_constant_angle

        rep = rho_numeric(PairFamily.constant(math.pi / 6), 600)
        assert abs(rep.rho - rho_constant_angle(math.pi / 6).rho) < 1e-6

    def test_outlier_driven_value(self):
        rep = rho_numeric(PairFamily.head_omega(math.pi / 2, RATIONAL_THETA), 600)
        assert abs(rep.rho - math.sqrt(3.9375)) < 5e-4
        assert abs(abs(rep.lambda0) - 1.5) < 1e-6

    def test_exclusion_is_load_bearing(self):
        f = PairFamily.two_constant(0.3, 2.0)
        special = math.cos(2.0) - math.cos(0.3)
        closed = 2 * abs(math.sin(1.7))
        with_excl = rho_numeric(f, 400, exclusion=special)
        without = rho_numeric(f, 400)
        assert abs(with_excl.rho - closed) < 5e-3
        assert abs(without.rho - closed) > 1e-2

    def test_tiny_band_ends_give_the_closed_form(self):
        # both angles near pi: the band ends l1 < l2 are tiny, and their
        # squared gaps round alike; rho comes from l2 (7.7233e-09 from l1)
        om, th = 3.141592649721693, 3.1415926535833307
        rep = rho_numeric(PairFamily.two_constant(om, th), 600)
        assert rep.rho == pytest.approx(rho_two_constant_angles(om, th).rho, rel=1e-13)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            rho_numeric(PairFamily.constant(1.0), 7)

    @settings(max_examples=150, deadline=None)
    @given(
        omega=END_WEIGHTED_ANGLES,
        theta=END_WEIGHTED_ANGLES,
        constant=st.booleans(),
        half_n=st.integers(10, 1000),
    )
    # the top eigenvalue 2 lies on the Gershgorin bound, and its leaf's
    # midpoint gave rho 3.81e-06; the closed form is 4e-15
    @example(omega=1e-15, theta=1e-15, constant=True, half_n=300)
    # a point at 0, whose leaf's midpoint -9.09e-13 gave rho 1.8e-12
    @example(omega=3.141592653589791, theta=4.927146205760456e-73, constant=False, half_n=670)
    def test_ends_of_the_angle_domain_give_the_closed_form(self, omega, theta, constant, half_n):
        # a point whose leaf holds a zero of rho enters the selection as that
        # zero, so only the float band ends near +-2 are left: rho(2 - e) is
        # about 4 sqrt(e), and e is only known to the ulps of 4 that lambda^2
        # rounds away there, each worth up to 2 sqrt(ulp(4)) = 6e-8 of rho.
        # Orders from 20 on: below, a section's value next to c - gamma can
        # lie outside the exclusion window and be selected (n = 4 to 14 missed
        # by up to 0.19 at angles away from the ends too)
        f = PairFamily.constant(theta) if constant else PairFamily.two_constant(omega, theta)
        closed, exclusion = cli.closed_forms(f)
        rep = rho_numeric(f, 2 * half_n, exclusion=exclusion)
        assert abs(rep.rho - closed) <= 1e-9 * closed + 4.0 * math.sqrt(math.ulp(4.0))


class TestRhoCommutatorDirect:
    def test_commuting_pair(self):
        p = GeneralPair(
            a=DenseSymmetricMatrix(np.diag([1.0, -1.0])),
            b=DenseSymmetricMatrix(np.diag([-1.0, 1.0])),
        )
        assert rho_commutator_direct(p) == 0.0

    def test_paper_example(self):
        rho = rho_commutator_direct(paper_example_3x3(0.01))
        assert abs(rho - math.sqrt(0.04 * 3.96)) < 1e-12

    def test_quarter_turn_reaches_two(self):
        p = GeneralPair(
            a=DenseSymmetricMatrix(rotation_block(0.0)),
            b=DenseSymmetricMatrix(rotation_block(math.pi / 2)),
        )
        assert abs(rho_commutator_direct(p) - 2.0) < 1e-12


class TestConvergence:
    def test_exact_match_is_zero(self):
        limit = LimitSet(points=(0.0, 2.0))
        sample = SpectrumSample(values=np.array([0.0, 2.0]))
        assert hausdorff_distance(sample, limit) == 0.0


def random_pair(rng):
    # seven draws a pair, as tsirelson_suite takes them
    omega = AngleSpec(tuple(rng.angle() for _ in range(3)), rng.angle())
    theta = AngleSpec(tuple(rng.angle() for _ in range(2)), rng.angle())
    return build_dense_pair(PairFamily(omega, theta), 3)


def householder_loop(m):
    """The Householder reduction of one matrix as it was before stacks, kept
    here as the reference of the stacked reduction."""
    a = m.entries.copy()
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        norm_x = np.sqrt(np.dot(x, x))
        if norm_x == 0.0:
            continue
        alpha = -norm_x if x[0] >= 0.0 else norm_x
        v = x
        v[0] -= alpha
        norm_v = np.sqrt(np.dot(v, v))
        if norm_v == 0.0:
            continue
        v /= norm_v
        sub = a[k + 1 :, k + 1 :]
        w = sub @ v
        u = w - np.dot(v, w) * v
        sub -= 2.0 * (np.outer(v, u) + np.outer(u, v))
        a[k + 1, k] = a[k, k + 1] = alpha
        a[k + 2 :, k] = 0.0
        a[k, k + 2 :] = 0.0
    return TridiagonalSymmetricMatrix(diag=np.diag(a).copy(), offdiag=np.diag(a, 1).copy())


class TestTsirelson:
    def test_bound_holds(self):
        best = tsirelson_suite(99, 40)
        assert best <= 2 * math.sqrt(2) + 1e-9

    def test_deterministic(self):
        assert tsirelson_suite(7, 10) == tsirelson_suite(7, 10)

    def test_lcg_range(self):
        rng = Lcg(0)
        vals = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        angles = [Lcg(1).angle() for _ in range(10)]
        assert all(0.05 <= a <= math.pi - 0.05 for a in angles)

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            tsirelson_suite(1, 0)

    @pytest.mark.parametrize("seed", [20260824, 99])
    @pytest.mark.parametrize("trials", [1, 50, 500])
    def test_batch_equals_per_pair_loop_bitwise(self, seed, trials):
        # the suite as it was, one pair, one reduction and one solve at a
        # time: the reference for the stacked suite (validate runs 50,
        # criterion 7 500)
        rng = Lcg(seed)
        radii = []
        for _ in range(2 * trials):
            c = commutator(random_pair(rng))
            top = sections_eigenvalues_at([householder_loop(DenseSymmetricMatrix(-(c @ c)))], [5])[0, 0]
            radii.append(min(2.0, math.sqrt(max(0.0, float(top)))))
        best = max(bell_chsh_rho(r1, r2) for r1, r2 in zip(radii[::2], radii[1::2]))
        assert tsirelson_suite(seed, trials).hex() == best.hex()

    @pytest.mark.parametrize(
        "trials, best", [(50, "0x1.692aca1ebf4a4p+1"), (500, "0x1.6a05514faadf9p+1")], ids=["validate", "criterion-7"]
    )
    def test_suite_is_pinned(self, trials, best):
        assert tsirelson_suite(20260824, trials).hex() == best

    @pytest.mark.parametrize("seed", [20260824, 99, 0])
    def test_stacked_pairs_equal_dense_pairs(self, seed):
        a, b = analysis._random_pairs(Lcg(seed), 40)
        rng = Lcg(seed)
        for k in range(40):
            p = random_pair(rng)
            assert a[k].tobytes() == p.a.entries.tobytes()
            assert b[k].tobytes() == p.b.entries.tobytes()


def involution_pair(gen, k):
    """A random pair of general involutions Q diag(+-1) Q^T of order k."""
    return GeneralPair(*(DenseSymmetricMatrix(involution(gen, k)) for _ in range(2)))


class TestFiniteFujiiTsurumaru:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    def test_direct_radius_is_the_maximum_over_the_sum_spectrum(self, k, seed):
        # -C^2 = S^2 (4 - S^2) for S = A + B and C = AB - BA, so rho(C)^2 is
        # the maximum of lam^2 (4 - lam^2) over the spectrum of S.  Compared
        # on squares, which the square root does not amplify near 0: over
        # 3,000 such pairs of orders 2-16 the two differed by at most 2.0e-11.
        p = involution_pair(np.random.default_rng(seed), k)
        lam = dense_sym_eigenvalues(DenseSymmetricMatrix(p.a.entries + p.b.entries)).values
        assert abs(rho_commutator_direct(p) ** 2 - float(np.max(lam**2 * (4.0 - lam**2)))) <= 1e-10


class TestBoundsPipelineConsistency:
    def test_s_below_delta_collapses_to_closed_form(self):
        # detected outliers plus the essential band reproduce the closed form
        for om, th in [(2.0, 0.4), (2.6, 0.5)]:
            p = TwoAngleParams.from_angles(om, th)
            assert p.s <= p.delta
            f = PairFamily.two_constant(om, th)
            ess = two_angle_essential(p)
            outliers = detect_outliers(spectrum(f, 400), ess, 0.02, spectrum(f, 600))
            lam = LimitSet(intervals=ess.intervals, points=tuple(outliers))
            rho = rho_from_lambda(select_lambda0(lam))
            assert abs(rho - rho_two_constant_angles(om, th).rho) < 5e-3

    def test_refined_outliers_satisfy_residual(self):
        f_om, f_th = math.pi / 2, RATIONAL_THETA
        f = PairFamily.head_omega(f_om, f_th)
        ess = two_angle_essential(TwoAngleParams.from_angles(f_th, f_th))
        detected = detect_outliers(spectrum(f, 600), ess, 0.02, spectrum(f, 800))
        refined = {r.lam for r in outlier_solve_eq4(f_om, f_th)}
        for v in detected:
            assert min(abs(v - r) for r in refined) < 1e-6


class TestLambdaMaxCrossing:
    def test_reference_value(self):
        x3 = analysis.solve_lambda_max_crossing()
        assert abs(x3 - 2.4352) < 1e-3

    def test_closed_form_is_the_sign_change_of_the_gap(self):
        def gap(theta):
            return outlier_solve_eq4(math.pi / 2, theta)[-1].lam - 2.0 * abs(math.cos(theta))

        x3 = analysis.solve_lambda_max_crossing()
        assert abs(gap(x3)) <= 1e-12
        # the gap falls through zero, by about 1.67e-9 at each side
        assert gap(x3 - 1e-9) > 0.0 > gap(x3 + 1e-9)
