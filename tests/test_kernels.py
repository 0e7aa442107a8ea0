"""Fast paths of the eigensolver pinned bitwise to the slow paths they replace.

Every solve goes through ``sections_eigenvalues_at`` and the kernel entry
point ``_kernels.bisect_sections``.  A solve restricted to some indices must
give exactly the values the full solve gives there; a lockstep solve of many
sections must give exactly the values of each section solved alone; the
plain-Python bisection must match the vectorized numpy one, also on either
side of ``PY_MAX_INDICES`` lanes, where ``_bisect_lanes`` switches from one
to the other; and ``rho_numeric``, which bisects only exterior eigenvalues,
must match the full-spectrum pipeline ``tridiag_eigenvalues`` +
``detect_outliers``.  Every Sturm count must be nondecreasing in the shift,
and the plain-Python count, which stops walking a 2-periodic tail once its
pivot repeats, must equal the full loop.  Values certified from tail
guesses must equal plain lockstep bisection, whatever the guesses are, and
a family spectrum must leave only about its exterior eigenvalues to bisect.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneshift import _kernels, _tail
from oneshift.analysis import OUTLIER_MARGIN, OUTLIER_ORDER_STEP, detect_outliers, family_params, rho_numeric
from oneshift.forms import PairFamily, build_sum_truncation
from oneshift.theory import LimitSet, RhoReport, rho_from_lambda, select_lambda0, two_angle_essential
from oneshift.tridiag import TridiagonalSymmetricMatrix, default_tol, sections_eigenvalues_at, tridiag_eigenvalues

entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.05, math.pi - 0.05)


@st.composite
def tridiagonals(draw, max_n=90):
    # orders above PY_MAX_INDICES send the full solve down the numpy path
    n = draw(st.integers(1, max_n))
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return TridiagonalSymmetricMatrix(diag=np.array(diag), offdiag=np.array(off))


def kernel_args(*ms):
    """(diag, off2, lo, hi, steps) of sections of one order, as ``bisect_sections`` builds them."""
    lo, hi = (np.array(v) for v in zip(*(m.gershgorin() for m in ms)))
    steps = np.array([_kernels.halvings(a, b, default_tol(m)) for a, b, m in zip(lo, hi, ms)])
    diag = np.stack([m.diag for m in ms])
    off2 = np.stack([m.offdiag for m in ms]) ** 2
    return diag, off2, lo, hi, steps


@st.composite
def same_order_sections(draw, max_n=30, max_sections=6):
    """Sections of one order with Gershgorin widths far apart, so that their
    step counts differ, and one constant diagonal section, whose lo == hi."""
    n = draw(st.integers(1, max_n))
    sections = []
    for _ in range(draw(st.integers(1, max_sections))):
        width = draw(st.sampled_from([1e-300, 1e-3, 0.3, 1.0, 7.0, 1e4]))
        diag = draw(st.lists(entries, min_size=n, max_size=n))
        off = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        sections.append(TridiagonalSymmetricMatrix(diag=width * np.array(diag), offdiag=width * np.array(off)))
    flat = TridiagonalSymmetricMatrix(diag=np.full(n, draw(entries)), offdiag=np.zeros(n - 1))
    sections.insert(draw(st.integers(0, len(sections))), flat)
    return sections


def index_subsets(n):
    return st.lists(st.integers(0, n - 1), unique=True).map(lambda v: np.array(sorted(v), dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(m=tridiagonals(), data=st.data())
def test_sliced_solve_equals_full_solve_bitwise(m, data):
    idx = data.draw(index_subsets(m.n))
    full = sections_eigenvalues_at([m], np.arange(m.n))[0]
    assert np.all(np.diff(full) >= 0.0)
    assert sections_eigenvalues_at([m], idx)[0].tobytes() == full[idx].tobytes()


# a subnormal first pivot at the shift 0 overflows the next quotient to -inf
TINY_PIVOT = TridiagonalSymmetricMatrix(diag=np.array([1e-310, 0.0]), offdiag=np.array([1.0]))
# its eigenvalue -e^2/0.001 lies below 0; a zero pivot replaced by eps
# instead of the smallest positive double lost it from the count at 0
TINY_OFFDIAGONAL = TridiagonalSymmetricMatrix(
    diag=np.array([0.0, 0.0, 0.0, 0.001]), offdiag=np.array([0.0, 0.0, 6.6440600068771525e-71])
)

@settings(max_examples=60, deadline=None)
@given(case=tridiagonals(max_n=40).flatmap(lambda m: st.tuples(st.just(m), index_subsets(m.n))))
@example(case=(TINY_PIVOT, np.arange(2)))
def test_python_loop_equals_numpy_loop_bitwise(case):
    m, idx = case
    diag, off2, lo, hi, steps = kernel_args(m)
    py = _kernels._bisect_py(diag, off2, lo.tolist(), hi.tolist(), steps.tolist(), [(0, j) for j in idx.tolist()])
    vec = _kernels._bisect_np(diag, off2, lo, hi, steps, idx[None])[0]
    assert py.tobytes() == vec.tobytes()
    shifts = np.linspace(lo[0] - 1.0, hi[0] + 1.0, 9)
    scalar = [_kernels._sturm_count_py(*_kernels._rows(diag[0], off2[0]), float(x)) for x in shifts]
    assert scalar == _kernels._sturm_counts_np(diag, off2, shifts[None])[0].tolist()


# the 31 sections of order 10 of figure 1, bisected in 40 and 41 steps
FIGURE_1_SECTIONS = [build_sum_truncation(PairFamily.head_omega(math.pi / 2, 0.1 * k), 10) for k in range(1, 32)]


# the 31 sections of order 100 of figure 3, with 63 exterior eigenvalues
FIGURE_3_SECTIONS = [build_sum_truncation(PairFamily.perturbed_heads(0.1 * k), 100) for k in range(1, 32)]

# Lanes up to this bisect in Python, one more in numpy.  The batches on
# either side of it below certify nothing, so every lane is bisected: the
# largest eigenvalue of THRESHOLD or THRESHOLD + 1 sections of order 40, and
# THRESHOLD or THRESHOLD + 1 indices of one order-70 section with no tail.
THRESHOLD = _kernels.PY_MAX_INDICES
THRESHOLD_SECTIONS = [
    build_sum_truncation(PairFamily.head_omega(0.04 * k, 0.7), 40) for k in range(1, THRESHOLD + 2)
]
NO_TAIL_70 = TridiagonalSymmetricMatrix(
    diag=np.random.default_rng(70).normal(size=70), offdiag=np.random.default_rng(71).normal(size=69)
)


def lanes(ms):
    n = ms[0].n
    return st.tuples(st.just(ms), st.one_of(index_subsets(n), st.just(np.arange(n))))


@settings(max_examples=60, deadline=None)
@given(case=same_order_sections(max_n=40).flatmap(lanes))
@example(case=(FIGURE_1_SECTIONS, np.arange(10)))
@example(case=(FIGURE_1_SECTIONS, np.array([9])))
@example(case=([TINY_PIVOT, TINY_PIVOT], np.arange(2)))
@example(case=(THRESHOLD_SECTIONS[:THRESHOLD], np.array([39])))
@example(case=(THRESHOLD_SECTIONS, np.array([39])))
@example(case=(FIGURE_1_SECTIONS, np.array([], dtype=np.int64)))
def test_lockstep_sections_equal_per_section_solves_bitwise(case):
    # up to PY_MAX_INDICES lanes (sections times indices) bisect in Python,
    # more in numpy arrays; both must give each section's own solve
    ms, idx = case
    batch = sections_eigenvalues_at(ms, idx)
    assert batch.shape == (len(ms), idx.size)
    for m, row in zip(ms, batch):
        assert row.tobytes() == sections_eigenvalues_at([m], idx)[0].tobytes()


SCALES = [1e-300, 1e-150, 1e-3, 1.0, 1e3, 1e150]
# zero and tiny off-diagonal entries, before they are scaled
OFF_ENTRIES = st.one_of(entries, st.sampled_from([0.0, 5e-324, 1e-300, 1e-160]))


@st.composite
def periodic_tail_sections(draw, order=None):
    """A first entry and a drawn head of rows, then a 2-periodic tail of
    drawn length, or of the length that makes the section ``order`` rows,
    all scaled by one factor."""
    scale = draw(st.sampled_from(SCALES))
    if order is None:
        head, tail_len = draw(st.integers(0, 7)), draw(st.integers(0, 41))
    else:
        head = draw(st.integers(0, min(7, order - 1)))
        tail_len = order - 1 - head
    diag = draw(st.lists(entries, min_size=1 + head, max_size=1 + head))
    off = draw(st.lists(OFF_ENTRIES, min_size=head, max_size=head))
    diag += (draw(st.lists(entries, min_size=2, max_size=2)) * tail_len)[:tail_len]
    off += (draw(st.lists(OFF_ENTRIES, min_size=2, max_size=2)) * tail_len)[:tail_len]
    return TridiagonalSymmetricMatrix(diag=scale * np.array(diag), offdiag=scale * np.array(off))


@st.composite
def same_order_tail_sections(draw, max_n=120, max_sections=4):
    """Periodic-tail sections of one order, each with its own head length,
    so the common head is longer than some and the tails differ in parity,
    and each with its own scale."""
    n = draw(st.integers(1, max_n))
    return [draw(periodic_tail_sections(order=n)) for _ in range(draw(st.integers(1, max_sections)))]


@st.composite
def family_sections(draw):
    """Sections of one order from one family at a few drawn angles."""
    name = draw(st.sampled_from(["constant", "head_omega", "perturbed_heads", "two_constant"]))
    n = 2 * draw(st.integers(2, 90))
    pairs = draw(st.lists(st.tuples(angles, angles), min_size=1, max_size=3))
    return [build_sum_truncation(make_family(name, omega, theta), n) for omega, theta in pairs]


def certified_leaf_ends(ms, idx, tol=None):
    """The leaf ends whose counts certify eigenvalues while ``ms`` is solved."""
    seen = [np.empty(0)]
    leaves = _kernels._leaves

    def spy(*args):
        lower, upper = leaves(*args)
        seen.extend([lower.ravel(), upper.ravel()])
        return lower, upper

    with mock.patch.object(_kernels, "_leaves", spy):
        sections_eigenvalues_at(ms, idx, tol)
    return np.concatenate(seen)


@settings(max_examples=60, deadline=None)
@given(
    ms=st.one_of(same_order_sections(), same_order_tail_sections(max_n=70)),
    xs=st.lists(st.floats(-1e5, 1e5), max_size=20),
)
@example(ms=[TINY_PIVOT], xs=[-1e-300, -5e-324, 0.0, 5e-324, 1e-310, 1e-300])
@example(ms=[TINY_OFFDIAGONAL], xs=[-5e-324, 0.0, 5e-324])
@example(ms=FIGURE_3_SECTIONS[:3], xs=[])
def test_sturm_counts_nondecreasing_in_shift(ms, xs):
    # certified values are bitwise those of bisection only if counts never
    # drop as the shift rises, also one ulp around the leaf ends counted
    diag, off2 = kernel_args(*ms)[:2]
    # the shifts include each section's bisected eigenvalues, the leaf ends
    # of the certificate and their floating-point neighbours
    idx = np.arange(ms[0].n)
    eigs = np.concatenate([sections_eigenvalues_at(ms, idx).ravel(), certified_leaf_ends(ms, idx)])
    x = np.unique(np.concatenate([xs, eigs, np.nextafter(eigs, -np.inf), np.nextafter(eigs, np.inf)]))
    batched = _kernels._sturm_counts_np(diag, off2, np.tile(x, (len(ms), 1)))
    for b in range(len(ms)):
        rows = _kernels._rows(diag[b], off2[b])
        scalar = [_kernels._sturm_count_py(*rows, v) for v in x.tolist()]
        vector = _kernels._sturm_counts_np(diag[b : b + 1], off2[b : b + 1], x[None])[0].tolist()
        assert scalar == vector == batched[b].tolist()
        assert all(c0 <= c1 for c0, c1 in zip(scalar, scalar[1:]))


def band_edges(diag, off2):
    """Ends of the bands of the 2-periodic operator that repeats the last
    two rows: (x - a)(x - b) = (|c| -+ |d|)^2 for diagonal entries a, b and
    off-diagonal entries c, d."""
    if diag.size < 3:
        return []
    a, b = diag[-2:].tolist()
    c, d = np.sqrt(off2[-2:]).tolist()
    mid, half = 0.5 * (a + b), 0.5 * (a - b)
    return [mid + sign * math.hypot(half, c + way * d) for sign in (-1.0, 1.0) for way in (-1.0, 1.0)]


# a head of three rows and a tail of five, whose last period is half done
ODD_TAIL = TridiagonalSymmetricMatrix(
    diag=np.array([0.5, -2.0, 3.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]),
    offdiag=np.array([1.0, 0.0, 2.0, 0.25, 0.5, 0.25, 0.5, 0.25]),
)


@settings(max_examples=80, deadline=None)
@given(m=periodic_tail_sections())
@example(m=build_sum_truncation(PairFamily.perturbed_heads(1.0), 40))
@example(m=TridiagonalSymmetricMatrix(diag=np.array([0.0, 1.0, -1.0, 1.0, -1.0, 1.0]), offdiag=np.zeros(5)))
@example(m=ODD_TAIL)
def test_periodic_tail_count_equals_full_loop(m):
    diag, off2 = m.diag[None], m.offdiag[None] ** 2
    lo, hi = m.gershgorin()
    eigs = sections_eigenvalues_at([m], np.arange(m.n))[0]
    near = [eigs, np.nextafter(eigs, -np.inf), np.nextafter(eigs, np.inf)]
    x = np.concatenate([*near, band_edges(m.diag, off2[0]), [lo, hi]])
    rows = _kernels._rows(diag[0], off2[0])
    full = _kernels._sturm_counts_np(diag, off2, x[None])[0].tolist()
    assert [_kernels._sturm_count_py(*rows, v) for v in x.tolist()] == full


@pytest.mark.parametrize("name", ["constant", "head_omega", "perturbed_heads", "two_constant"])
def test_family_head_length_does_not_depend_on_order(name):
    f = make_family(name, 1.2, 0.7)
    heads = set()
    for n in (40, 42, 600, 2002):
        m = build_sum_truncation(f, n)
        _, head, tail, tail_len = _kernels._rows(m.diag, m.offdiag**2)
        assert len(tail) == 2 and 1 + len(head) + tail_len == n
        heads.add(len(head))
    assert len(heads) == 1


def test_sliced_solve_rejects_bad_index():
    m = TridiagonalSymmetricMatrix(diag=np.zeros(3), offdiag=np.ones(2))
    with pytest.raises(ValueError):
        sections_eigenvalues_at([m], [3])


def make_family(name, omega, theta):
    if name == "constant":
        return PairFamily.constant(theta)
    if name == "head_omega":
        return PairFamily.head_omega(omega, theta)
    if name == "perturbed_heads":
        return PairFamily.perturbed_heads(theta)
    return PairFamily.two_constant(omega, theta)


def full_solve_rho(f, n, exclusion, margin):
    """The estimator as a full-spectrum pipeline: every eigenvalue of both sections."""
    ess = two_angle_essential(family_params(f))
    s1 = tridiag_eigenvalues(build_sum_truncation(f, n))
    s2 = tridiag_eigenvalues(build_sum_truncation(f, n + OUTLIER_ORDER_STEP))
    lam = LimitSet(intervals=ess.intervals, points=tuple(detect_outliers(s1, ess, margin, s2)))
    if exclusion is not None:
        lam = lam.without_point(exclusion, 1e-6)
    lam0 = select_lambda0(lam)
    rho = rho_from_lambda(lam0)
    return RhoReport(rho, rho, lam0, "finite-section")


def outcome(fn, *args):
    try:
        r = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return (r.rho_low.hex(), r.rho_high.hex(), float(r.lambda0).hex(), r.branch)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["constant", "head_omega", "perturbed_heads", "two_constant"]),
    omega=angles,
    theta=angles,
    half_n=st.integers(2, 40),
    excluded=st.booleans(),
    margin=st.sampled_from([0.005, OUTLIER_MARGIN, 0.1]),
)
@example("constant", 0.5, 0.5, 30, False, OUTLIER_MARGIN)
@example("head_omega", math.pi / 2, math.acos(-0.8), 40, False, OUTLIER_MARGIN)
@example("two_constant", 0.3, 2.0, 40, True, OUTLIER_MARGIN)
@example("two_constant", 0.3, 2.0, 40, False, OUTLIER_MARGIN)
def test_rho_numeric_equals_full_solve_pipeline_bitwise(name, omega, theta, half_n, excluded, margin):
    f = make_family(name, omega, theta)
    n = 2 * half_n
    exclusion = math.cos(f.theta.tail) - math.cos(f.omega.tail) if excluded else None
    assert outcome(rho_numeric, f, n, exclusion, margin) == outcome(full_solve_rho, f, n, exclusion, margin)


def plain_bisection(ms, idx, tol=None):
    """Lockstep bisection of every lane, with no certificate."""
    diag, off2, lo, hi, _ = kernel_args(*ms)
    tols = [default_tol(m) if tol is None else tol for m in ms]
    steps = np.array([_kernels.halvings(*b) for b in zip(lo, hi, tols)])
    return _kernels._bisect_np(diag, off2, lo, hi, steps, np.broadcast_to(idx, (len(ms), idx.size)))


def tolerances(ms):
    """The default tolerance, or one far above or below it."""
    scale = max(1.0, *(abs(v) for v in ms[0].gershgorin()))
    return st.sampled_from([None, 1e-3 * scale, 1e-15 * scale])


@settings(max_examples=60, deadline=None)
@given(
    case=st.one_of(same_order_tail_sections(), family_sections()).flatmap(
        lambda ms: st.tuples(
            st.just(ms), st.one_of(st.just(np.arange(ms[0].n)), index_subsets(ms[0].n)), tolerances(ms)
        )
    )
)
@example(case=(FIGURE_3_SECTIONS, np.arange(100), None))
@example(case=([ODD_TAIL] * 9, np.arange(9), None))
@example(case=([build_sum_truncation(PairFamily.head_omega(1.0, 2.0), 90)], np.arange(90), 1e-300))
@example(case=([NO_TAIL_70], np.arange(THRESHOLD), None))
@example(case=([NO_TAIL_70], np.arange(THRESHOLD + 1), None))
@example(case=(THRESHOLD_SECTIONS[:THRESHOLD], np.array([39]), None))
@example(case=(THRESHOLD_SECTIONS, np.array([39]), None))
@example(case=(FIGURE_3_SECTIONS, np.array([], dtype=np.int64), None))
def test_certified_solve_equals_plain_bisection_bitwise(case):
    ms, idx, tol = case
    assert sections_eigenvalues_at(ms, idx, tol).tobytes() == plain_bisection(ms, idx, tol).tobytes()


WRONG_GUESSES = {
    "nan": lambda g: np.full_like(g, np.nan),
    "infinite": lambda g: np.where(np.arange(g.shape[1]) % 2, np.inf, -np.inf) * np.ones_like(g),
    "one value": lambda g: np.full_like(g, 0.3),
    "between eigenvalues": lambda g: np.sort(g, axis=1) + 0.5 * np.diff(np.sort(g, axis=1), axis=1, append=np.inf),
    "reversed": lambda g: -g,
}


@pytest.mark.parametrize("wrong", sorted(WRONG_GUESSES))
def test_wrong_guesses_give_the_same_bits(monkeypatch, wrong):
    # guesses only pick the leaves counted; a leaf certifies only what its
    # counts show, so wrong guesses leave more lanes to bisect, nothing else
    guess = _tail.guesses
    monkeypatch.setattr(_tail, "guesses", lambda *args: WRONG_GUESSES[wrong](guess(*args)))
    for ms in (FIGURE_3_SECTIONS[::6], [build_sum_truncation(PairFamily.two_constant(0.3, 2.0), 240)]):
        idx = np.arange(ms[0].n)
        assert sections_eigenvalues_at(ms, idx).tobytes() == plain_bisection(ms, idx).tobytes()


@pytest.mark.parametrize("name", ["constant", "head_omega", "perturbed_heads", "two_constant"])
def test_family_spectrum_bisects_only_its_exterior_eigenvalues(monkeypatch, name):
    m = build_sum_truncation(make_family(name, 1.2, 0.7), 2000)
    bisected = []

    def counted(solve, lanes):
        def run(*args):
            bisected.append(lanes(args[-1]))
            return solve(*args)

        return run

    # the lanes are a list of pairs for _bisect_py and an index array for _bisect_np
    for kernel, lanes in (("_bisect_py", len), ("_bisect_np", np.size)):
        monkeypatch.setattr(_kernels, kernel, counted(getattr(_kernels, kernel), lanes))
    eigs = tridiag_eigenvalues(m).values
    a, b, c, d = sorted(band_edges(m.diag, m.offdiag**2))
    exterior = np.sum((eigs < a) | ((eigs > b) & (eigs < c)) | (eigs > d))
    assert sum(bisected) <= exterior + 2
