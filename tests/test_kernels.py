"""Fast paths of the eigensolver pinned bitwise to the slow paths they replace.

Every solve goes through ``sections_eigenvalues_at`` and the kernel entry
point ``_kernels.bisect_sections``.  A solve restricted to some indices must
give exactly the values the full solve gives there; a lockstep solve of many
sections must give exactly the values of each section solved alone; the
plain-Python bisection must match the vectorized numpy one, also on either
side of ``PY_MAX_INDICES`` lanes, where ``bisect_sections`` switches from
one to the other; and ``rho_numeric``, which solves only exterior eigenvalues,
must match the full-spectrum pipeline ``tridiag_eigenvalues`` +
``detect_outliers``.  Every Sturm count must be nondecreasing in the shift,
and the plain-Python count, which stops walking a 2-periodic tail once its
pivot repeats, must equal the full loop, and so must the lockstep count,
which meets a zero pivot only when dividing by it raises and sums negative
pivots in bytes, from any tail start and beyond 255 rows.  Values
certified from tail guesses, inside the bands or in the gaps around them,
must equal plain bisection, whatever the guesses are; the sign of the
exterior equation must follow the counts; and a family spectrum or
``rho_numeric`` must leave next to nothing to bisect, and a batch the
in-band certificate declines must not be scanned for a tail.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import involution
from oneshift import _kernels, _tail, analysis
from oneshift.analysis import OUTLIER_MARGIN, OUTLIER_ORDER_STEP, detect_outliers, family_params, rho_numeric
from oneshift.forms import PairFamily, build_sum_truncation, paper_example_3x3
from oneshift.theory import LimitSet, RhoReport, rho_from_lambda, select_lambda0, two_angle_essential
from oneshift.tridiag import (
    DenseSymmetricMatrix,
    TridiagonalSymmetricMatrix,
    default_tol,
    dense_sym_eigenvalues,
    householder_tridiagonalize,
    sections_eigenvalues_at,
    tridiag_eigenvalues,
)

entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.05, math.pi - 0.05)
FAMILIES = ["constant", "head_omega", "perturbed_heads", "two_constant"]


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
    rows = {0: _kernels._rows(diag[0], off2[0])}
    py = _kernels._bisect_py(rows, lo.tolist(), hi.tolist(), steps.tolist(), [(0, j) for j in idx.tolist()])
    vec = _kernels._bisect_np(diag, off2, lo, hi, steps, idx[None])[0]
    assert py.tobytes() == vec.tobytes()
    shifts = np.linspace(lo[0] - 1.0, hi[0] + 1.0, 9)
    scalar = [_kernels._sturm_count_py(*_kernels._rows(diag[0], off2[0]), float(x)) for x in shifts]
    assert scalar == _kernels._sturm_counts_np(diag, off2, shifts[None])[0].tolist()


# the 31 sections of order 10 of figure 1, left panel, whose bisection trees
# take 40 and 41 steps; their dense guesses settle every lane
FIGURE_1_SECTIONS = [build_sum_truncation(PairFamily.head_omega(math.pi / 2, 0.1 * k), 10) for k in range(1, 32)]


# the 31 sections of order 100 of figure 3, with 63 exterior eigenvalues
FIGURE_3_SECTIONS = [build_sum_truncation(PairFamily.perturbed_heads(0.1 * k), 100) for k in range(1, 32)]

# Lanes up to this bisect in Python, one more in numpy.  The batches on
# either side of it below certify nothing, so every lane is bisected: the
# in-band middle eigenvalue of THRESHOLD or THRESHOLD + 1 sections of order
# 70, and THRESHOLD or THRESHOLD + 1 indices of one order-70 section with no
# tail.  Order 70 lies above DENSE_MAX_ORDER, so no dense guess settles them.
THRESHOLD = _kernels.PY_MAX_INDICES
THRESHOLD_SECTIONS = [
    build_sum_truncation(PairFamily.head_omega(0.04 * k, 0.7), 70) for k in range(1, THRESHOLD + 2)
]
THRESHOLD_INDEX = np.array([35])
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
@example(case=(THRESHOLD_SECTIONS[:THRESHOLD], THRESHOLD_INDEX))
@example(case=(THRESHOLD_SECTIONS, THRESHOLD_INDEX))
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
def periodic_tail_sections(draw, order=None, values=None):
    """A first entry and a drawn head of rows, then a 2-periodic tail of
    drawn length, or of the length that makes the section ``order`` rows,
    all scaled by one factor; or, with ``values``, every entry drawn from
    ``values`` and left unscaled."""
    if values is None:
        scale, on, off_on = draw(st.sampled_from(SCALES)), entries, OFF_ENTRIES
    else:
        scale, on, off_on = 1.0, values, values
    if order is None:
        head, tail_len = draw(st.integers(0, 7)), draw(st.integers(0, 41))
    else:
        head = draw(st.integers(0, min(7, order - 1)))
        tail_len = order - 1 - head
    diag = draw(st.lists(on, min_size=1 + head, max_size=1 + head))
    off = draw(st.lists(off_on, min_size=head, max_size=head))
    diag += (draw(st.lists(on, min_size=2, max_size=2)) * tail_len)[:tail_len]
    off += (draw(st.lists(off_on, min_size=2, max_size=2)) * tail_len)[:tail_len]
    return TridiagonalSymmetricMatrix(diag=scale * np.array(diag), offdiag=scale * np.array(off))


@st.composite
def same_order_tail_sections(draw, max_n=120, max_sections=4, values=None):
    """Periodic-tail sections of one order, each with its own head length,
    so the common head is longer than some and the tails differ in parity,
    and each with its own scale (or ``values``, as in
    ``periodic_tail_sections``)."""
    n = draw(st.integers(1, max_n))
    return [draw(periodic_tail_sections(order=n, values=values)) for _ in range(draw(st.integers(1, max_sections)))]


@st.composite
def family_sections(draw):
    """Sections of one order from one family at a few drawn angles."""
    name = draw(st.sampled_from(FAMILIES))
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
    rows = _kernels._rows(diag[0], off2[0])
    x = np.concatenate([*near, _tail.band_edges(rows[2]), [lo, hi]])
    full = _kernels._sturm_counts_np(diag, off2, x[None])[0].tolist()
    assert [_kernels._sturm_count_py(*rows, v) for v in x.tolist()] == full


# Entries and shifts that are small integers or signed zeros: pivots come
# out exactly zero, of either sign, in the head and in the tail.
SMALL_INTEGERS = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
# at the shift 0, zero pivots in the head (row 2) and in the tail (rows 4,
# 6 and 8), each the divisor of a nonzero squared off-diagonal entry
ZERO_PIVOTS = TridiagonalSymmetricMatrix(
    diag=np.array([1.0, 2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
    offdiag=np.array([1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
)
# at the shift 0, a -0.0 pivot (row 1) and +0.0 pivots (rows 3 and 5), each
# the divisor of the next zero squared off-diagonal entry: 0/0
SIGNED_ZERO_PIVOTS = TridiagonalSymmetricMatrix(
    diag=np.array([1.0, -0.0, -1.0, -0.0, -1.0, -0.0, -1.0]), offdiag=np.zeros(6)
)


@settings(max_examples=100, deadline=None)
@given(
    ms=same_order_tail_sections(max_n=40, values=SMALL_INTEGERS),
    xs=st.lists(SMALL_INTEGERS, max_size=8),
    later=st.integers(0, 50),
)
@example(ms=[ZERO_PIVOTS], xs=[], later=0)
@example(ms=[SIGNED_ZERO_PIVOTS], xs=[], later=0)
def test_zero_pivots_count_as_in_plain_python(ms, xs, later):
    # the lockstep count finds a zero pivot only when the next row divides
    # by it; from any row on or after the common tail start, and walking
    # every row, it must equal the plain-Python count
    diag, off2 = kernel_args(*ms)[:2]
    n = diag.shape[1]
    tail = min(n, max(_tail.start(d, e) for d, e in zip(diag, off2)) + later)
    x = np.tile([*xs, -0.0, 0.0, 1.0], (len(ms), 1))
    errors = np.geterr()
    counts = _kernels._sturm_counts_np(diag, off2, x, tail)
    walk = _kernels._sturm_counts_np(diag, off2, x, n)
    assert np.geterr() == errors
    for b in range(len(ms)):
        scalar = [_kernels._sturm_count_py(*_kernels._rows(diag[b], off2[b]), v) for v in x[b].tolist()]
        assert counts[b].tolist() == walk[b].tolist() == scalar


@settings(max_examples=200, deadline=None)
@given(
    ms=st.one_of(
        same_order_tail_sections(max_n=40),
        same_order_tail_sections(max_n=12, values=SMALL_INTEGERS),
        same_order_sections(max_n=12),
    )
)
@example(ms=[SIGNED_ZERO_PIVOTS])
@example(ms=[ODD_TAIL])
# a tail whose zero entries alternate in sign, which is still one tail
@example(
    ms=[
        TridiagonalSymmetricMatrix(
            diag=np.array([1.0, -0.0, 2.0, 0.0, 2.0, -0.0, 2.0]), offdiag=np.array([1.0, 0.0, -0.0, 0.0, -0.0, 0.0])
        )
    ]
)
def test_list_tail_start_equals_numpy_start(ms):
    # the tail start found in numpy is the one a walk back over lists finds,
    # where -0.0 == 0.0 as in numpy: the first row of the longest run of last
    # rows that each equal the row two after them, at least two rows long
    diag, off2 = kernel_args(*ms)[:2]
    for d, e in zip(diag.tolist(), off2.tolist()):
        n, row = len(d), len(d) - 3
        while row >= 1 and d[row] == d[row + 2] and e[row - 1] == e[row + 1]:
            row -= 1
        row = max(row, 0) + 1
        assert _tail.start(np.array(d), np.array(e)) == (n if n - row < 2 else row)


@pytest.mark.parametrize("n", [600, 2000])
def test_count_above_the_spectrum_is_the_order(n):
    # every pivot is negative, more of them than a byte holds
    ms = [build_sum_truncation(make_family(name, 1.2, 0.7), n) for name in FAMILIES]
    diag, off2, _, hi, _ = kernel_args(*ms)
    x = np.repeat(np.nextafter(hi, np.inf)[:, None], 3, axis=1)
    tail = max(_tail.start(d, e) for d, e in zip(diag, off2))
    for batch in (slice(0, 1), slice(None)):
        for start in (tail, n):
            assert np.all(_kernels._sturm_counts_np(diag[batch], off2[batch], x[batch], start) == n)


@settings(max_examples=200, deadline=None)
@given(m=periodic_tail_sections(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
@example(m=build_sum_truncation(PairFamily.perturbed_heads(0.4), 120), fractions=[0.0, 0.3, 0.6, 0.9, 1.0])
@example(m=ODD_TAIL, fractions=[0.1, 0.5, 0.9])
def test_exterior_minor_sign_follows_the_count(m, fractions):
    # in each gap the sign of the scaled last minor is (-1)^count times one
    # sign, so its roots there are the eigenvalues that counts certify
    rows = _kernels._rows(m.diag, m.offdiag**2)
    lo, hi = m.gershgorin()
    e = math.frexp(max(abs(lo), abs(hi)))[1]
    unit = _tail.scaled(rows, e)
    eigs = sections_eigenvalues_at([m], np.arange(m.n))[0]
    for a, b in _tail.gaps(rows, e, lo, hi):
        x = a + (b - a) * np.array(fractions)
        signs = set()
        # off the eigenvalues, where rounding decides the sign; bisection
        # places them to within its tolerance
        for v in x[np.min(np.abs(x[:, None] - eigs), axis=1) > 1e-6 * (b - a) + 2.0 * default_tol(m)].tolist():
            try:
                minor = _tail.last_minor(unit, math.ldexp(v, -e))
            except (ArithmeticError, ValueError):  # a scaled entry underflowed
                continue
            signs.add(math.copysign(1.0, minor) * (-1) ** _kernels._sturm_count_py(*rows, v))
        assert len(signs) <= 1


@pytest.mark.parametrize("name", FAMILIES)
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
    name=st.sampled_from(FAMILIES),
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
    """Bisection of every lane, with no certificate: one order-2000 section
    in plain Python, which counts outside the bands in a few periods, else
    in lockstep."""
    diag, off2, lo, hi, _ = kernel_args(*ms)
    tols = [default_tol(m) if tol is None else tol for m in ms]
    steps = np.array([_kernels.halvings(*b) for b in zip(lo, hi, tols)])
    if len(ms) == 1 and ms[0].n >= 2000:
        rows = {0: _kernels._rows(diag[0], off2[0])}
        return _kernels._bisect_py(rows, lo.tolist(), hi.tolist(), steps.tolist(), [(0, j) for j in idx.tolist()])[None]
    return _kernels._bisect_np(diag, off2, lo, hi, steps, np.broadcast_to(idx, (len(ms), idx.size)))


def rho_slices(f, n):
    """The (sections, indices, tol) that ``rho_numeric`` solves for ``f`` at order n."""
    seen = []

    def solve(ms, idx, tol=None):
        seen.append((ms, np.asarray(idx, dtype=np.int64), tol))
        return sections_eigenvalues_at(ms, idx, tol)

    with mock.patch.object(analysis, "sections_eigenvalues_at", solve):
        rho_numeric(f, n)
    return seen


# Batches of at most PY_MAX_INDICES lanes outside the tail's bands, which
# exterior guesses settle with plain-Python counts
EXTERIOR_BATCHES = [
    *(case for name in FAMILIES for n in (600, 2000) for case in rho_slices(make_family(name, 1.2, 0.7), n)),
    # the largest eigenvalue, 2, as the lambda_max column solves it
    ([build_sum_truncation(PairFamily.head_omega(1.2, 0.7), 600)], np.array([599]), None),
    # the isolated points -1.48883473, 1.48883473 and 2 of eq5 at theta 0.4
    ([build_sum_truncation(PairFamily.perturbed_heads(0.4), 400)], np.array([0, 398, 399]), None),
    # the point 2 of two-constant (2.4, 0.5), 0.015 above its band's end
    ([build_sum_truncation(PairFamily.two_constant(2.4, 0.5), 400)], np.array([399]), None),
    # the symmetric pair -1.5, 1.5 of the paper's anchor
    ([build_sum_truncation(PairFamily.head_omega(math.pi / 2, math.acos(-0.8)), 400)], np.array([0, 399]), None),
    # a middle gap holding 1.19 and a point within 1e-12 of 0, which ends
    # the bracket of 1.19 where the minor is nearly zero
    (
        [build_sum_truncation(PairFamily.two_constant(2.973865883377624, 1.363774517826222), 688)],
        np.array([343, 344]),
        None,
    ),
]


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
@example(case=(THRESHOLD_SECTIONS[:THRESHOLD], THRESHOLD_INDEX, None))
@example(case=(THRESHOLD_SECTIONS, THRESHOLD_INDEX, None))
@example(case=(FIGURE_3_SECTIONS, np.array([], dtype=np.int64), None))
def test_certified_solve_equals_plain_bisection_bitwise(case):
    ms, idx, tol = case
    assert sections_eigenvalues_at(ms, idx, tol).tobytes() == plain_bisection(ms, idx, tol).tobytes()


for batch in EXTERIOR_BATCHES:
    test_certified_solve_equals_plain_bisection_bitwise = example(case=batch)(
        test_certified_solve_equals_plain_bisection_bitwise
    )


def householder_section(m, scale=1.0):
    t = householder_tridiagonalize(DenseSymmetricMatrix(m))
    return TridiagonalSymmetricMatrix(diag=scale * t.diag, offdiag=scale * t.offdiag)


@st.composite
def tailless_sections(draw, max_n=16, max_sections=12):
    """Sections of one order that the dense guess serves: Householder
    sections of S = A + B and of -C^2, C = AB - BA, for random involution
    pairs, c*I sections and diagonal sections with repeated eigenvalues,
    each scaled by its own factor.  Batches of c*I sections (and -C^2 = 0)
    take no bisection step, so no dense guess either, and settle without
    one."""
    n = draw(st.integers(1, max_n))
    sections = []
    for _ in range(draw(st.integers(1, max_sections))):
        kind = draw(st.sampled_from(["sum", "commutator", "flat", "diagonal"]))
        scale = draw(st.sampled_from([1e-300, 1e-150, 1e-3, 1.0, 1e4]))
        if kind in ("sum", "commutator"):
            gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            a, b = involution(gen, n), involution(gen, n)
            c = a @ b - b @ a
            sections.append(householder_section(a + b if kind == "sum" else -(c @ c), scale))
        else:
            values = [draw(entries)] if kind == "flat" else [-1.0, 0.0, 0.0, 2.0]
            diag = draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
            sections.append(TridiagonalSymmetricMatrix(diag=scale * np.array(diag), offdiag=np.zeros(n - 1)))
    return sections


# the criterion-1 3x3, whose eigenvalue 2.0 is its Gershgorin bound hi
THREE_BY_THREE = householder_section(paper_example_3x3(0.01).a.entries + paper_example_3x3(0.01).b.entries)
# the top eigenvalues of 100 random order-6 -C^2 sections, as tsirelson_suite solves them
COMMUTATOR_SECTIONS = [
    householder_section(-(c @ c))
    for gen in [np.random.default_rng(6)]
    for a, b in ((involution(gen, 6), involution(gen, 6)) for _ in range(100))
    for c in [a @ b - b @ a]
]


@settings(max_examples=80, deadline=None)
@given(
    case=tailless_sections().flatmap(
        lambda ms: st.tuples(
            st.just(ms), st.one_of(st.just(np.arange(ms[0].n)), index_subsets(ms[0].n)), tolerances(ms)
        )
    )
)
@example(case=([THREE_BY_THREE], np.arange(3), None))
@example(case=([THREE_BY_THREE] * 30, np.arange(3), None))
@example(case=(COMMUTATOR_SECTIONS, np.array([5]), None))
@example(case=(COMMUTATOR_SECTIONS[:64], np.array([5]), None))
@example(case=(COMMUTATOR_SECTIONS[:12], np.arange(6), 1e-300))
def test_tailless_certificate_equals_plain_bisection_bitwise(case):
    # up to PY_MAX_INDICES lanes the dense guesses are settled in plain
    # Python, more in lockstep; both must give plain bisection's bits
    ms, idx, tol = case
    assert sections_eigenvalues_at(ms, idx, tol).tobytes() == plain_bisection(ms, idx, tol).tobytes()


# eq3 sections up to DENSE_MAX_ORDER, which take dense guesses despite their tails
EQ3_SECTIONS = [build_sum_truncation(PairFamily.head_omega(1.2, 0.7), n) for n in (10, 30, 64)]


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
    guess, exterior, dense = _tail.guesses, _tail.exterior_guess, _kernels._dense_guesses

    def wrong_exterior(*args):
        g = exterior(*args)
        return float(WRONG_GUESSES[wrong](np.array([[np.nan if g is None else g]]))[0, 0])

    monkeypatch.setattr(_tail, "guesses", lambda *args: WRONG_GUESSES[wrong](guess(*args)))
    monkeypatch.setattr(_tail, "exterior_guess", wrong_exterior)
    monkeypatch.setattr(_kernels, "_dense_guesses", lambda *args: WRONG_GUESSES[wrong](dense(*args)))
    for ms in (FIGURE_3_SECTIONS[::6], [build_sum_truncation(PairFamily.two_constant(0.3, 2.0), 240)]):
        idx = np.arange(ms[0].n)
        assert sections_eigenvalues_at(ms, idx).tobytes() == plain_bisection(ms, idx).tobytes()
    for ms, idx, tol in EXTERIOR_BATCHES[-5:]:
        assert sections_eigenvalues_at(ms, idx, tol).tobytes() == plain_bisection(ms, idx, tol).tobytes()
    # dense guesses of sections with no tail and of family sections up to
    # order 64, in batches settled in Python and in lockstep
    for ms, idx in (
        ([THREE_BY_THREE], np.arange(3)),
        (COMMUTATOR_SECTIONS[:20], np.arange(6)),
        (EQ3_SECTIONS[-1:], np.arange(64)),
        (FIGURE_1_SECTIONS, np.arange(10)),
    ):
        assert sections_eigenvalues_at(ms, idx).tobytes() == plain_bisection(ms, idx).tobytes()


def bisected_lanes(monkeypatch):
    """A list that gathers the number of lanes handed to each plain bisection."""
    bisected = []

    def counted(solve, lanes):
        def run(*args):
            bisected.append(lanes(args[-1]))
            return solve(*args)

        return run

    # the lanes are a list of pairs for _bisect_py and an index array for _bisect_np
    for kernel, lanes in (("_bisect_py", len), ("_bisect_np", np.size)):
        monkeypatch.setattr(_kernels, kernel, counted(getattr(_kernels, kernel), lanes))
    return bisected


# Lanes a family solve may leave to bisection: an eigenvalue between a band
# end and the gap beyond it is guessed from neither side.
MAX_BISECTED = 2


def test_declined_certificate_scans_no_tail(monkeypatch):
    # one index of 65 order-100 sections takes fewer bisection steps than
    # the 2n counts a certificate costs, so _certify declines the batch
    # before it looks for any section's tail
    ms = [build_sum_truncation(PairFamily.head_omega(0.04 * k, 0.7), 100) for k in range(1, THRESHOLD + 2)]
    certified, starts = [], []
    certify, start = _kernels._certify, _tail.start
    monkeypatch.setattr(_kernels, "_certify", lambda *args: certified.append(args[6].size) or certify(*args))
    monkeypatch.setattr(_tail, "start", lambda *args: starts.append(args) or start(*args))
    sections_eigenvalues_at(ms, [99])
    assert certified == [THRESHOLD + 1] and not starts


def test_three_by_three_bisects_no_lane(monkeypatch):
    # the dense guess settles all three lanes, the eigenvalue 2.0 on the
    # Gershgorin bound included, and the leaves give bisection's bits
    bisected = bisected_lanes(monkeypatch)
    pair = paper_example_3x3(0.01)
    values = dense_sym_eigenvalues(DenseSymmetricMatrix(pair.a.entries + pair.b.entries)).values
    assert THREE_BY_THREE.gershgorin()[1] == 2.0
    assert sum(bisected) == 0
    assert values.tobytes() == plain_bisection([THREE_BY_THREE], np.arange(3))[0].tobytes()


# eigenvalues 0.1 +- 0.2, with a Sturm count of 1 at its Gershgorin bound
# lo = -0.1: the rounded bound lies above the lower eigenvalue
BELOW_LO = TridiagonalSymmetricMatrix(diag=np.array([0.1, 0.1]), offdiag=np.array([0.2]))


@pytest.mark.parametrize("ms", [[THREE_BY_THREE] * 30, [BELOW_LO] * 40], ids=["3x3", "below-lo"])
def test_dense_batch_takes_one_solve_and_settles_in_lockstep(monkeypatch, ms):
    # a batch's dense guesses are solved once; the lockstep leaves settle
    # every lane, those on the Gershgorin bounds included (the 3x3's 2.0 at
    # hi, BELOW_LO's lower eigenvalue at lo), and leave none to the
    # plain-Python leaves
    calls, settled = [], []
    dense, settle = _kernels._dense_guesses, _kernels._settle
    monkeypatch.setattr(_kernels, "_dense_guesses", lambda *args: calls.append(len(args[0])) or dense(*args))
    monkeypatch.setattr(_kernels, "_settle", lambda *args: settled.append(len(args[4])) or settle(*args))
    bisected = bisected_lanes(monkeypatch)
    idx = np.arange(ms[0].n)
    values = sections_eigenvalues_at(ms, idx)
    assert calls == [len(ms)] and settled == [0] and sum(bisected) == 0
    assert values.tobytes() == plain_bisection(ms, idx).tobytes()


@pytest.mark.parametrize("ms", [*([m] for m in EQ3_SECTIONS), FIGURE_1_SECTIONS], ids=["10", "30", "64", "figure-1"])
def test_family_spectra_up_to_order_64_bisect_no_lane(monkeypatch, ms):
    # dense guesses serve family sections up to DENSE_MAX_ORDER, tail or no
    # tail: in plain Python up to 64 lanes, in lockstep above
    bisected = bisected_lanes(monkeypatch)
    idx = np.arange(ms[0].n)
    values = sections_eigenvalues_at(ms, idx)
    assert sum(bisected) == 0
    assert values.tobytes() == plain_bisection(ms, idx).tobytes()


def test_threshold_batches_bisect_in_python_and_in_lockstep(monkeypatch):
    # one lane more than PY_MAX_INDICES moves bisection from Python to numpy
    bisected = bisected_lanes(monkeypatch)
    sections_eigenvalues_at(THRESHOLD_SECTIONS[:THRESHOLD], THRESHOLD_INDEX)
    assert bisected == [THRESHOLD]
    sections_eigenvalues_at(THRESHOLD_SECTIONS, THRESHOLD_INDEX)
    assert bisected == [THRESHOLD, THRESHOLD + 1]


@pytest.mark.parametrize("name", FAMILIES)
def test_family_spectrum_bisects_only_its_exterior_eigenvalues(monkeypatch, name):
    bisected = bisected_lanes(monkeypatch)
    tridiag_eigenvalues(build_sum_truncation(make_family(name, 1.2, 0.7), 2000))
    assert sum(bisected) <= MAX_BISECTED


@pytest.mark.parametrize("name", FAMILIES)
def test_rho_numeric_certifies_its_exterior_eigenvalues(monkeypatch, name):
    # rho_numeric solves only eigenvalues outside the bands, at most 64 of
    # each section, and exterior guesses settle them in plain Python
    asked = []
    guesses = _kernels._exterior_guesses
    monkeypatch.setattr(_kernels, "_exterior_guesses", lambda *args: asked.append(len(args[4])) or guesses(*args))
    bisected = bisected_lanes(monkeypatch)
    rho_numeric(make_family(name, 1.2, 0.7), 2000)
    assert sum(asked) >= 2 and sum(bisected) <= MAX_BISECTED
