"""Fast paths of the eigensolver pinned bitwise to the slow paths they replace.

Every solve goes through ``sections_eigenvalues_at`` and the kernel entry
point ``_kernels.bisect_sections``, or, for ``rho_numeric``'s sections
given as rows, through its plain-Python stage ``bisect_rows``, one section
a call.  A solve restricted to some indices must give exactly the values
the full solve gives there; a lockstep solve of many
sections must give exactly the values of each section solved alone; the
plain-Python bisection must match the vectorized numpy one, also on either
side of ``PY_MAX_INDICES`` lanes, where ``bisect_sections`` switches from
one to the other; and ``rho_numeric``, which solves only exterior eigenvalues,
must match the full-spectrum pipeline ``tridiag_eigenvalues`` +
``detect_outliers``, also where its counts on the order-(n + 200) rows
leave a value to bisect, and the ``lambda_max`` it reads off its solve
must be the top eigenvalue of the separate solve.  Its short build must give the rows, Gershgorin bounds
and tolerance of the full build of any order, and the exterior eigenvalues
it solves from those rows must be those of the full sections, bitwise.
Every Sturm count must be nondecreasing in the shift, and the
plain-Python count, which stops walking a 2-periodic tail once its
pivot repeats, must equal the full loop, and so must the lockstep count,
which meets a zero pivot only when dividing by it raises and sums negative
pivots in bytes, from any tail start and beyond 255 rows.  Values
certified from tail guesses, inside the bands or in the gaps around them,
in lockstep or from one lane's phase guesses in plain Python, must equal
plain bisection, whatever the guesses are; the plain-Python phase guesses
must be those of the lockstep ones to rounding; the sign of the
exterior equation must follow the counts; and a family spectrum or
``rho_numeric`` must leave next to nothing to bisect, ``rho_numeric`` must
build no long section and run no lockstep kernel, and a batch the in-band
certificate declines must not be guessed from its tail.  Sections reach
the kernel as rows of Python floats, split where the longest periodic run
of last rows starts, and the arrays the lockstep stages expand from them
must hold the sections' own entries; the lockstep count, which reads every
tail row off a section's first tail period, must equal the walk of every
row; and lockstep bisection, one lane to a row of arrays, gives plain
bisection's bits with or without gaps between the sections it takes.
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
from oneshift.forms import AngleSpec, PairFamily, build_sum_truncation, paper_example_3x3
from oneshift.theory import LimitSet, RhoReport, rho_from_lambda, select_lambda0, two_angle_essential
from oneshift.tridiag import (
    DenseSymmetricMatrix,
    TridiagonalSymmetricMatrix,
    default_tol,
    dense_sym_eigenvalues,
    householder_stack,
    sections_eigenvalues_at,
    sturm_count,
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
    rows = _kernels._rows(diag[0].tolist(), off2[0].tolist())
    py = _kernels._bisect_py(rows, lo[0].item(), hi[0].item(), steps[0].item(), idx.tolist())
    vec = _kernels._bisect_np(diag, off2, m.n, lo, hi, steps, idx[None])[0]
    assert np.array(py).tobytes() == vec.tobytes()
    shifts = np.linspace(lo[0] - 1.0, hi[0] + 1.0, 9)
    scalar = [_kernels._sturm_count_py(*rows, float(x)) for x in shifts]
    assert scalar == _kernels._sturm_counts_np(diag, off2, shifts[None], m.n)[0].tolist()


# the 31 sections of order 10 of figure 1, left panel, whose bisection trees
# take 40 and 41 steps; their dense guesses settle every lane
FIGURE_1_SECTIONS = [build_sum_truncation(PairFamily.head_omega(math.pi / 2, 0.1 * k), 10) for k in range(1, 32)]


# the 31 sections of order 100 of figure 3, with 63 exterior eigenvalues
FIGURE_3_SECTIONS = [build_sum_truncation(PairFamily.perturbed_heads(0.1 * k), 100) for k in range(1, 32)]

# Lanes up to this bisect in Python, one more in numpy.  The in-band middle
# eigenvalue of THRESHOLD or THRESHOLD + 1 family sections of order 70 is
# certified from phase guesses in Python, and bisected in lockstep.  The
# batches of sections with no tail certify nothing on either side, so every
# lane is bisected: the middle eigenvalue of THRESHOLD or THRESHOLD + 1 of
# them, and THRESHOLD or THRESHOLD + 1 indices of one.  Order 70 lies above
# DENSE_MAX_ORDER, so no dense guess settles them.
THRESHOLD = _kernels.PY_MAX_INDICES
THRESHOLD_SECTIONS = [
    build_sum_truncation(PairFamily.head_omega(0.04 * k, 0.7), 70) for k in range(1, THRESHOLD + 2)
]
THRESHOLD_INDEX = np.array([35])
NO_TAIL_SECTIONS = [
    TridiagonalSymmetricMatrix(
        diag=np.random.default_rng(2 * k).normal(size=70), offdiag=np.random.default_rng(2 * k + 1).normal(size=69)
    )
    for k in range(35, 36 + THRESHOLD)
]
NO_TAIL_70 = NO_TAIL_SECTIONS[0]


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
    batched = _kernels._sturm_counts_np(diag, off2, np.tile(x, (len(ms), 1)), ms[0].n)
    for b in range(len(ms)):
        rows = _kernels._rows(diag[b].tolist(), off2[b].tolist())
        scalar = [_kernels._sturm_count_py(*rows, v) for v in x.tolist()]
        vector = _kernels._sturm_counts_np(diag[b : b + 1], off2[b : b + 1], x[None], ms[0].n)[0].tolist()
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
    rows = _kernels._rows(diag[0].tolist(), off2[0].tolist())
    x = np.concatenate([*near, _tail.band_edges(rows[2]), [lo, hi]])
    full = _kernels._sturm_counts_np(diag, off2, x[None], m.n)[0].tolist()
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
    # by it; reading the tail off the period at any row h on or after the
    # common tail start, and walking every row, it must equal the
    # plain-Python count
    diag, off2 = kernel_args(*ms)[:2]
    n = diag.shape[1]
    h = min(n, tail_start(diag, off2) + later)
    x = np.tile([*xs, -0.0, 0.0, 1.0], (len(ms), 1))
    errors = np.geterr()
    counts = _kernels._sturm_counts_np(diag[:, : h + 2], off2[:, : h + 1], x, n)
    walk = _kernels._sturm_counts_np(diag, off2, x, n)
    assert np.geterr() == errors
    for b in range(len(ms)):
        rows = _kernels._rows(diag[b].tolist(), off2[b].tolist())
        scalar = [_kernels._sturm_count_py(*rows, v) for v in x[b].tolist()]
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
def test_rows_split_at_the_longest_periodic_run(ms):
    # the tail of _rows starts at the first row of the longest run of last
    # rows that each equal the row two after them, where -0.0 == 0.0, and
    # holds at least two rows; a section of order 1 or 2 has no tail
    diag, off2 = kernel_args(*ms)[:2]
    for d, e in zip(diag.tolist(), off2.tolist()):
        n = len(d)
        periodic = [d[i] == d[i + 2] and e[i - 1] == e[i + 1] for i in range(n - 2)]
        start = min((s for s in range(1, n - 1) if all(periodic[s:])), default=n)
        head, tail = list(zip(d[1:start], e[: start - 1])), tuple(zip(d[start : start + 2], e[start - 1 : start + 1]))
        assert repr(_kernels._rows(d, e)) == repr((d[0], head, tail, n - start))


def tail_start(diag, off2):
    """The common tail start of sections given as arrays: their longest head, as ``_rows`` splits them."""
    return max(1 + len(_kernels._rows(d, e)[1]) for d, e in zip(diag.tolist(), off2.tolist()))


@pytest.mark.parametrize("n", [600, 2000])
def test_count_above_the_spectrum_is_the_order(n):
    # every pivot is negative, more of them than a byte holds
    ms = [build_sum_truncation(make_family(name, 1.2, 0.7), n) for name in FAMILIES]
    diag, off2, _, hi, _ = kernel_args(*ms)
    x = np.repeat(np.nextafter(hi, np.inf)[:, None], 3, axis=1)
    tail = tail_start(diag, off2)
    for batch in (slice(0, 1), slice(None)):
        for h in (tail, n):
            assert np.all(_kernels._sturm_counts_np(diag[batch, : h + 2], off2[batch, : h + 1], x[batch], n) == n)


@settings(max_examples=200, deadline=None)
@given(m=periodic_tail_sections(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
@example(m=build_sum_truncation(PairFamily.perturbed_heads(0.4), 120), fractions=[0.0, 0.3, 0.6, 0.9, 1.0])
@example(m=ODD_TAIL, fractions=[0.1, 0.5, 0.9])
def test_exterior_minor_sign_follows_the_count(m, fractions):
    # in each gap the sign of the scaled last minor is (-1)^count times one
    # sign, so its roots there are the eigenvalues that counts certify
    rows = _kernels._rows(m.diag.tolist(), (m.offdiag**2).tolist())
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
        _, head, tail, tail_len = _kernels._rows(m.diag.tolist(), (m.offdiag**2).tolist())
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


def exterior_indices(m, ess, dist):
    """Indices of the section ``m`` whose bisected values can lie beyond
    ``dist`` from the intervals of ``ess``: those outside the intervals
    widened by ``dist - default_tol(m)``, by the reference Sturm count."""
    reach = dist - default_tol(m)
    counts = [0, *sturm_count(m, [x for a, b in ess.intervals for x in (a - reach, b + reach)]), m.n]
    return np.unique(np.concatenate([np.arange(a, b) for a, b in zip(counts[::2], counts[1::2])]))


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
    return RhoReport(rho, lam0, "finite-section")


def outcome(fn, *args):
    try:
        r = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return (r.rho.hex(), float(r.lambda0).hex(), r.branch)


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
@example("perturbed_heads", 1.0, 0.4, 300, False, OUTLIER_MARGIN)
@example("two_constant", 2.4, 0.5, 650, False, OUTLIER_MARGIN)
@example("head_omega", 2.33057, 2.61978, 1000, False, OUTLIER_MARGIN)
# margins that put an order-(n + 200) eigenvalue at margin/10 from a value
# beyond the margin, within the 2 tol of the counts' pad, so the
# order-(n + 200) indices between the outer counts are bisected
@example("two_constant", 2.185981680295507, 1.5593407142181983, 5, False, 0.014376768828196076)
@example("head_omega", 1.3151636788056775, 0.8171686309306995, 2, False, 0.031452416498749525)
def test_rho_numeric_equals_full_solve_pipeline_bitwise(name, omega, theta, half_n, excluded, margin):
    f = make_family(name, omega, theta)
    n = 2 * half_n
    exclusion = math.cos(f.theta.tail) - math.cos(f.omega.tail) if excluded else None
    with mock.patch.object(analysis, "OUTLIER_MARGIN", margin):
        got = outcome(rho_numeric, f, n, exclusion)
    assert got == outcome(full_solve_rho, f, n, exclusion, margin)


# angles down to the smallest subnormal and up to the last double below pi
edge_angles = st.one_of(
    angles,
    st.floats(0.0, 1e-3, exclude_min=True),
    st.floats(math.pi - 1e-3, math.pi, exclude_max=True),
)


@st.composite
def pair_families(draw, angles=angles):
    """The four named families, or a family with heads of up to 3 angles
    each, some of them equal to the tail angle."""
    if draw(st.booleans()):
        return make_family(draw(st.sampled_from(FAMILIES)), draw(angles), draw(angles))
    specs = []
    for _ in range(2):
        tail = draw(angles)
        head = draw(st.lists(st.one_of(angles, st.just(tail)), max_size=3))
        specs.append(AngleSpec(tuple(head), tail))
    return PairFamily(*specs)


def short_order(f):
    # the shortest even order that holds row 2h + 2 as an interior row, h
    # the longer head: rows from 2h + 1 on repeat with period 2
    return 2 * max(len(f.omega.head), len(f.theta.head)) + 4


@settings(max_examples=150, deadline=None)
@given(f=pair_families(edge_angles), half_n=st.one_of(st.integers(2, 10), st.integers(2, 1100)))
@example(f=PairFamily.constant(0.7), half_n=2)
@example(f=PairFamily.constant(0.7), half_n=4)
@example(f=PairFamily.perturbed_heads(0.7), half_n=6)
@example(f=PairFamily.perturbed_heads(0.7), half_n=7)
@example(f=PairFamily(AngleSpec((0.7, 0.7), 0.7), AngleSpec((1.1,), 0.7)), half_n=1100)
@example(f=PairFamily.two_constant(5e-324, math.nextafter(math.pi, 0.0)), half_n=300)
@example(f=PairFamily(AngleSpec((1e-300,), math.nextafter(math.pi, 0.0)), AngleSpec((1e-300, 3.0), 1e-300)), half_n=5)
def test_short_build_gives_the_full_rows_bounds_and_tolerance(f, half_n):
    # one plain-Python build of order min(n, S) gives every longer section of
    # the family by lengthening its tail, bitwise: rows, Gershgorin bounds,
    # tolerance
    n = 2 * half_n
    orders = (n, n + OUTLIER_ORDER_STEP)
    builds = []
    build = analysis.sum_entries
    with mock.patch.object(analysis, "sum_entries", lambda f, k: builds.append(k) or build(f, k)):
        sections = analysis._family_sections(f, *orders)
    # one build per distinct order min(k, S), none longer than short_order
    assert max(builds) <= short_order(f)
    assert builds == sorted({min(k, max(builds)) for k in orders})
    for order, (rows, lo, hi, tol) in zip(orders, sections):
        m = build_sum_truncation(f, order)
        assert repr(rows) == repr(_kernels._rows(m.diag.tolist(), (m.offdiag**2).tolist()))
        assert repr((lo, hi, tol)) == repr((*m.gershgorin(), default_tol(m)))
    # one section, as the family requests ask for it, is the one the full
    # build keeps
    assert repr(analysis._family_sections(f, n)[0]) == repr(build_sum_truncation(f, n)._section)


@settings(max_examples=40, deadline=None)
@given(
    f=pair_families(),
    half_n=st.one_of(st.integers(2, 40), st.integers(2, 1000)),
    margin=st.sampled_from([0.005, OUTLIER_MARGIN, 0.1]),
)
@example(f=PairFamily.head_omega(math.pi / 2, math.acos(-0.8)), half_n=300, margin=OUTLIER_MARGIN)
@example(f=PairFamily.two_constant(0.3, 2.0), half_n=4, margin=OUTLIER_MARGIN)
def test_exterior_of_rows_equals_the_sections_slices_bitwise(f, half_n, margin):
    # both sections' exteriors, solved from the short build's rows, are
    # the values of the two-section filter's slices of the full sections
    n = 2 * half_n
    ess = two_angle_essential(family_params(f))
    sections = analysis._family_sections(f, n, n + OUTLIER_ORDER_STEP)
    for section, dist, (ms, idx, _) in zip(sections, (margin, margin - margin / 10.0), rho_slices(f, n, margin)):
        top = [0, ms[0].n - 1]
        values, at_top = analysis._exterior_values(section, ess, dist, top)
        assert np.array(values).tobytes() == sections_eigenvalues_at(ms, idx)[0].tobytes()
        # the indices asked for besides, solved with them, are the full solve's too
        assert np.array(at_top).tobytes() == sections_eigenvalues_at(ms, top)[0].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    f=pair_families(),
    half_n=st.integers(2, 200),
    pick=st.integers(0, 2**16),
    r=st.sampled_from([0.0005, OUTLIER_MARGIN / 10.0, 0.01]),
    nudge=st.integers(-6, 6),
)
def test_neighbor_counts_equal_the_nearest_neighbor_rule(f, half_n, pick, r, nudge):
    # v at r from an eigenvalue x of the section, moved by up to 3 tol: the
    # counts keep or drop it where they can, and bisect the shell between,
    # and must answer as the filter does on the full solve
    n = 2 * half_n + OUTLIER_ORDER_STEP
    section = analysis._family_sections(f, n)[0]
    values = sections_eigenvalues_at([build_sum_truncation(f, n)], np.arange(n))[0].tolist()
    x = values[pick % n]
    v = x + math.copysign(r, 0.5 - pick % 2) + nudge * 0.5 * section[3]
    assert analysis._has_neighbor(section, v, r) == any(abs(y - v) < r for y in values)


@settings(max_examples=60, deadline=None)
@given(f=pair_families(), half_n=st.one_of(st.integers(2, 40), st.integers(2, 1000)), exclusion=st.booleans())
@example(f=PairFamily.two_constant(2.4000418903783114, 2.4958056141394684), half_n=300, exclusion=True)
def test_rho_numeric_reads_lambda_max_off_its_solve_bitwise(f, half_n, exclusion):
    # sweep --mode rho reads lambda_max off the order-n solve behind rho;
    # both must be the values of the separate solves, bitwise
    n = 2 * half_n
    excluded = math.cos(f.theta.tail) - math.cos(f.omega.tail) if exclusion else None
    rep, top = analysis.rho_numeric_at(f, n, excluded, [n - 1])
    assert outcome(lambda: rep) == outcome(rho_numeric, f, n, excluded)
    assert np.array(top).tobytes() == analysis.family_eigenvalues_at([f], n, [n - 1])[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(f=pair_families(edge_angles), half_n=st.integers(3, 1000), picks=st.lists(st.integers(0, 2**16), max_size=3))
# the top eigenvalue of two-constant (1.3262, 1.7714) at n = 506 lies
# between its band's end and the gap beyond it, and is guessed in the gap
# the band leaves
@example(f=PairFamily.two_constant(1.3261658589693648, 1.7713749074454825), half_n=253, picks=[0])
# index 672 lies 0.06 inside the gap between the bands (+-0.119), which the
# widened bands close; no guess settles it, and it is bisected
@example(f=PairFamily.two_constant(2.653818720490857, 2.5349145785740563), half_n=672, picks=[672])
# a top eigenvalue 5e-13 inside its band, whose first phase guess falls
# one leaf beside it
@example(f=PairFamily.two_constant(2.7202769809510996, 2.4958056141394684), half_n=300, picks=[])
def test_row_solve_equals_plain_bisection_bitwise(f, half_n, picks):
    # exterior guesses, phase guesses in the bands and bisection of the
    # lanes left give plain bisection's bits, the top index included
    n = 2 * half_n
    rows, lo, hi, tol = analysis._family_sections(f, n)[0]
    steps = _kernels.halvings(lo, hi, tol)
    js = sorted({n - 1, *(p % n for p in picks)})
    got = _kernels.bisect_rows(rows, lo, hi, steps, js)
    assert np.array(got).tobytes() == np.array(_kernels._bisect_py(rows, lo, hi, steps, js)).tobytes()


@settings(max_examples=80, deadline=None)
@given(f=pair_families(), half_n=st.integers(4, 300), where=st.floats(0.0, 1.0))
def test_phase_guesses_equal_the_lockstep_guesses(f, half_n, where):
    # the plain-Python guesses of one phase m are those of _tail.guesses to
    # rounding, on both branches and from both starts; m = 0 and m >= k,
    # at the ends of a band, are left out, where the steps may stop short
    rows, lo, hi, _ = analysis._family_sections(f, 2 * half_n)[0]
    diag, off2 = _kernels._arrays([rows])
    k = (2 * half_n - diag.shape[1] + 2) // 2
    if k < 3:
        return
    m = 1 + round(where * (k - 2))
    scale = max(abs(lo), abs(hi))
    e = math.frexp(scale)[1]
    want = _tail.guesses(diag, off2, np.array([scale]), k, np.array([m]))[0]
    unit = _tail.scaled(rows, e)
    got = [math.nan if g is None else math.ldexp(g, e) for s in (-1.0, 1.0) for g in _tail.phase_guesses(unit, s, m)]
    assert np.isfinite(got).tolist() == np.isfinite(want).tolist()
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale, equal_nan=True)


def plain_bisection(ms, idx, tol=None):
    """Bisection of every lane, with no certificate: one order-2000 section
    in plain Python, which counts outside the bands in a few periods, else
    in lockstep."""
    diag, off2, lo, hi, _ = kernel_args(*ms)
    tols = [default_tol(m) if tol is None else tol for m in ms]
    steps = np.array([_kernels.halvings(*b) for b in zip(lo, hi, tols)])
    if len(ms) == 1 and ms[0].n >= 2000:
        rows = _kernels._rows(diag[0].tolist(), off2[0].tolist())
        return np.array(_kernels._bisect_py(rows, lo[0].item(), hi[0].item(), steps[0].item(), idx.tolist()))[None]
    return _kernels._bisect_np(diag, off2, ms[0].n, lo, hi, steps, np.broadcast_to(idx, (len(ms), idx.size)))


def rho_slices(f, n, margin=OUTLIER_MARGIN):
    """The (sections, indices, tol) of the exterior solves of the
    two-section filter for ``f`` at order n: the order-n section beyond the
    margin, and the order-(n + 200) section beyond margin - margin/10,
    both of which ``rho_numeric`` solves from rows."""
    ess = two_angle_essential(family_params(f))
    slices = []
    for order, dist in ((n, margin), (n + OUTLIER_ORDER_STEP, margin - margin / 10.0)):
        m = build_sum_truncation(f, order)
        slices.append(([m], exterior_indices(m, ess, dist), None))
    return slices


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
    d, e = householder_stack(DenseSymmetricMatrix(m).entries[None])
    return TridiagonalSymmetricMatrix(diag=scale * d[0], offdiag=scale * e[0])


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


# a tail whose zero entries alternate in sign, which is still one tail
ALTERNATING_ZEROS = TridiagonalSymmetricMatrix(
    diag=np.array([1.0, -0.0, 2.0, 0.0, 2.0, -0.0, 2.0]), offdiag=np.array([1.0, 0.0, -0.0, 0.0, -0.0, 0.0])
)


# an order-9 section with a head of one row
ODD_TAIL_SHORT_HEAD = TridiagonalSymmetricMatrix(
    diag=np.array([0.5, *[1.0, -1.0] * 4]), offdiag=np.array([1.0, *[0.5, 0.25] * 3, 0.5])
)


def order_n(diag, off2, n):
    """Arrays of the head and first tail period, as ``_arrays`` builds them,
    expanded to order n: row i >= h is row h + (i - h) % 2."""
    h, i = diag.shape[1] - 2, np.arange(n)
    r = np.where(i < h, i, h + (i - h) % 2)
    return diag[:, r], off2[:, r[1:] - 1]


def expanded(ms):
    """The arrays the lockstep stages build from the sections' rows, expanded
    to the sections' order, and the sections' own arrays."""
    diag, off2 = kernel_args(*ms)[:2]
    rows = [_kernels._rows(d, e) for d, e in zip(diag.tolist(), off2.tolist())]
    return order_n(*_kernels._arrays(rows), diag.shape[1]), (diag, off2)


@settings(max_examples=100, deadline=None)
@given(ms=st.one_of(tailless_sections(), same_order_tail_sections(max_n=40, values=SMALL_INTEGERS)))
@example(ms=[ODD_TAIL])
@example(ms=[SIGNED_ZERO_PIVOTS])
@example(ms=[ZERO_PIVOTS])
@example(ms=[ALTERNATING_ZEROS])
@example(ms=[TINY_PIVOT])
@example(ms=[THREE_BY_THREE])
@example(ms=COMMUTATOR_SECTIONS)
def test_arrays_from_rows_tile_each_first_tail_period(ms):
    # bitwise each section's entries with its tail tiled from its first
    # period, which equal its own: a zero in the tail, as in a Householder
    # section of -C^2 for commuting A and B, takes the sign of the first
    # period's zero, which no count can tell apart
    (diag, off2), want = expanded(ms)
    for b, (d, e) in enumerate(zip(*want)):
        start = d.size - _kernels._rows(d.tolist(), e.tolist())[3]
        tiled_d, tiled_e = d.copy(), e.copy()
        tiled_d[start:], tiled_e[start - 1 :] = np.resize(d[start : start + 2], d.size - start), np.resize(
            e[start - 1 : start + 1], d.size - start
        )
        assert diag[b].tobytes() == tiled_d.tobytes() and off2[b].tobytes() == tiled_e.tobytes()
        assert np.array_equal(diag[b], d) and np.array_equal(off2[b], e)


@settings(max_examples=60, deadline=None)
@given(ms=st.one_of(family_sections(), same_order_sections(max_n=3)))
@example(ms=[ODD_TAIL])
@example(ms=[SIGNED_ZERO_PIVOTS])
@example(ms=COMMUTATOR_SECTIONS)
@example(ms=[THREE_BY_THREE])
@example(ms=[build_sum_truncation(PairFamily.perturbed_heads(0.4), 2)])
def test_arrays_from_rows_equal_family_and_householder_sections_bitwise(ms):
    # family sections (build_sum_truncation), sections of order up to 3 and
    # the Householder sections of the Tsirelson suite and of criterion 1
    # come back bitwise as they were
    (diag, off2), (want_d, want_e) = expanded(ms)
    assert diag.tobytes() == want_d.tobytes() and off2.tobytes() == want_e.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    ms=st.one_of(same_order_tail_sections(max_n=60), same_order_tail_sections(max_n=12, values=SMALL_INTEGERS)),
    xs=st.lists(entries, max_size=8),
)
# with ODD_TAIL's head of three rows, the period is read from row 5, one
# past the later tail start
@example(ms=[ODD_TAIL, ODD_TAIL_SHORT_HEAD], xs=[])
@example(ms=FIGURE_3_SECTIONS[:3], xs=[])
def test_head_and_period_count_equals_the_full_walk_bitwise(ms, xs):
    # the lockstep stages count from the arrays of each section's head and
    # first tail period, whatever the heads of the other sections and the
    # parity of the rows after the latest tail start; the count must be
    # bitwise the walk of every row and the plain-Python count
    diag, off2 = kernel_args(*ms)[:2]
    n = diag.shape[1]
    rows = [_kernels._rows(d, e) for d, e in zip(diag.tolist(), off2.tolist())]
    short = _kernels._arrays(rows)
    h = short[0].shape[1] - 2
    assert (n - h) % 2 == 0 and tail_start(diag, off2) <= h <= tail_start(diag, off2) + 1
    eigs = sections_eigenvalues_at(ms, np.arange(n)).ravel()
    x = np.unique(np.concatenate([xs, eigs, np.nextafter(eigs, -np.inf), np.nextafter(eigs, np.inf)]))
    x = np.tile(x, (len(ms), 1))
    counts = _kernels._sturm_counts_np(*short, x, n)
    assert counts.tolist() == _kernels._sturm_counts_np(diag, off2, x, n).tolist()
    assert counts.tolist() == [[_kernels._sturm_count_py(*r, v) for v in row] for r, row in zip(rows, x.tolist())]


@pytest.mark.parametrize("name", FAMILIES)
def test_family_arrays_do_not_grow_with_the_order(name):
    # the lockstep stages hold a family section's head and first tail
    # period, the same few rows at any order
    def width(n):
        rows = [build_sum_truncation(make_family(name, 0.3 * k, 0.7), n)._section[0] for k in (1, 4)]
        return _kernels._arrays(rows)[0].shape[1]

    assert width(600) == width(4000) < 16


def test_rows_reaching_the_kernel_hold_python_floats(monkeypatch):
    # numpy scalars in rows would slow every plain-Python count and warn
    # where Python floats overflow quietly
    seen = []
    solve = _kernels.bisect_sections
    monkeypatch.setattr(_kernels, "bisect_sections", lambda sections, *a: seen.extend(sections) or solve(sections, *a))
    sections_eigenvalues_at([ODD_TAIL, ODD_TAIL], [0, 8])
    sections_eigenvalues_at([TridiagonalSymmetricMatrix(diag=np.array([2.0]), offdiag=np.zeros(0))], [0])
    dense_sym_eigenvalues(DenseSymmetricMatrix(paper_example_3x3(0.01).a.entries))
    analysis.tsirelson_suite(1, 2)
    analysis.family_eigenvalues_at([make_family(name, 1.2, 0.7) for name in FAMILIES], 40, [0, 39])
    assert len(seen) == 2 + 1 + 1 + 4 + 4
    for (d0, head, tail, tail_len), lo, hi, tol in seen:
        entries = [d0, *(x for row in (*head, *tail) for x in row), lo, hi, tol]
        assert {type(x) for x in entries} == {float} and type(tail_len) is int


# eq3 sections up to DENSE_MAX_ORDER, which take dense guesses despite their tails
EQ3_SECTIONS = [build_sum_truncation(PairFamily.head_omega(1.2, 0.7), n) for n in (10, 30, 64)]
# a tail whose two rows differ, which the dense guesses must expand from
# the arrays' first period in phase
TWO_CONSTANT_SECTIONS = [build_sum_truncation(make_family("two_constant", 0.4 * k, 0.7), 30) for k in (1, 2, 3)]


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

    def wrong_phases(*args):
        g = np.array([[np.nan if x is None else x for x in phase(*args)]])
        return WRONG_GUESSES[wrong](g)[0].tolist()

    phase = _tail.phase_guesses
    monkeypatch.setattr(_tail, "guesses", lambda *args: WRONG_GUESSES[wrong](guess(*args)))
    monkeypatch.setattr(_tail, "exterior_guess", wrong_exterior)
    monkeypatch.setattr(_tail, "phase_guesses", wrong_phases)
    monkeypatch.setattr(_kernels, "_dense_guesses", lambda *args: WRONG_GUESSES[wrong](dense(*args)))
    for ms in (FIGURE_3_SECTIONS[::6], [build_sum_truncation(PairFamily.two_constant(0.3, 2.0), 240)]):
        idx = np.arange(ms[0].n)
        assert sections_eigenvalues_at(ms, idx).tobytes() == plain_bisection(ms, idx).tobytes()
    for ms, idx, tol in EXTERIOR_BATCHES[-5:]:
        assert sections_eigenvalues_at(ms, idx, tol).tobytes() == plain_bisection(ms, idx, tol).tobytes()
    # in-band lanes of the plain-Python stage, which phase guesses settle
    ms = THRESHOLD_SECTIONS[:8]
    assert sections_eigenvalues_at(ms, THRESHOLD_INDEX).tobytes() == plain_bisection(ms, THRESHOLD_INDEX).tobytes()
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

    # the lanes are a list of one section's indices for _bisect_py and an
    # index array for _bisect_np
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
    certified, guessed = [], []
    certify, guess = _kernels._certify, _tail.guesses
    monkeypatch.setattr(_kernels, "_certify", lambda *args: certified.append(args[7].size) or certify(*args))
    monkeypatch.setattr(_tail, "guesses", lambda *args: guessed.append(args) or guess(*args))
    sections_eigenvalues_at(ms, [99])
    assert certified == [THRESHOLD + 1] and not guessed


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
    # hi, BELOW_LO's lower eigenvalue at lo), and leave no section to the
    # plain-Python leaves
    calls, settled = [], []
    dense, settle = _kernels._dense_guesses, _kernels._settle
    monkeypatch.setattr(_kernels, "_dense_guesses", lambda *args: calls.append(len(args[0])) or dense(*args))
    monkeypatch.setattr(_kernels, "_settle", lambda *args: settled.append(len(args[4])) or settle(*args))
    bisected = bisected_lanes(monkeypatch)
    idx = np.arange(ms[0].n)
    values = sections_eigenvalues_at(ms, idx)
    assert calls == [len(ms)] and settled == [] and sum(bisected) == 0
    assert values.tobytes() == plain_bisection(ms, idx).tobytes()


@pytest.mark.parametrize(
    "ms",
    [*([m] for m in EQ3_SECTIONS), FIGURE_1_SECTIONS, TWO_CONSTANT_SECTIONS],
    ids=["10", "30", "64", "figure-1", "two-constant"],
)
def test_family_spectra_up_to_order_64_bisect_no_lane(monkeypatch, ms):
    # dense guesses serve family sections up to DENSE_MAX_ORDER, tail or no
    # tail: in plain Python up to 64 lanes, in lockstep above
    bisected = bisected_lanes(monkeypatch)
    idx = np.arange(ms[0].n)
    values = sections_eigenvalues_at(ms, idx)
    assert sum(bisected) == 0
    assert values.tobytes() == plain_bisection(ms, idx).tobytes()


def test_threshold_batches_bisect_in_python_and_in_lockstep(monkeypatch):
    # one lane more than PY_MAX_INDICES moves bisection from Python, one
    # section a call, to one lockstep numpy call; lanes of sections with no
    # tail are certified by neither, and family lanes in a band only in
    # Python, from their phase guesses
    bisected = bisected_lanes(monkeypatch)
    sections_eigenvalues_at(NO_TAIL_SECTIONS[:THRESHOLD], THRESHOLD_INDEX)
    assert bisected == [1] * THRESHOLD
    sections_eigenvalues_at(NO_TAIL_SECTIONS, THRESHOLD_INDEX)
    assert bisected == [1] * THRESHOLD + [THRESHOLD + 1]
    bisected.clear()
    sections_eigenvalues_at(THRESHOLD_SECTIONS[:THRESHOLD], THRESHOLD_INDEX)
    assert sum(bisected) == 0
    sections_eigenvalues_at(THRESHOLD_SECTIONS, THRESHOLD_INDEX)
    assert bisected[-1] == THRESHOLD + 1


# in-band eigenvalues of ten eq3 sections of order 100, all of which the
# tail's guesses certify
IN_BAND_SECTIONS = [build_sum_truncation(PairFamily.head_omega(0.3 * k, 0.7), 100) for k in range(1, 11)]
IN_BAND_INDEX = np.arange(40, 60)


def test_lockstep_chunks_hold_max_lanes(monkeypatch):
    # lockstep bisection takes one lane to a row of arrays, MAX_LANES lanes
    # a chunk, whichever sections they belong to
    monkeypatch.setattr(_kernels, "MAX_LANES", 16)
    bisected = bisected_lanes(monkeypatch)
    values = sections_eigenvalues_at(THRESHOLD_SECTIONS, THRESHOLD_INDEX)
    assert bisected == [16, 16, 16, 16, 1]
    assert values.tobytes() == plain_bisection(THRESHOLD_SECTIONS, THRESHOLD_INDEX).tobytes()


def test_gapped_lockstep_chunk_equals_plain_bisection_bitwise(monkeypatch):
    # with the guesses of every other section dropped, _certify settles the
    # rest whole, and the 100 lanes of the five sections left to bisect,
    # which are not a run, go to one lockstep chunk
    guess = _tail.guesses

    def every_other(*args):
        g = guess(*args)
        g[1::2] = np.nan
        return g

    monkeypatch.setattr(_tail, "guesses", every_other)
    bisected = bisected_lanes(monkeypatch)
    values = sections_eigenvalues_at(IN_BAND_SECTIONS, IN_BAND_INDEX)
    assert bisected == [5 * IN_BAND_INDEX.size]
    assert values.tobytes() == plain_bisection(IN_BAND_SECTIONS, IN_BAND_INDEX).tobytes()


@pytest.mark.parametrize("name", FAMILIES)
def test_family_spectrum_bisects_only_its_exterior_eigenvalues(monkeypatch, name):
    bisected = bisected_lanes(monkeypatch)
    tridiag_eigenvalues(build_sum_truncation(make_family(name, 1.2, 0.7), 2000))
    assert sum(bisected) <= MAX_BISECTED


@pytest.mark.parametrize("name", FAMILIES)
def test_rho_numeric_certifies_its_exterior_eigenvalues(monkeypatch, name):
    # rho_numeric solves only eigenvalues of the order-n section outside the
    # bands, at most 64, and exterior guesses settle them in plain Python
    asked = []
    guess = _tail.exterior_guess
    monkeypatch.setattr(_tail, "exterior_guess", lambda *args: asked.append(args[-1]) or guess(*args))
    bisected = bisected_lanes(monkeypatch)
    rho_numeric(make_family(name, 1.2, 0.7), 2000)
    assert len(asked) >= 1 and sum(bisected) <= MAX_BISECTED


@pytest.mark.parametrize("name", FAMILIES)
def test_rho_numeric_builds_short_sections_and_solves_each_once(monkeypatch, name):
    # rho_numeric(f, 2000) builds no section above 2h + 4 for the longer
    # head h, runs no lockstep kernel, solves the exterior of the order-2000
    # section once, from its rows, and of the order-2200 section only counts
    # the rows
    f = make_family(name, 1.2, 0.7)
    builds, lockstep, solved = [], [], []
    build, solve = analysis.sum_entries, _kernels.bisect_rows
    monkeypatch.setattr(analysis, "sum_entries", lambda f, k: builds.append(k) or build(f, k))
    monkeypatch.setattr(_kernels, "bisect_rows", lambda rows, *a: solved.append(1 + len(rows[1]) + rows[3]) or solve(rows, *a))
    for kernel in ("_certify", "_settle_leaves", "_sturm_counts_np", "_bisect_np", "_dense_guesses"):
        monkeypatch.setattr(_kernels, kernel, lambda *args, kernel=kernel: lockstep.append(kernel))
    rho_numeric(f, 2000)
    assert builds and max(builds) <= short_order(f)
    assert lockstep == [] and solved == [2000]
