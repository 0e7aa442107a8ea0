"""Shared independent oracles and inputs for the test suite.

The oracles deliberately avoid the package's own eigensolver path:
tridiagonal spectra come from characteristic-polynomial roots, dense
spectra from a determinant sign-change scan.
"""

import numpy as np
from numpy.polynomial import polynomial as P


def charpoly_tridiag_eigs(diag, off):
    """Eigenvalues of a symmetric tridiagonal matrix via det recursion + roots."""
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    prev = np.array([1.0])
    poly = np.array([diag[0], -1.0])
    for i in range(1, diag.size):
        poly, prev = (
            P.polysub(P.polymul(np.array([diag[i], -1.0]), poly), (off[i - 1] ** 2) * prev),
            poly,
        )
    roots = np.roots(poly[::-1])
    return np.sort(roots.real)


def commutator(p):
    """AB - BA of a pair; skew-symmetric up to floating rounding."""
    a, b = p.a.entries, p.b.entries
    return a @ b - b @ a


def involution(gen, k):
    """A random symmetric involution Q diag(+-1) Q^T of order k."""
    q, _ = np.linalg.qr(gen.standard_normal((k, k)))
    a = (q * np.where(np.arange(k) < gen.integers(0, k + 1), 1.0, -1.0)) @ q.T
    return 0.5 * (a + a.T)


def detscan_dense_eigs(a, npoints=6001):
    """Eigenvalues of a dense symmetric matrix by det sign-change bisection.

    Requires simple, well-separated eigenvalues; raises if the scan does not
    find exactly n sign changes.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    radius = float(np.max(np.sum(np.abs(a), axis=1)))
    xs = np.linspace(-radius - 1.0, radius + 1.0, npoints)
    fs = np.array([np.linalg.det(a - x * np.eye(n)) for x in xs])
    roots = []
    for i in range(npoints - 1):
        if fs[i] == 0.0:
            roots.append(xs[i])
        elif fs[i] * fs[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            flo = fs[i]
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                fm = np.linalg.det(a - mid * np.eye(n))
                if fm == 0.0:
                    lo = hi = mid
                elif flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    if len(roots) != n:
        raise AssertionError(f"det scan found {len(roots)} roots, expected {n}")
    return np.sort(np.array(roots))
