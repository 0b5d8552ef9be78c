"""Dense reference constructions used only by the test suite.

The library builds every window from a coefficient row and two corner
blocks.  These oracles build the same objects the way the paper states
them, as rank-one stencil sums and as the Dirichlet-from-Neumann map, so
the tests can compare the two routes.  The symbol itself has a second
route too: the sum over its coefficient row, the reference for
``fourier_coefficients``.  :func:`dense_window` builds a window from its
coefficient row and top corner densely, for LAPACK, and
:func:`stencil_factor` the stencil factor C of T_m = C C*, for its
singular values.  :func:`outer_sum_corner` sums the
modified corner blocks' placements exactly and rounds each part once,
:func:`hankel_corner` builds the classic one as it was first built, by a
generic symmetrization, and :func:`dct_grid_floor` reads a classic
floor from the full DCT-II grid.  :func:`exact_gram_difference` and
:func:`exact_residual` form, in exact rationals, what a modified
certificate's windows differ by from Gram forms, the oracle of its
proof.  :func:`brute_confluent_det` and
:func:`exhaustive_grid_distance` are the brute-force references for
``confluent_vandermonde_abs`` and ``grid_shift``.

The inputs that several test files share live here too, so that no test
module imports another: ``ALL_PAIRS``, the 16 boundary pairs; the symbols
each pair is tested on (``REAL_SPECS``, ``COMPLEX_SPECS``,
:func:`_window_specs`); the window of a pair (:func:`_window`); the gap
scans of the gap accuracy tests (:func:`gap_symbols`); the symbols
of the ``nn_vs_0n`` bound tests (:func:`gram_floor_symbols`); and the real
symbols of the classic-Neumann tests (:func:`real_symbols`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from toepbrack import (
    TWO_PI,
    BandedCoeffs,
    BoundaryKind,
    HermitianMatrix,
    SymbolSpec,
    build_restricted,
    evaluate_symbol,
    fourier_coefficients,
    hermitian,
    make_symbol,
    spectra,
    stencil,
)
from toepbrack.matrices import _require_size, _wrap
from toepbrack.symbols import _row_and_stencil
from conftest import random_spec

N_KIND = BoundaryKind.MODIFIED_NEUMANN


def row_sum_values(coeffs: BandedCoeffs, x) -> np.ndarray:
    """sum_k a_k * exp(-i*k*x) over the coefficient row, real part, elementwise.

    Its imaginary residue must stay within 1e-12 * sum |a_k|, the bound a
    real-valued symbol's row meets.  Near the zeros of g the sum cancels,
    so it serves as a reference only away from them.
    """
    n = coeffs.half_bandwidth
    xs = np.asarray(x, dtype=np.float64)
    vals = np.exp(-1j * xs[..., None] * np.arange(-n, n + 1)) @ coeffs.a
    budget = 1e-12 * float(np.abs(coeffs.a).sum())
    assert np.abs(vals.imag).max(initial=0.0) <= budget, "row is not a real-valued symbol"
    return vals.real


def _placement(c: np.ndarray, k: int, size: int) -> np.ndarray:
    """psi_k truncated to the window [0, size)."""
    v = np.zeros(size, dtype=np.complex128)
    lo = max(k, 0)
    hi = min(k + len(c) - 1, size - 1)
    if lo <= hi:
        v[lo : hi + 1] = c[lo - k : hi - k + 1]
    return v


def rank_one_sum(spec: SymbolSpec, size: int, k_range: Iterable[int]) -> HermitianMatrix:
    """Sum of the outer products of the window-truncated stencils psi_k.

    ``k_range`` must consist of placements that intersect the window, i.e.
    -N <= k <= size-1.  With k_range = range(0, size - N) (all placements
    contained in the window) this is the Gram form of the both-sided
    modified Neumann restriction, equal to the :func:`build_restricted`
    window up to rounding; it is the O(L**3) oracle for that identity.
    """
    n = spec.degree
    _require_size(size, 2 * n + 1)
    c = stencil(spec)
    out = np.zeros((size, size), dtype=np.complex128)
    for k in sorted(int(k) for k in k_range):
        if not -n <= k <= size - 1:
            raise ValueError(f"placement {k} does not intersect the window [0, {size})")
        v = _placement(c, k, size)
        out += np.outer(v, v.conj())
    return _wrap(out)


def dirichlet_from_neumann(
    a: HermitianMatrix,
    block11_n: HermitianMatrix,
    block22_n: HermitianMatrix,
) -> HermitianMatrix:
    """diag(2*A11 - N11, 2*A22 - N22) for a 2 x 2 block-partitioned A.

    If A dominates diag(N11, N22) in the operator order, the returned
    direct sum dominates A; applying the map twice returns the original
    direct sum.  The block dimensions must add up to the dimension of A.
    """
    n1, n2 = block11_n.dim, block22_n.dim
    if n1 + n2 != a.dim:
        raise ValueError(
            f"block dims {n1}+{n2} do not add up to the matrix dim {a.dim}"
        )
    out = np.zeros((a.dim, a.dim), dtype=np.complex128)
    out[:n1, :n1] = 2.0 * a.entries[:n1, :n1] - block11_n.entries
    out[n1:, n1:] = 2.0 * a.entries[n1:, n1:] - block22_n.entries
    return hermitian(out)


def dense_toeplitz(coeffs, m):
    """Oracle: T_m(g) as a plain array for any m >= 1 (toeplitz_finite needs 2N+1)."""
    n = coeffs.half_bandwidth
    diff = np.arange(m)[None, :] - np.arange(m)[:, None]
    return np.where(np.abs(diff) <= n, coeffs.a[np.clip(diff, -n, n) + n], 0.0)


def outer_sum_corner(spec, kind):
    """Oracle: the modified Neumann or Dirichlet corner block as first
    built, the outer product of c_0..c_{N-1} accumulated on shrinking
    trailing blocks in the order of the placements and signed, but summed
    exactly, in Fractions, and rounded once per part."""
    c, n = [_exact(z) for z in stencil(spec)], spec.degree
    out = [[ZERO] * n for _ in range(n)]
    for s in range(n):
        for i in range(s, n):
            for j in range(s, n):
                out[i][j] = _plus(out[i][j], _times_conj(c[i - s], c[j - s]), -1 if kind is N_KIND else 1)
    return hermitian(np.array([[complex(float(re), float(im)) for re, im in row] for row in out]))


def hankel_corner(coeffs):
    """Oracle: the classic corner block of an even symbol's row as first
    built, ``matrices.hermitian`` of the conjugated mirror of the real
    Hankel block H[i][j] = Re a_{-(i+j+1)}, zero past anti-diagonal N."""
    n = coeffs.half_bandwidth
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n - i):
            h[i, j] = coeffs[-(i + j + 1)].real
    return hermitian(np.conj(h[::-1, ::-1]))


def dct_grid_floor(spec, sizes):
    """Oracle: min over the sizes L of g(pi*k/L) over the full grid k =
    0..L-1, the DCT-II spectrum of the classic window of size L."""
    return min(evaluate_symbol(spec, np.pi * np.arange(size) / size).min() for size in sizes)


def certificate_windows(spec, size1, size2, neumann=BoundaryKind.MODIFIED_NEUMANN):
    """The four windows of a bracketing certificate, as the engine reads
    them: both floors, lower, nn_vs_0n.  No certificate runs them through
    the engine; the engine's tests feed them to it directly, and the
    corrupted-corner tests read them by LAPACK."""
    n = spec.degree
    coeffs = fourier_coefficients(spec)
    top, bottom = spectra._window_corners(neumann, neumann, _row_and_stencil(spec))
    body = dense_toeplitz(coeffs, n)
    zero_row = BandedCoeffs(np.zeros_like(coeffs.a))
    return [
        (coeffs, size1, top),
        (coeffs, size2, top),
        (coeffs, 2 * n, -body - bottom),
        (zero_row, 2 * n, -bottom),
    ]


def _exact(z):
    """A float complex number as an exact (re, im) pair of Fractions."""
    return Fraction(z.real), Fraction(z.imag)


def _times_conj(x, y):
    """x * conj(y) for exact (re, im) pairs."""
    return x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1]


def _plus(x, y, sign=1):
    return x[0] + sign * y[0], x[1] + sign * y[1]


ZERO = (Fraction(0), Fraction(0))


def exact_residual(spec):
    """(x, right, left) in exact (re, im) pairs: x_t = a_t - r_t for t =
    -N..N, r the autocorrelation sum_j c_j conj(c_{j+t}) of the float
    stencil c; right = bottom minus the exact corner that the placements
    of c crossing a right edge make, -sum_{s <= min(i, j)} c_{i-s}
    conj(c_{j-s}); and left = top minus the one those crossing a left edge
    make, -sum_{1 <= m <= N - max(i, j)} c_{i+m} conj(c_{j+m})."""
    n = spec.degree
    c = [_exact(z) for z in stencil(spec)]
    a = [_exact(z) for z in fourier_coefficients(spec).a]
    x = []
    for t in range(-n, n + 1):
        r = ZERO
        for j in range(max(0, -t), min(n, n - t) + 1):
            r = _plus(r, _times_conj(c[j], c[j + t]))
        x.append(_plus(a[t + n], r, -1))
    top, bottom = spectra._window_corners(N_KIND, N_KIND, _row_and_stencil(spec))
    right, left = [], []
    for i in range(n):
        right.append([])
        left.append([])
        for j in range(n):
            entry = _exact(bottom[i, j])
            for s in range(min(i, j) + 1):
                entry = _plus(entry, _times_conj(c[i - s], c[j - s]))
            right[-1].append(entry)
            entry = _exact(top[i, j])
            for m in range(1, n + 1 - max(i, j)):
                entry = _plus(entry, _times_conj(c[i + m], c[j + m]))
            left[-1].append(entry)
    return x, right, left


def exact_gram_difference(spec, window, size=0):
    """W - G, exactly, as rows of (re, im) pairs, for a modified
    certificate's floor window of ``size`` (``window`` "floor") or its
    ``lower`` window.  W is made from the float row and corners as the
    certificate reads them: T_L(a) with the top corner at its top-left
    and the bottom one at its bottom-right, or T_2N(a) with its two
    diagonal N x N blocks replaced by -bottom and -top.  G is the Gram form
    sum psi_k psi_k* of the placements of the float stencil c that W
    stands for: the L - N interior ones, or the N that cross the split."""
    n = spec.degree
    c = [_exact(z) for z in stencil(spec)]
    a = [_exact(z) for z in fourier_coefficients(spec).a]
    top, bottom = spectra._window_corners(N_KIND, N_KIND, _row_and_stencil(spec))
    m, placed = (size, range(size - n)) if window == "floor" else (2 * n, range(n))
    w = [[a[j - i + n] if abs(j - i) <= n else ZERO for j in range(m)] for i in range(m)]
    for i in range(n):
        for j in range(n):
            if window == "floor":
                w[i][j] = _plus(w[i][j], _exact(top[i, j]))
                w[m - n + i][m - n + j] = _plus(w[m - n + i][m - n + j], _exact(bottom[i, j]))
            else:
                w[i][j] = _plus(ZERO, _exact(bottom[i, j]), -1)
                w[n + i][n + j] = _plus(ZERO, _exact(top[i, j]), -1)
    for k in placed:
        for i in range(k, k + n + 1):
            for j in range(k, k + n + 1):
                w[i][j] = _plus(w[i][j], _times_conj(c[i - k], c[j - k]), -1)
    return w


def dense_window(coeffs, m, top=None, *_):
    """Oracle: the m x m window T_m(g) with top and its mirror as corners."""
    n = coeffs.half_bandwidth
    out = dense_toeplitz(coeffs, m).astype(complex)
    if top is not None:
        out[:n, :n] += top
        out[-n:, -n:] += np.conj(top[::-1, ::-1])
    return out


ALL_PAIRS = [(left, right) for left in "0ndc" for right in "0ndc"]
REAL_SPECS = [
    make_symbol([(0.0, 1)]),
    make_symbol([(np.pi, 1)]),
    make_symbol([(0.0, 2), (2.0, 1), (-2.0, 1)]),
]
COMPLEX_SPECS = [make_symbol([(1.0, 1), (2.5, 2)]), make_symbol([(0.3, 3), (4.0, 1)])]


def _window_specs(pair):
    """Real symbols for every pair; complex ones where no classic corner is used."""
    return REAL_SPECS + ([] if "c" in pair else COMPLEX_SPECS)


def _window(spec, size, pair):
    left, right = (BoundaryKind.from_code(code) for code in pair)
    return build_restricted(spec, size, left, right).entries


def brute_confluent_det(nodes, mults):
    """Oracle: assemble the moment matrix and take |det| via LU."""
    n = sum(mults)
    k = np.arange(1, n + 1)
    cols = [k**j * z**k for z, m in zip(nodes, mults) for j in range(m)]
    return abs(np.linalg.det(np.array(cols).T))


def exhaustive_grid_distance(angles, shift, size):
    grid = (TWO_PI * np.arange(1, size + 1) / size - shift) % TWO_PI
    best = np.inf
    for e in angles:
        d = np.abs(grid - e) % TWO_PI
        best = min(best, float(np.minimum(d, TWO_PI - d).min()))
    return best


def gap_symbols():
    """Symbols of the gap accuracy tests: 40 seeded random symbols with N <=
    8, multiplicities up to 3 and factor angles at least 0.001, 0.05 or 0.5
    apart, each with its sizes up to L = 512."""
    local = np.random.default_rng(3800)
    cases = []
    while len(cases) < 40:
        spec = random_spec(local, max_factors=4, max_mult=3, min_sep=float(local.choice([0.001, 0.05, 0.5])))
        low = 2 * spec.degree + 1
        if spec.degree <= 8:
            cases.append((spec, sorted({low, int(local.integers(low, 160)), 128, 512})))
    return cases


def stencil_factor(c: np.ndarray, m: int) -> np.ndarray:
    """The dense m x (m+N) matrix C of the placements of the stencil c,
    C[i, i+p] = conj(c_p), whose Gram matrix C C* is T_m of the row."""
    factor = np.zeros((m, m + len(c) - 1), dtype=complex)
    for i in range(m):
        factor[i, i : i + len(c)] = np.conj(c)
    return factor


def gram_floor_symbols():
    """Symbols of the nn_vs_0n bound tests: 15 seeded random symbols of
    each degree N = 1..14, multiplicities up to 3 (tied zeros) and factor
    angles at least 0.001, 0.05 or 0.5 apart (at most 1/n for n factors)."""
    local = np.random.default_rng(3000)
    specs = []
    for degree in range(1, 15):
        for _ in range(15):
            mults = []
            while sum(mults) < degree:
                mults.append(int(local.integers(1, min(3, degree - sum(mults)) + 1)))
            min_sep = min(float(local.choice([0.001, 0.05, 0.5])), 1.0 / len(mults))
            while True:
                angles = np.sort(local.uniform(0.0, TWO_PI, len(mults)))
                if len(mults) == 1 or np.diff(angles, append=angles[0] + TWO_PI).min() >= min_sep:
                    break
            specs.append(make_symbol(list(zip(angles.tolist(), mults))))
    return specs


def real_symbols(seed, count):
    """``count`` seeded real product symbols: one to three conjugate angle
    pairs (E, -E), E in [0.05, pi - 0.05] and at least 0.05 apart, each
    pair of one multiplicity 1 or 2, and a factor at pi (odd degree) and
    at 0 each in about half of them, of multiplicity 1 or 2; N <= 16."""
    local = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        angles = np.sort(local.uniform(0.05, math.pi - 0.05, int(local.integers(1, 4))))
        if np.diff(angles).min(initial=math.inf) < 0.05:
            continue
        factors = []
        for e in angles.tolist():
            mult = int(local.integers(1, 3))
            factors += [(e, mult), (-e, mult)]
        for e in (math.pi, 0.0):
            if local.random() < 0.5:
                factors.append((e, int(local.integers(1, 3))))
        specs.append(make_symbol(factors))
    return specs
