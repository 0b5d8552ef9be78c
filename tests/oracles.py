"""Dense reference constructions used only by the test suite.

The library builds every window from a coefficient row and two corner
blocks.  These oracles build the same objects the way the paper states
them, as rank-one stencil sums and as the Dirichlet-from-Neumann map, so
the tests can compare the two routes.  The symbol itself has a second
route too: the sum over its coefficient row, the reference for
``fourier_coefficients``.  The eigen engine reads a window from its
coefficient row and top corner; :func:`dense_window` builds the same
window densely, for LAPACK.  :func:`brute_confluent_det` and
:func:`exhaustive_grid_distance` are the brute-force references for
``confluent_vandermonde_abs`` and ``grid_shift``.  The engine's own
oracles, one uniform pass per row loop and the plain twisted recurrence,
live with its tests at the end of ``test_spectra.py``.

The inputs that several test files share live here too, so that no test
module imports another: ``ALL_PAIRS``, the 16 boundary pairs; the symbols
each pair is tested on (``REAL_SPECS``, ``COMPLEX_SPECS``,
:func:`_window_specs`); the window of a pair (:func:`_window`); and the
gap scans of the enclosure tests (:func:`enclosure_symbols`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from toepbrack import (
    TWO_PI,
    BandedCoeffs,
    BoundaryKind,
    HermitianMatrix,
    SymbolSpec,
    build_restricted,
    fourier_coefficients,
    hermitian,
    make_symbol,
    spectra,
    stencil,
)
from toepbrack.matrices import _require_size, _wrap
from conftest import random_spec


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


def certificate_windows(spec, size1, size2, neumann=BoundaryKind.MODIFIED_NEUMANN):
    """The four engine windows of check_bracketing: both floors, lower, nn_vs_0n."""
    n = spec.degree
    coeffs = fourier_coefficients(spec)
    top, bottom = spectra._window_corners(spec, neumann, neumann)
    body = dense_toeplitz(coeffs, n)
    zero_row = BandedCoeffs(np.zeros_like(coeffs.a))
    return [
        (coeffs, size1, top, "zero"),
        (coeffs, size2, top, "zero"),
        (coeffs, 2 * n, -body - bottom, "min0"),
        (zero_row, 2 * n, -bottom, "min0"),
    ]


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


def enclosure_symbols():
    """Gap-scan symbols of the enclosure tests: 100 seeded random symbols
    with N <= 8 (ties, and angles as close as 0.001, included), the
    near-confluent pairs, and sizes for each; 0:3 and 1.0:2,1.0001:1 also
    at L = 1024 and 4096, where the engine returns its stopping width."""
    local = np.random.default_rng(2700)
    cases = [
        (make_symbol([(0.0, 3)]), [16, 64, 1024, 4096]),
        (make_symbol([(1.0, 2), (1.0001, 1)]), [16, 64, 1024, 4096]),
        (make_symbol([(1.0, 1), (1.001, 1)]), [8, 64, 256]),
        (make_symbol([(0.0, 1), (2.0, 1)]), [8, 33, 128]),
        (make_symbol([(1.0, 1), (2.5, 2), (4.0, 1)]), [16, 64, 256]),
    ]
    while len(cases) < 105:
        spec = random_spec(local, max_factors=4, max_mult=2, min_sep=float(local.choice([0.001, 0.05, 0.5])))
        low = 2 * spec.degree + 1
        cases.append((spec, sorted({low, *local.integers(low, 160, 2).tolist()})))
    return cases
