"""Dense reference constructions used only by the test suite.

The library builds every window from a coefficient row and two corner
blocks.  These oracles build the same objects the way the paper states
them, as rank-one stencil sums and as the Dirichlet-from-Neumann map, so
the tests can compare the two routes.  The symbol itself has a second
route too: the sum over its coefficient row, the reference for
``fourier_coefficients``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from toepbrack import BandedCoeffs, HermitianMatrix, SymbolSpec, hermitian, stencil
from toepbrack.matrices import _require_size, _wrap


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
