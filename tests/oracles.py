"""Dense reference constructions used only by the test suite.

The library builds every window from a coefficient row and two corner
blocks.  These oracles build the same objects the way the paper states
them, as rank-one stencil sums and as the Dirichlet-from-Neumann map, so
the tests can compare the two routes.  The symbol itself has a second
route too: the sum over its coefficient row, the reference for
``fourier_coefficients``.  The multisection engine has one as well: one
uniform pass per row loop, without the engine's look-ahead.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from toepbrack import BandedCoeffs, HermitianMatrix, SymbolSpec, hermitian, spectra, stencil
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


def uniform_multisection(jobs: list[list]) -> None:
    """``spectra._multisection`` without its look-ahead: one level per row loop.

    Each pass of :func:`spectra._pass` tests a job's grid if it has one,
    else the 31 equispaced interior shifts of its bracket, and narrows the
    bracket to the two shifts around its count.  A job stops when its
    bracket is no wider than its tolerance, lies at or above its cap, or
    its grid pass found the sign change inside the grid.
    """
    jobs = [job for job in jobs if spectra._open(job)]
    while jobs:
        shifts = [job[5] + (job[6] - job[5]) * spectra._STEPS if job[7] is None else job[7] for job in jobs]
        remaining = []
        for job, s, count in zip(jobs, shifts, spectra._pass(jobs, shifts)):
            if count > 0:
                job[5] = float(s[count - 1])
            if count < len(s):
                job[6] = float(s[count])
            closed = job[7] is not None and 0 < count < len(s)
            job[7] = None
            if not closed and spectra._open(job):
                remaining.append(job)
        jobs = remaining
