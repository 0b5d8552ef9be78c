"""Boundary-corrected Toeplitz restrictions via rank-one stencil sums.

Every product symbol of degree N factors through a stencil vector
``c_0..c_N`` (the convolution of the per-factor pairs (1, -exp(-i*E))),
whose shifted copies psi_k (supported on [k, k+N]) satisfy

    T[i][j] = sum_k psi_k(i) * conj(psi_k(j)),

i.e. the infinite matrix is the sum of the rank-one projectors onto the
psi_k.  Dropping the projectors that cross a window edge yields the
softened (negative-semidefinite correction) restriction; adding them back
with opposite sign yields the stiffened one.  The two corrections are what
this module calls the modified Neumann and modified Dirichlet boundary
conditions.  The classic Toeplitz-plus-Hankel Neumann condition is kept as
well because it brackets only the plain Laplacian (E = 0, N = 1): already
for the tridiagonal symbol 2 + 2*cos(x) (E = pi) its Hankel corner adds
+1 where the softened corner needs -1, which the counterexample helpers
reproduce.

Every window is the plain Toeplitz body plus one N x N block per
non-simple edge, so all windows keep half-bandwidth N.  Corner orientation:
``corner_block`` returns the block added at the bottom-right (right
boundary).  The matching top-left block is the conjugated anti-diagonal
reflection of it, which equals the direct crossing-placement sum at the
left edge; a plain (unconjugated) reflection would transpose the block and
break both the rank-one identity and the operator inequalities for complex
symbols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatchError
from .matrices import HermitianMatrix, _require_size, _toeplitz_body, _wrap, hermitian
from .symbols import BandedCoeffs, SymbolSpec, fourier_coefficients, phase_angle


class BoundaryKind(enum.Enum):
    """Boundary condition applied at one window edge."""

    SIMPLE = "0"
    MODIFIED_NEUMANN = "n"
    MODIFIED_DIRICHLET = "d"
    CLASSIC_NEUMANN = "c"

    @classmethod
    def from_code(cls, code: str) -> "BoundaryKind":
        for kind in cls:
            if kind.value == code:
                return kind
        raise ValueError(f"unknown boundary code {code!r} (use 0, n, d or c)")


@dataclass(frozen=True)
class StencilVector:
    """Coefficients c_0..c_N of the generating stencil; c_0 == 1."""

    c: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.c) - 1


def stencil(spec: SymbolSpec) -> StencilVector:
    """Convolve the per-factor pairs (1, -exp(-i*E_i)), each alpha_i times.

    The autocorrelation sum_j c_j * conj(c_{j+t}) reproduces the symbol
    coefficient a_t, which is the identity all boundary constructions here
    rely on.
    """
    c = np.array([1.0 + 0.0j])
    for e, mult in spec.factors:
        pair = np.array([1.0, -np.exp(-1j * phase_angle(e))])
        for _ in range(mult):
            c = np.convolve(c, pair)
    c.flags.writeable = False
    return StencilVector(c)


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
    c = stencil(spec).c
    out = np.zeros((size, size), dtype=np.complex128)
    for k in sorted(int(k) for k in k_range):
        if not -n <= k <= size - 1:
            raise ValueError(f"placement {k} does not intersect the window [0, {size})")
        v = _placement(c, k, size)
        out += np.outer(v, v.conj())
    return _wrap(out)


def corner_block(spec: SymbolSpec, kind: BoundaryKind) -> HermitianMatrix:
    """The N x N block added at the bottom-right corner of the window.

    Modified Neumann subtracts the projectors of the N placements that
    cross the right boundary (negative semidefinite block); modified
    Dirichlet adds them (positive semidefinite).  The placement starting s
    rows above the last N has its first N - s coefficients on them.  The
    top-left counterpart is the conjugated anti-diagonal reflection,
    available through :func:`build_restricted`.
    """
    if kind is BoundaryKind.MODIFIED_NEUMANN:
        sign = -1.0
    elif kind is BoundaryKind.MODIFIED_DIRICHLET:
        sign = 1.0
    else:
        raise ValueError("corner_block is defined for the modified conditions only")
    c = stencil(spec).c
    n = len(c) - 1
    out = np.zeros((n, n), dtype=np.complex128)
    for s in range(n):
        v = np.concatenate([np.zeros(s, dtype=np.complex128), c[: n - s]])
        out += np.outer(v, v.conj())
    return _wrap(sign * out)


def _hankel_block(coeffs: BandedCoeffs) -> np.ndarray:
    """Classic Neumann corner: H[i][j] = a_{-(i+j+1)}, zero past anti-diagonal N."""
    n = coeffs.half_bandwidth
    h = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n - i):
            h[i, j] = coeffs[-(i + j + 1)]
    return h


def _mirror(block: np.ndarray) -> np.ndarray:
    """Conjugated anti-diagonal reflection: moves a corner block to the other edge."""
    return np.conj(block[::-1, ::-1])


def _window_corners(
    spec: SymbolSpec, left: BoundaryKind, right: BoundaryKind
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The N x N blocks a window adds at its top-left and bottom-right corners.

    None stands for a simple edge.  Each kind's bottom-right block is built
    once, and the top-left one is its :func:`_mirror`; only a classic edge
    needs the coefficient row.  Each block is validated and made exactly
    Hermitian by :func:`hermitian`, so a classic corner of a complex symbol
    raises NonHermitianError.  Every window is the Toeplitz body plus these
    two blocks, whatever its size (>= 2N+1).
    """
    simple = BoundaryKind.SIMPLE
    right_blocks = {}
    for kind in {left, right} - {simple}:
        if kind is BoundaryKind.CLASSIC_NEUMANN:
            right_blocks[kind] = _mirror(_hankel_block(fourier_coefficients(spec)))
        else:
            right_blocks[kind] = corner_block(spec, kind).entries
    top = None if left is simple else hermitian(_mirror(right_blocks[left])).entries
    bottom = None if right is simple else hermitian(right_blocks[right]).entries
    return top, bottom


def build_restricted(
    spec: SymbolSpec,
    size: int,
    left: BoundaryKind,
    right: BoundaryKind,
) -> HermitianMatrix:
    """Toeplitz window of the symbol with boundary conditions at each edge.

    Requires size >= 2N+1 so the two corner blocks never overlap.  Every
    combination is the plain window plus the :func:`_window_corners` of its
    two edges; the left block is the conjugated mirror of the right block
    of the same kind.  Simple/Simple returns the unmodified window.  Body
    and blocks are each exactly Hermitian, so their sum is too.
    """
    n = spec.degree
    _require_size(size, 2 * n + 1)
    top, bottom = _window_corners(spec, left, right)
    out = _toeplitz_body(fourier_coefficients(spec), size)
    if top is not None:
        out[:n, :n] += top
    if bottom is not None:
        out[size - n :, size - n :] += bottom
    return _wrap(out)


def classic_split_difference(coeffs: BandedCoeffs, size1: int, size2: int) -> HermitianMatrix:
    """T_{L1+L2} minus the direct sum of classic-Neumann halves.

    For the plain Laplacian this difference is positive semidefinite; for
    2 + 2*cos(x) and for the squared Laplacian it has negative eigenvalues,
    which is exactly why the classic condition cannot bracket.  The
    returned matrix makes that failure inspectable.  It vanishes outside
    the 2N rows at the split, where it is T_2N with its diagonal N x N
    blocks replaced by minus the two classic corners that meet there.
    Each half may be as small as N+1, where its corner still fits.  Only
    real-coefficient symbols give a Hermitian Hankel corner; complex
    coefficients raise NonHermitianError.
    """
    n = coeffs.half_bandwidth
    size = size1 + size2
    _require_size(size, 2 * n + 1)
    for half in (size1, size2):
        _require_size(half, n + 1)
    hankel = _hankel_block(coeffs)
    top, bottom = hermitian(hankel).entries, hermitian(_mirror(hankel)).entries
    block = _toeplitz_body(coeffs, 2 * n)
    # 0 - corner, not -corner, so that zero cells stay 0+0i.
    block[:n, :n] = 0.0 - bottom
    block[n:, n:] = 0.0 - top
    out = np.zeros((size, size), dtype=np.complex128)
    out[size1 - n : size1 + n, size1 - n : size1 + n] = block
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
        raise DimensionMismatchError(
            f"block dims {n1}+{n2} do not add up to the matrix dim {a.dim}"
        )
    out = np.zeros((a.dim, a.dim), dtype=np.complex128)
    out[:n1, :n1] = 2.0 * a.entries[:n1, :n1] - block11_n.entries
    out[n1:, n1:] = 2.0 * a.entries[n1:, n1:] - block22_n.entries
    return hermitian(out)
