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

Every restricted window is one ``_window``: a coefficient row's Toeplitz
body plus one N x N block per non-simple edge, so all windows keep
half-bandwidth N.  A Toeplitz or restricted CLI export takes its 2N edge
rows from the ``_window`` of size 2N+1, whose rows are made by the same
additions, and writes the rest from the band.  Corner orientation:
``corner_block``, the one builder of every kind's block, returns the block
added at the bottom-right (right boundary), symmetrized exactly once.  The
matching top-left block is the conjugated anti-diagonal reflection of it,
exactly Hermitian too, which equals the direct crossing-placement sum at
the left edge; a plain (unconjugated) reflection would transpose the
block and break both the rank-one identity and the operator inequalities
for complex symbols.  So a window with the same kind at both edges is
mirror-symmetric, W = J conj(W) J with J the exchange matrix: the identity
the eigen engine (``spectra._banded_lambda_mins``) takes as given, reading
only a window's top block and factoring the window from both ends.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import NonHermitianError
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


def stencil(spec: SymbolSpec) -> np.ndarray:
    """Convolve the per-factor pairs (1, -exp(-i*E_i)), each alpha_i times.

    Returns the stencil c_0..c_N as a read-only array, c_0 == 1.  The
    autocorrelation sum_j c_j * conj(c_{j+t}) reproduces the symbol
    coefficient a_t, which is the identity all boundary constructions here
    rely on.
    """
    c = np.array([1.0 + 0.0j])
    for e, mult in spec.factors:
        pair = np.array([1.0, -np.exp(-1j * phase_angle(e))])
        for _ in range(mult):
            c = np.convolve(c, pair)
    c.flags.writeable = False
    return c


def corner_block(spec: SymbolSpec, kind: BoundaryKind) -> HermitianMatrix:
    """The N x N block added at the bottom-right corner of the window.

    Modified Neumann subtracts the projectors of the N placements that
    cross the right boundary (negative semidefinite block); modified
    Dirichlet adds them (positive semidefinite).  The placement starting s
    rows above the last N has its first N - s coefficients on them.
    Classic Neumann adds :func:`_classic_corner`.  Each block is made
    exactly Hermitian by one :func:`hermitian`; its :func:`_mirror` is the
    top-left counterpart.
    """
    if kind is BoundaryKind.CLASSIC_NEUMANN:
        return _classic_corner(fourier_coefficients(spec))
    if kind is BoundaryKind.MODIFIED_NEUMANN:
        sign = -1.0
    elif kind is BoundaryKind.MODIFIED_DIRICHLET:
        sign = 1.0
    else:
        raise ValueError("corner_block is defined for the non-simple conditions only")
    c = stencil(spec)
    n = len(c) - 1
    out = np.zeros((n, n), dtype=np.complex128)
    for s in range(n):
        v = np.concatenate([np.zeros(s, dtype=np.complex128), c[: n - s]])
        out += np.outer(v, v.conj())
    return hermitian(sign * out)


def _classic_corner(coeffs: BandedCoeffs) -> HermitianMatrix:
    """The mirror of the top-left Hankel block H[i][j] = a_{-(i+j+1)}, zero
    past anti-diagonal N; NonHermitianError unless the row is real."""
    n = coeffs.half_bandwidth
    h = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n - i):
            h[i, j] = coeffs[-(i + j + 1)]
    try:
        return hermitian(_mirror(h))
    except NonHermitianError as exc:
        raise NonHermitianError(f"classic Neumann needs a real coefficient row: {exc}") from exc


def _mirror(block: np.ndarray) -> np.ndarray:
    """Conjugated anti-diagonal reflection: moves a corner block to the other edge."""
    return np.conj(block[::-1, ::-1])


def _window_corners(
    spec: SymbolSpec, left: BoundaryKind, right: BoundaryKind
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The N x N blocks a window adds at its top-left and bottom-right corners.

    None stands for a simple edge.  Each kind's :func:`corner_block` is
    built once, and the top-left block is its :func:`_mirror`.
    :func:`_window` adds them to a body of any size >= 2N+1.
    """
    simple = BoundaryKind.SIMPLE
    blocks = {kind: corner_block(spec, kind).entries for kind in {left, right} - {simple}}
    return (None if left is simple else _mirror(blocks[left])), blocks.get(right)


def build_restricted(
    spec: SymbolSpec,
    size: int,
    left: BoundaryKind,
    right: BoundaryKind,
) -> HermitianMatrix:
    """Toeplitz window of the symbol with boundary conditions at each edge.

    Requires size >= 2N+1 so the two corner blocks never overlap.  Every
    combination is the :func:`_window` of the symbol's row and the
    :func:`_window_corners` of its two edges; the left block is the
    conjugated mirror of the right block of the same kind.  Simple/Simple
    returns the unmodified window.
    """
    _require_size(size, 2 * spec.degree + 1)
    top, bottom = _window_corners(spec, left, right)
    return _window(fourier_coefficients(spec), size, top, bottom)


def _window(
    coeffs: BandedCoeffs, size: int, top: np.ndarray | None, bottom: np.ndarray | None
) -> HermitianMatrix:
    """The row's Toeplitz body plus its top-left and bottom-right N x N blocks.

    None stands for a simple edge; the caller checks size >= 2N+1.  Body
    and blocks are each exactly Hermitian, so their sum is too.
    """
    n = coeffs.half_bandwidth
    out = _toeplitz_body(coeffs, size)
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
    the 2N rows at the split, where it is the :func:`_split_block`.
    """
    n = coeffs.half_bandwidth
    block = _split_block(coeffs, size1, size2)
    size = size1 + size2
    out = np.zeros((size, size), dtype=np.complex128)
    out[size1 - n : size1 + n, size1 - n : size1 + n] = block
    return _wrap(out)


def _split_block(coeffs: BandedCoeffs, size1: int, size2: int) -> np.ndarray:
    """The 2N x 2N block of :func:`classic_split_difference` at the split.

    It is T_2N with its diagonal N x N blocks replaced by minus the two
    classic corners that meet there.  The sizes are checked first: each
    half may be as small as N+1, where its corner still fits.  A complex
    row raises NonHermitianError (:func:`_classic_corner`).
    """
    n = coeffs.half_bandwidth
    _require_size(size1 + size2, 2 * n + 1)
    for half in (size1, size2):
        _require_size(half, n + 1)
    bottom = _classic_corner(coeffs).entries
    block = _toeplitz_body(coeffs, 2 * n)
    # 0 - corner, not -corner, so that zero cells stay 0+0i.
    block[:n, :n] = 0.0 - bottom
    block[n:, n:] = 0.0 - _mirror(bottom)
    return block
