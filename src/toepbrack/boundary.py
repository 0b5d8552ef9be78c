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
the eigen engine (``_multisection.lambda_mins``) takes as given, reading
only a window's top block and factoring the window from both ends.
"""

from __future__ import annotations

import enum
import functools
import math
import operator

import numpy as np

from .errors import NonHermitianError
from .matrices import HermitianMatrix, _require_size, _toeplitz_body, _wrap, hermitian
from .symbols import _EPS, BandedCoeffs, SymbolSpec, fourier_coefficients, phase_angle


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
    return _gram_corner(stencil(spec), kind)


def _gram_corner(c: np.ndarray, kind: BoundaryKind) -> HermitianMatrix:
    """The modified Neumann or Dirichlet :func:`corner_block` of the stencil c."""
    if kind is BoundaryKind.MODIFIED_NEUMANN:
        sign = -1.0
    elif kind is BoundaryKind.MODIFIED_DIRICHLET:
        sign = 1.0
    else:
        raise ValueError("corner_block is defined for the non-simple conditions only")
    n = len(c) - 1
    # Placement s adds c_{i-s} conj(c_{j-s}) at (i, j) for i, j >= s, in
    # the order of s, and nothing elsewhere.
    products = np.outer(c[:n], c[:n].conj())
    out = np.zeros((n, n), dtype=np.complex128)
    for s in range(n):
        out[s:, s:] += products[: n - s, : n - s]
    return hermitian(sign * out)


def _gram_floor(c: np.ndarray, block: np.ndarray) -> float:
    """A proven lower bound on lambda_min(block), for block the float -bottom
    of the modified Neumann corner of the stencil c: 1/||d||_1**2 - delta.

    In exact arithmetic -bottom = V V*, the Gram sum of the N placements
    that cross the edge, V the N x N unit lower-triangular Toeplitz matrix
    of c_0..c_{N-1}.  Its inverse is the lower-triangular Toeplitz matrix
    of d_0..d_{N-1}, the first N coefficients of 1/c(z) (d_0 = 1, d_k =
    -sum_{j=1..k} c_j d_{k-j}, as c_0 == 1), whose column and row sums
    are at most ||d||_1, so ||V^-1||_2 <= ||d||_1 and lambda_min(V V*) >=
    1/||d||_1**2.  d is computed in Python floats: by the backward error
    of a triangular solve (Higham, "Accuracy and Stability of Numerical
    Algorithms", Thm 8.5) the computed d' has ||d||_1 <= ||d'||_1 / (1 -
    k), k = 4 * (N+3) * eps * ||c||_1 * ||d'||_1 (||c||_1 over
    c_0..c_{N-1}), with room for the roundings of forming the bound.
    delta, by Weyl's inequality, bounds ||block - V V*||_2 <= ||block -
    V V*||_F: the measured Frobenius distance to the float product V V*,
    widened by (N+2)**2 * eps for its own rounding, plus 4 * (N+2) * eps *
    ||c||_1**2 for the rounding of that product.  So the bound is about
    block as given: a block that is not this Gram form gets a bound below
    its smallest eigenvalue, often below 0, and a block that is not finite
    a NaN or -inf one.
    """
    n = len(c) - 1
    cs = c.tolist()[:n]
    d = [1.0]
    for k in range(1, n):
        d.append(-sum(map(operator.mul, cs[1 : k + 1], d[::-1])))
    c_norm, d_norm = sum(map(abs, cs)), sum(map(abs, d))
    shrink = max(0.0, 1.0 - 4 * (n + 3) * _EPS * c_norm * d_norm)
    index, lower = _lower_index(n)
    v = c[index] * lower  # c is finite, so the wrapped entries above the diagonal become 0
    residual = block - v @ v.conj().T
    distance = math.sqrt(np.vdot(residual, residual).real)
    delta = distance * (1.0 + (n + 2) ** 2 * _EPS) + 4 * (n + 2) * _EPS * c_norm * c_norm
    return (shrink / d_norm) ** 2 - delta


@functools.cache
def _lower_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (N, N) index i - s into a stencil and the mask i >= s of a
    lower-triangular Toeplitz matrix."""
    index = np.subtract.outer(np.arange(n), np.arange(n))
    lower = index >= 0
    for x in (index, lower):
        x.flags.writeable = False
    return index, lower


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
    spec: SymbolSpec, left: BoundaryKind, right: BoundaryKind, c: np.ndarray | None = None
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The N x N blocks a window adds at its top-left and bottom-right corners.

    None stands for a simple edge.  Each kind's :func:`corner_block` is
    built once, the modified kinds' from the stencil c of spec (built here
    when the caller has none), and the top-left block is its
    :func:`_mirror`.  :func:`_window` adds them to a body of any size >= 2N+1.
    """
    simple, classic = BoundaryKind.SIMPLE, BoundaryKind.CLASSIC_NEUMANN
    kinds = {left, right} - {simple}
    if c is None and kinds - {classic}:
        c = stencil(spec)
    blocks = {
        kind: _classic_corner(fourier_coefficients(spec)) if kind is classic else _gram_corner(c, kind)
        for kind in kinds
    }
    bottom = None if right is simple else blocks[right].entries
    return (None if left is simple else _mirror(blocks[left].entries)), bottom


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
