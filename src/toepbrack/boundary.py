"""Boundary-corrected Toeplitz restrictions via rank-one stencil sums.

Every product symbol of degree N factors through a stencil vector
``c_0..c_N`` (the convolution of the per-factor pairs (1, -exp(-i*E)),
made exactly conjugate-palindromic by one unimodular factor), whose
shifted copies psi_k (supported on [k, k+N]) satisfy

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
``corner_block`` returns the block of a kind added at the bottom-right
(right boundary), a modified kind's as the correctly rounded exact Gram
sums that ``symbols._row_and_stencil`` makes with the row, exactly
Hermitian, the Dirichlet one its exact negation (:func:`_gram_corner`),
and the classic one exactly symmetric as read from a real row
(:func:`_classic_corner`); an even symbol's row and corners are exactly
real, as its stencil is.  The matching top-left block is the
conjugated anti-diagonal reflection of it, exactly Hermitian too, which
equals the direct crossing-placement sum at the left edge (for a modified
kind, that sum correctly rounded, as the stencil is palindromic); a plain
(unconjugated) reflection would transpose the block and break both the rank-one identity and the operator inequalities
for complex symbols.  So a window with the same kind at both edges is
mirror-symmetric, W = J conj(W) J with J the exchange matrix, and a window
is stored as its band and its top block alone.
"""

from __future__ import annotations

import enum
import math
import operator

import numpy as np

from .errors import NonHermitianError
from .matrices import HermitianMatrix, _require_size, _toeplitz_body, _wrap, hermitian
from .symbols import (
    _EPS,
    BandedCoeffs,
    SymbolSpec,
    _as_integers,
    _freeze,
    _row_and_stencil,
)


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
    """Convolve the per-factor pairs (1, -exp(-i*E_i)), each alpha_i times,
    and make the result conjugate-palindromic.

    Returns the stencil c_0..c_N as a read-only array with c_{N-k} ==
    conj(c_k) exactly and c_0 unimodular (the convolution times one
    unimodular factor, exactly 1 or 1j for an even symbol).  The
    autocorrelation sum_j c_j * conj(c_{j+t}) reproduces the symbol
    coefficient a_t, which is the identity all boundary constructions here
    rely on.  It is the stencil of ``symbols._row_and_stencil``.
    """
    return _row_and_stencil(spec)[1]


def corner_block(spec: SymbolSpec, kind: BoundaryKind) -> HermitianMatrix:
    """The N x N block added at the bottom-right corner of the window.

    Modified Neumann subtracts the projectors of the N placements that
    cross the right boundary (negative semidefinite block); modified
    Dirichlet adds them (positive semidefinite).  The placement starting s
    rows above the last N has its first N - s coefficients on them.
    Classic Neumann adds :func:`_classic_corner`, which is exactly real
    and symmetric; a modified block is each entry's correctly rounded
    exact Gram sum, exactly Hermitian (:func:`_gram_corner`).  Its
    :func:`_mirror` is the top-left counterpart.
    """
    row, _, bottom, _ = _row_and_stencil(spec)
    if kind is BoundaryKind.CLASSIC_NEUMANN:
        return _wrap(np.array(_classic_corner(row), dtype=np.complex128))
    return _wrap(_gram_corner(bottom, kind))


def _gram_corner(bottom: np.ndarray, kind: BoundaryKind) -> np.ndarray:
    """The modified Neumann or Dirichlet :func:`corner_block`, as a
    read-only array, from ``bottom``, the Neumann one that
    ``symbols._row_and_stencil`` makes: that block itself, or its exact
    negation (0 - bottom, so that no zero part becomes -0.0)."""
    if kind is BoundaryKind.MODIFIED_NEUMANN:
        return bottom
    if kind is BoundaryKind.MODIFIED_DIRICHLET:
        return _freeze(0.0 - bottom)
    raise ValueError("corner_block is defined for the non-simple conditions only")


def _gram_floor(c: np.ndarray, residual: float) -> float:
    """A proven lower bound on lambda_min(-bottom), for bottom the float
    modified Neumann corner of the stencil c and residual an upper bound
    of its distance ||Delta||_F from the exact corner (:func:`_gram_delta`):
    1/||d||_1**2 - residual.

    The exact -bottom is V V*, the Gram sum of the N placements that
    cross the edge, V the N x N lower-triangular Toeplitz matrix of
    c_0..c_{N-1}.  Its inverse is the lower-triangular Toeplitz matrix of
    d_0..d_{N-1}, the first N coefficients of 1/c(z) (d_0 = 1/c_0, d_k =
    -(sum_{j=1..k} c_j d_{k-j}) / c_0, c_0 unimodular), whose column and
    row sums are at most ||d||_1, so ||V^-1||_2 <= ||d||_1 and
    lambda_min(V V*) >= 1/||d||_1**2; Weyl's inequality takes off
    ||Delta||_2 <= ||Delta||_F.  d is computed in Python complex floats:
    by the backward error of a triangular solve (Higham, "Accuracy and
    Stability of Numerical Algorithms", Thm 8.5) the computed d' has
    ||d||_1 <= ||d'||_1 / (1 - k), k = 4 * (N+3) * eps * ||c||_1 * ||d'||_1
    (||c||_1 over c_0..c_{N-1}), with room for the complex roundings and
    those of forming the bound.  A NaN residual gives a NaN bound.
    """
    n = len(c) - 1
    cs = c.tolist()[:n]
    d = [1.0 / cs[0]]
    for k in range(1, n):
        d.append(-sum(map(operator.mul, cs[1 : k + 1], d[::-1])) / cs[0])
    c_norm, d_norm = sum(map(abs, cs)), sum(map(abs, d))
    shrink = max(0.0, 1.0 - 4 * (n + 3) * _EPS * c_norm * d_norm)
    return (shrink / d_norm) ** 2 - residual


def _gram_delta(exact: tuple[list, int], a: np.ndarray, bottom: np.ndarray) -> tuple[float, float]:
    """Upper bounds (delta, right) of ||a - r||_1 + right and of right =
    ||bottom - E_R||_F, for a the float coefficient row, r the exact
    autocorrelation of the palindromic stencil c, bottom the float
    modified Neumann corner and E_R the exact one, minus the Gram sum of
    the placements of c that cross a right edge; ``exact`` is (sums,
    shift), the parts of -E_R and r as integers over 2**shift, that
    ``symbols._row_and_stencil`` rounds its row and corner from.

    Every window a modified certificate reads differs from an exact Gram
    form of c by T(a - r) and by bottom - E_R and its mirror on disjoint
    edge rows: as c is palindromic, the exact left corner E_L is the
    mirror of E_R, and the float top corner is the mirror of bottom.  So
    each window is within delta of its Gram form in the 2-norm
    (``spectra.check_bracketing``).  The build's row and corner are the
    correctly rounded exact parts, so for them ||a - r||_1 <= 2**-53 *
    ||a||_1 (|re| + |im| for each entry, in both) and right <= 2**-53 *
    ||bottom||_F, up to an underflow of 2**-1075 a part, whatever the
    degree: delta is known in advance.  It is still evaluated, exactly,
    on the row and corner read, against the build's sums (no second
    pass), so a corrupted one shows by its own distance: every read part
    is an integer over one power of two, |re| + |im| of each row entry
    and the square of every corner part are summed exactly (over one
    triangle, the other counted twice), and each sum is rounded once,
    upward.  An exact residual of 0 gives 0.0, one past the float range
    inf; a row or corner that is not exactly Hermitian, part by part on
    its Python list (a NaN fails its own mirror), or not finite, NaN.
    """
    sums, shift = exact
    n = len(a) // 2
    row, corner = a.tolist(), bottom.tolist()
    mirrors = [x.conjugate() for x in reversed(row)] + [y.conjugate() for col in zip(*corner) for y in col]
    read = []  # the parts of -bottom's lower triangle and of a_{-k}, in the order of the sums
    for k in range(n + 1):
        read += [-x for q in range(n - k) for x in (corner[q + k][q].real, corner[q + k][q].imag)]
        read += (row[n - k].real, row[n - k].imag)
    hermitian = all(map(operator.eq, row + [x for r in corner for x in r], mirrors))
    if not (hermitian and all(map(math.isfinite, read))):
        return math.nan, math.nan
    ints, scale = _as_integers(read)
    top = max(shift, scale)
    diffs = [(x << (top - scale)) - (y << (top - shift)) for x, y in zip(ints, sums)]
    row_sum = square = at = 0
    for k in range(n + 1):
        weight, end = 1 + (k > 0), at + 2 * (n - k)  # the mirror entry and r_k = conj(r_{-k})
        square += weight * sum(d * d for d in diffs[at:end])
        row_sum += weight * (abs(diffs[end]) + abs(diffs[end + 1]))
        at = end + 2
    right = _up_ratio(math.isqrt(square - 1) + 1 if square else 0, top)
    return _up(_up_ratio(row_sum, top) + right), right


def _affine_residual(row: np.ndarray, scale: float, a: np.ndarray, shift: float) -> float:
    """An upper bound of ||row - scale * a - shift * e_0||_1, |re| + |im| for
    each entry, for coefficient rows row and a of one length and e_0 the
    row's centre.  Every part of row and of a, scale and shift are
    integers over one power of two, so each part of the residual is an
    exact integer; their absolute sum is rounded once, upward.
    """
    centre = len(a) - 1  # the real part of a_0
    (scale_int, shift_int, *ints), power = _as_integers([scale, shift, *row.view(np.float64).tolist()])
    parts, exponent = _as_integers(a.view(np.float64).tolist())
    exact = [scale_int * x for x in parts]
    exact[centre] += shift_int << exponent
    return _up_ratio(sum(abs((x << exponent) - y) for x, y in zip(ints, exact)), power + exponent)


def _up_ratio(numerator: int, shift: int) -> float:
    """An upper bound of numerator / 2**shift >= 0 as a float: the
    correctly rounded quotient, then :func:`_up`; inf past the float range."""
    try:
        return _up(numerator / (1 << shift))
    except OverflowError:
        return math.inf


def _up(x: float) -> float:
    """An upper bound of the exact value of x >= 0, computed with a few
    roundings: x * (1 + 4 eps) and one ulp more, or 0.0 for 0.0."""
    return x if x == 0.0 else math.nextafter(x * (1.0 + 4 * _EPS), math.inf)


def _classic_corner(coeffs: BandedCoeffs) -> list[list[float]]:
    """The rows, in Python floats, of the mirror of the top-left Hankel
    block H[i][j] = a_{-(i+j+1)}, zero past anti-diagonal N, of a real row:
    entry (i, j) is Re a_{i+j+1-N} for i + j >= N - 1 and 0.0 elsewhere.

    The row decides: an exactly real one, as every even symbol's is, is
    read from its real parts.  Any other is tested as outside input
    (``matrices.hermitian``): a complex one raises NonHermitianError with
    its Hermitian deviation, and one within the tolerance gives the same
    Re(H) mirrored, bitwise, as H is symmetric.  The DCT-II floors of a
    classic certificate (``spectra._dct_floor``) take g even: this test is
    their precondition, and a row that passes it only by its tolerance is
    within 1e-14 * max|H| of real in each entry.
    """
    n = coeffs.half_bandwidth
    if coeffs.a.imag.any():
        h = np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(n - i):
                h[i, j] = coeffs[-(i + j + 1)]
        try:
            return hermitian(_mirror(h)).entries.real.tolist()
        except NonHermitianError as exc:
            raise NonHermitianError(f"classic Neumann needs a real coefficient row: {exc}") from exc
    re = coeffs.a.real.tolist()
    return [[re[i + j + 1 - n] if i + j >= n - 1 else 0.0 for j in range(n)] for i in range(n)]


def _mirror(block: np.ndarray) -> np.ndarray:
    """Conjugated anti-diagonal reflection: moves a corner block to the other edge."""
    return np.conj(block[::-1, ::-1])


def _window_corners(
    left: BoundaryKind,
    right: BoundaryKind,
    built: tuple[BandedCoeffs, np.ndarray, np.ndarray, tuple[list, int]] | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The N x N blocks a window adds at its top-left and bottom-right corners.

    None stands for a simple edge.  Each kind's :func:`corner_block` is
    taken once from the caller's ``built``, the build (coeffs, c, bottom,
    exact) of the symbol (``symbols._row_and_stencil``), which only an edge
    that is not simple reads: a modified kind's by :func:`_gram_corner`
    from bottom, the classic one by :func:`_classic_corner` from coeffs.
    The top-left block is its :func:`_mirror`.  :func:`_window` adds them
    to a body of any size >= 2N+1.
    """
    simple, classic = BoundaryKind.SIMPLE, BoundaryKind.CLASSIC_NEUMANN
    kinds = {left, right} - {simple}
    blocks = {
        kind: np.array(_classic_corner(built[0]), dtype=np.complex128)
        if kind is classic
        else _gram_corner(built[2], kind)
        for kind in kinds
    }
    bottom = None if right is simple else blocks[right]
    return (None if left is simple else _mirror(blocks[left])), bottom


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
    built = _row_and_stencil(spec)
    top, bottom = _window_corners(left, right, built)
    return _window(built[0], size, top, bottom)


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
    bottom = np.array(_classic_corner(coeffs), dtype=np.complex128)
    block = _toeplitz_body(coeffs, 2 * n)
    # 0 - corner, not -corner, so that zero cells stay 0+0i.
    block[:n, :n] = 0.0 - bottom
    block[n:, n:] = 0.0 - _mirror(bottom)
    return block
