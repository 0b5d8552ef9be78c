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
``corner_block`` returns the block of a kind added at the bottom-right
(right boundary), a modified kind's symmetrized exactly once
(:func:`_gram_corner`), the classic one exactly symmetric as read from
the row (:func:`_classic_corner`).  The
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
from .symbols import (
    _EPS,
    ANGLE_TOL,
    BandedCoeffs,
    SymbolSpec,
    _freeze,
    _hermitian_part,
    _row_and_stencil,
    circular_distance,
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
    """Convolve the per-factor pairs (1, -exp(-i*E_i)), each alpha_i times.

    Returns the stencil c_0..c_N as a read-only array, c_0 == 1.  The
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
    and symmetric; a modified block is made exactly Hermitian by one
    symmetrization (:func:`_gram_corner`).  Its :func:`_mirror` is the
    top-left counterpart.
    """
    row, c = _row_and_stencil(spec)
    if kind is BoundaryKind.CLASSIC_NEUMANN:
        return _wrap(np.array(_classic_corner(row, spec), dtype=np.complex128))
    return _wrap(_gram_corner(c, kind))


def _gram_corner(c: np.ndarray, kind: BoundaryKind) -> np.ndarray:
    """The modified Neumann or Dirichlet :func:`corner_block` of the stencil
    c, as a read-only array.  It passes the tolerance test of
    ``matrices.hermitian`` and is symmetrized as that does, through
    ``symbols._hermitian_part``."""
    if kind is BoundaryKind.MODIFIED_NEUMANN:
        sign = -1.0
    elif kind is BoundaryKind.MODIFIED_DIRICHLET:
        sign = 1.0
    else:
        raise ValueError("corner_block is defined for the non-simple conditions only")
    n = len(c) - 1
    # Placement s adds c_{i-s} conj(c_{j-s}) at (i, j) for i, j >= s, in
    # the order of s, and nothing elsewhere.
    head = c[:n]
    products = head[:, None] * head.conj()
    out = np.zeros((n, n), dtype=np.complex128)
    for s in range(n):
        out[s:, s:] += products[: n - s, : n - s]
    h = sign * out
    return _freeze(_hermitian_part(h, h.conj().T))


def _gram_floor(c: np.ndarray, residual: float) -> float:
    """A proven lower bound on lambda_min(-bottom), for bottom the float
    modified Neumann corner of the stencil c and residual an upper bound
    of its distance ||Delta||_F from the exact corner (:func:`_gram_residual`):
    1/||d||_1**2 - residual.

    The exact -bottom is V V*, the Gram sum of the N placements that
    cross the edge, V the N x N unit lower-triangular Toeplitz matrix of
    c_0..c_{N-1}.  Its inverse is the lower-triangular Toeplitz matrix of
    d_0..d_{N-1}, the first N coefficients of 1/c(z) (d_0 = 1, d_k =
    -sum_{j=1..k} c_j d_{k-j}, as c_0 == 1), whose column and row sums
    are at most ||d||_1, so ||V^-1||_2 <= ||d||_1 and lambda_min(V V*) >=
    1/||d||_1**2; Weyl's inequality takes off ||Delta||_2 <= ||Delta||_F.
    d is computed in Python floats: by the backward error of a triangular
    solve (Higham, "Accuracy and Stability of Numerical Algorithms", Thm
    8.5) the computed d' has ||d||_1 <= ||d'||_1 / (1 - k), k = 4 * (N+3)
    * eps * ||c||_1 * ||d'||_1 (||c||_1 over c_0..c_{N-1}), with room for
    the roundings of forming the bound.  A NaN residual gives a NaN bound.
    """
    n = len(c) - 1
    cs = c.tolist()[:n]
    d = [1.0]
    for k in range(1, n):
        d.append(-sum(map(operator.mul, cs[1 : k + 1], d[::-1])))
    c_norm, d_norm = sum(map(abs, cs)), sum(map(abs, d))
    shrink = max(0.0, 1.0 - 4 * (n + 3) * _EPS * c_norm * d_norm)
    return (shrink / d_norm) ** 2 - residual


# Veltkamp's splitter: x * (2**27 + 1) splits a float into two halves of
# at most 26 significant bits each, whose products are exact floats.
_SPLITTER = 2.0**27 + 1.0
# Between these magnitudes every nonzero product of two halves is a normal
# float; smaller stencil parts are flushed to zero and bounded apart.
_SPLIT_RANGE = (2.0**-450, 2.0**500)


def _gram_residual(c: np.ndarray, a: np.ndarray, bottom: np.ndarray) -> tuple[float, float]:
    """Upper bounds (delta, right) of ||a - r||_1 + max(right, left) and of
    right = ||bottom - E_R||_F, for a the float coefficient row, r the
    exact autocorrelation of the stencil c, bottom the float modified
    Neumann corner and top its mirror, and E_R and E_L the exact corners
    of c: minus the Gram sums of its placements that cross a right and a
    left edge; left = ||top - E_L||_F.

    Every window a modified certificate reads differs from an exact Gram
    form of c by T(a - r) and by bottom - E_R and top - E_L on disjoint
    edge rows, so by at most delta in the 2-norm (``spectra.check_bracketing``).
    E_L is not the mirror of E_R: that holds only for an exact stencil.
    The entries r_t = sum_j c_j conj(c_{j+t}), E_R[i][j] = -sum_{s <= j}
    c_{i-s} conj(c_{j-s}) and E_L[i][j] = -sum_{1 <= m <= N-i} c_{i+m}
    conj(c_{j+m}), i >= j (both corners are Hermitian, and bottom must be
    exactly so), are sums of products c_x conj(c_y).  Each real product
    x * y in them is p + e exactly, p = fl(x * y) and e Dekker's error term
    from the products of 26-bit halves (Veltkamp's split), for all parts
    of c at once.  Each residual part, re or im, is one ``math.fsum`` of
    its float entry and its p and e terms, gathered in one numpy pass
    (:func:`_residual_layout`): correctly rounded, so below the exact part
    by at most 2**-53 of itself.  The rest is bounded upward: each |a_t -
    r_t| by its |re| + |im|, summed by ``math.fsum``; each Frobenius norm
    by ``math.hypot`` of the parts, off-diagonal ones twice (an error below
    one ulp); then the sum.  A stencil part below 2**-450 is taken as 0,
    and the corner norms grow by 2 * (N+1) * ||c - c'||_1 * ||c||_1 (norms
    over the parts), which bounds what that moves r and each corner by.
    An exact residual of 0 gives 0.0, a corner that is not exactly
    Hermitian, or a row or corner that is not finite, NaN, and a stencil
    part above 2**500, where a product could overflow, inf.
    """
    n = len(c) - 1
    if not (bottom == bottom.conj().T).all():
        return math.nan, math.nan
    low, high = _SPLIT_RANGE
    parts = c.view(np.float64)
    sizes = list(map(abs, parts.tolist()))
    if not all(v <= high for v in sizes):
        return math.inf, math.inf
    slack = 0.0
    tiny = [v for v in sizes if v < low]
    if any(tiny):
        parts = np.where(np.abs(parts) < low, 0.0, parts)
        slack = _up(2 * (n + 1) * math.fsum(tiny) * math.fsum(sizes))
    signs, order, segments, groups = _residual_layout(n)
    entries = np.concatenate((a, a.conj(), -bottom.ravel(), bottom.ravel()))
    values = np.concatenate(((-entries).view(np.float64), (_exact_products(parts) * signs).ravel()))
    flat = values[order].tolist()
    residual = [math.fsum(flat[segment]) for segment in segments]
    row, right_diagonal, right_off, left_diagonal, left_off = (residual[group] for group in groups)
    right, left = (
        _up(math.hypot(*diagonal, *off, *off) + slack)
        for diagonal, off in ((right_diagonal, right_off), (left_diagonal, left_off))
    )
    return _up(_up(math.fsum(map(abs, row))) + max(right, left)), right


def _affine_residual(row: np.ndarray, scale: float, a: np.ndarray, shift: float) -> float:
    """An upper bound of ||row - scale * a - shift * e_0||_1, |re| + |im| for
    each entry, for coefficient rows row and a of one length and e_0 the
    row's centre.  Each part of each entry is one ``math.fsum`` of its
    float entry, the exact product scale * a_t as p + e (Dekker) and, at
    the centre, -shift: correctly rounded, and their sum bounded upward.
    A scale or a nonzero part of a outside [2**-450, 2**500] gives inf.
    """
    parts = a.view(np.float64)
    low, high = _SPLIT_RANGE
    if not all(v == 0.0 or low <= abs(v) <= high for v in (scale, *parts.tolist())):
        return math.inf
    (scale_up, scale_low), (parts_up, parts_low) = _halves(scale), _halves(parts)
    products = scale * parts
    errors = scale_up * parts_up - products
    errors += scale_up * parts_low
    errors += scale_low * parts_up
    errors += scale_low * parts_low
    columns = list(zip(row.view(np.float64).tolist(), (-products).tolist(), (-errors).tolist()))
    columns[len(a) - 1] += (-shift,)  # the real part of the centre, a_0
    return _up(math.fsum(abs(math.fsum(column)) for column in columns))


def _exact_products(x: np.ndarray) -> np.ndarray:
    """(p, e) stacked, with x_i * x_j = p_ij + e_ij exactly, p = fl(x_i *
    x_j): e is Dekker's error term from the products of 26-bit halves
    (Veltkamp's split), exact while every nonzero x_i lies in
    ``_SPLIT_RANGE``."""
    up, low = _halves(x)
    out = np.empty((2, len(x), len(x)))
    products, errors = out
    np.multiply.outer(x, x, out=products)
    np.multiply.outer(up, up, out=errors)
    errors -= products
    errors += np.multiply.outer(up, low)
    errors += np.multiply.outer(low, up)
    errors += np.multiply.outer(low, low)
    return out


def _halves(v):
    """Veltkamp's split of v, a float or an array of them, into halves of
    at most 26 significant bits."""
    scaled = v * _SPLITTER
    upper = scaled - (scaled - v)
    return upper, v - upper


def _up(x: float) -> float:
    """An upper bound of the exact value of x >= 0, computed with a few
    roundings: x * (1 + 4 eps) and one ulp more, or 0.0 for 0.0."""
    return x if x == 0.0 else math.nextafter(x * (1.0 + 4 * _EPS), math.inf)


@functools.lru_cache(maxsize=16)
def _residual_layout(n: int) -> tuple:
    """(signs, order, segments, groups) of :func:`_gram_residual` for degree n.

    The gathered values are -a, -conj(a), bottom and -bottom, as float
    parts, then the products and then the errors of all parts of c, each
    table signed by ``signs`` as it enters +c_x conj(c_y): re = re*re +
    im*im, im = im*re - re*im.  On corner diagonal k, with b_j = bottom[j+k][j]
    and P(q) = c_{q+k} conj(c_q), q = 0..N-k, bottom - E_R at (j+k, j) is
    b_j + P(0) + .. + P(j), top - E_L at (N-1-j-k, N-1-j) the conjugate of
    b_j + P(N-k-j) + .. + P(N-k), and all N-k+1 terms less a_{-k} make
    r_{-k} - a_{-k}, less conj(a_k) conj(r_k - a_k).  So each diagonal's
    part, re or im, is two runs, the terms P in rising and in falling q,
    each corner residual a prefix of one: after each P(q) that ends one
    comes b_j and then -b_j, which cancels it in every longer prefix.
    The first run ends in -a_{-k}, the second, for k > 0, in -conj(a_k).
    Each run is O(N), so ``order``, its concatenation, is O(N**2);
    ``segments`` slices the prefixes out of it, and ``groups`` slices
    their sums into the row, the right corner's diagonal and off-diagonal
    parts, and the left corner's.  The last 16 degrees' layouts are kept.
    """
    width = 2 * n + 2
    conj_row = 2 * (2 * n + 1)
    floats = 2 * conj_row  # bottom[i][j] sits at floats + 2 * (n * i + j), -bottom n * n entries later
    tables = floats + 4 * n * n
    # The product of part u of c_x and part v of c_y, and its error, sit at
    # (2x + u) * width + 2y + v of their tables; re takes (u, v) = (0, 0)
    # and (1, 1), im (1, 0) and (0, 1).
    uvs = (((0, 0), (1, 1)), ((1, 0), (0, 1)))

    def terms(x: int, y: int, part: int) -> list[int]:
        at = [tables + (2 * x + u) * width + 2 * y + v for u, v in uvs[part]]
        return [i for a in at for i in (a, a + width * width)]

    # The row, then the right corner's diagonal and off-diagonal parts,
    # then the left corner's.
    order, groups = [], ([], [], [], [], [])
    for k in range(n + 1):
        for part in (0, 1):
            for side, first, step, row_at in ((1, 0, 1, 2 * (n - k)), (3, n - k, -1, conj_row + 2 * (n + k))):
                start = len(order)
                for j in range(n - k):
                    q = first + step * j
                    order += terms(q + k, q, part)
                    b = floats + 2 * (n * (j + k) + j) + part
                    groups[side + (k > 0)].append(slice(start, len(order) + 1))
                    order += [b, b + 2 * n * n]
                if side == 1 or k:
                    q = first + step * (n - k)
                    order += terms(q + k, q, part)
                    order.append(row_at + part)
                    groups[0].append(slice(start, len(order)))
    edges = np.cumsum([0, *map(len, groups)]).tolist()
    signs = np.tile([[1.0, -1.0], [1.0, 1.0]], (n + 1, n + 1))
    order = np.array(order)
    for array in (signs, order):
        array.flags.writeable = False
    segments = tuple(segment for group in groups for segment in group)
    return signs, order, segments, tuple(map(slice, edges, edges[1:]))


def _is_real(spec: SymbolSpec) -> bool:
    """Whether g is even, g(-x) = g(x), so that its row is real: each factor
    (E, alpha) has a factor (E', alpha) with E' within ``ANGLE_TOL`` of -E
    (E itself at pi and 2*pi)."""
    return all(
        any(m == mult and circular_distance(e, -angle) <= ANGLE_TOL for e, m in spec.factors)
        for angle, mult in spec.factors
    )


def _classic_corner(coeffs: BandedCoeffs, spec: SymbolSpec | None = None) -> list[list[float]]:
    """The rows, in Python floats, of the mirror of the top-left Hankel
    block H[i][j] = a_{-(i+j+1)}, zero past anti-diagonal N, of a real row:
    entry (i, j) is Re a_{i+j+1-N} for i + j >= N - 1 and 0.0 elsewhere.

    ``spec``, the row's symbol where it has one, decides first: when g is
    even (:func:`_is_real`) the rows are read from the real parts of the
    row, whatever the rounding of its imaginary parts, which grows with
    sum|a_k| and passes 1e-14 * max|H| for some real symbols of degree 6
    and more.  Any other row, a bare one too, is tested as outside input
    (``matrices.hermitian``): a complex one raises NonHermitianError with
    its Hermitian deviation, and the symmetrized block of a real one is the
    same Re(H) mirrored, bitwise, as H is symmetric.  The DCT-II floors of
    a classic certificate (``spectra._dct_floor``) take g even: this test
    is their precondition, and a row that passes it only by its tolerance
    is within 1e-14 * max|H| of real in each entry.
    """
    n = coeffs.half_bandwidth
    if spec is None or not _is_real(spec):
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
    spec: SymbolSpec | None,
    left: BoundaryKind,
    right: BoundaryKind,
    built: tuple[BandedCoeffs, np.ndarray] | None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The N x N blocks a window adds at its top-left and bottom-right corners.

    None stands for a simple edge.  Each kind's :func:`corner_block` is
    built once from the caller's ``built``, the row and stencil (coeffs,
    c) of spec (``symbols._row_and_stencil``), which only an edge that is
    not simple reads: a modified kind's by :func:`_gram_corner` from c,
    the classic one by :func:`_classic_corner` from coeffs.  The top-left
    block is its :func:`_mirror`.  :func:`_window` adds them to a body of
    any size >= 2N+1.
    """
    simple, classic = BoundaryKind.SIMPLE, BoundaryKind.CLASSIC_NEUMANN
    kinds = {left, right} - {simple}
    blocks = {
        kind: np.array(_classic_corner(built[0], spec), dtype=np.complex128)
        if kind is classic
        else _gram_corner(built[1], kind)
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
    top, bottom = _window_corners(spec, left, right, built)
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


def classic_split_difference(
    coeffs: BandedCoeffs, size1: int, size2: int, spec: SymbolSpec | None = None
) -> HermitianMatrix:
    """T_{L1+L2} minus the direct sum of classic-Neumann halves.

    For the plain Laplacian this difference is positive semidefinite; for
    2 + 2*cos(x) and for the squared Laplacian it has negative eigenvalues,
    which is exactly why the classic condition cannot bracket.  The
    returned matrix makes that failure inspectable.  It vanishes outside
    the 2N rows at the split, where it is the :func:`_split_block`.
    ``spec``, the row's symbol where it has one, decides whether the row
    is real (:func:`_classic_corner`), as for ``check --classic-neumann``;
    a bare row is tested as outside input.
    """
    n = coeffs.half_bandwidth
    block = _split_block(coeffs, size1, size2, spec)
    size = size1 + size2
    out = np.zeros((size, size), dtype=np.complex128)
    out[size1 - n : size1 + n, size1 - n : size1 + n] = block
    return _wrap(out)


def _split_block(
    coeffs: BandedCoeffs, size1: int, size2: int, spec: SymbolSpec | None = None
) -> np.ndarray:
    """The 2N x 2N block of :func:`classic_split_difference` at the split.

    It is T_2N with its diagonal N x N blocks replaced by minus the two
    classic corners that meet there.  The sizes are checked first: each
    half may be as small as N+1, where its corner still fits.  A complex
    row raises NonHermitianError (:func:`_classic_corner`, which ``spec``,
    the row's symbol where it has one, lets decide by the symbol).
    """
    n = coeffs.half_bandwidth
    _require_size(size1 + size2, 2 * n + 1)
    for half in (size1, size2):
        _require_size(half, n + 1)
    bottom = np.array(_classic_corner(coeffs, spec), dtype=np.complex128)
    block = _toeplitz_body(coeffs, 2 * n)
    # 0 - corner, not -corner, so that zero cells stay 0+0i.
    block[:n, :n] = 0.0 - bottom
    block[n:, n:] = 0.0 - _mirror(bottom)
    return block
