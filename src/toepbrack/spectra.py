"""Eigenvalues, operator-inequality certification, kernels and gap scaling.

No LAPACK eigen or SVD routine computes a margin, a kernel check or a
gap; the test suite uses them as independent cross-checks.  The one such
call in the library is :func:`gap_scan`'s slope fit: ``np.polyfit`` solves
its least squares by ``numpy.linalg.lstsq``, LAPACK's SVD-based gelsd.
A modified bracketing certificate is proved: in exact arithmetic each
of its windows is a Gram form of stencil placements, and the float
windows differ from those by one residual delta, at most 2**-53 of the
row's and the corner's norms as both are the correctly rounded exact
sums of one pass (``symbols._row_and_stencil``), and evaluated exactly
against those sums, with no second pass (``boundary._gram_delta``); each
margin is a proven lower bound and no eigenvalue is computed
(:func:`check_bracketing`).  A classic certificate reads its
floors from the DCT-II spectrum g(pi*k/L) of its windows, at a few grid
points next to the zeros of g (:func:`_dct_floor`), its ``nn_vs_0n``
from the smallest eigenvalue of its N x N Hankel corner, by a cyclic
Jacobi in Python floats (:func:`_corner_lambda_min`), and its ``lower``
and ``upper`` as twice that.  No certificate solves for an eigenvalue
of a window.  Every gap is the smallest eigenvalue of T_{L-N}(g) = C C*,
C the placements of the stencil, and so sigma_min(C)**2: one blocked QR
of C* serves every size of a scan, inverse subspace iteration from one
vector per factor runs on all sizes at once, and the gap is a Rayleigh
quotient summed in double-double (``_factor.smallest_eigenvalues``,
which :func:`_gaps` loads on first use, so that no certificate and no
CLI ``check`` or ``export`` loads it).  By the Gram identity the
softened window of size L has an N-dimensional kernel and the rest of
its spectrum is that of T_{L-N}(g); each size's kernel is checked by
its own banded product.  Neither a certificate nor a gap builds an L x L
matrix.  A
cyclic Jacobi diagonalization, :func:`eigenvalues`, stays as the dense
reference of the test suite and the benchmark baseline; no command
calls it.  The sampled
gap floor evaluates g with ``symbols.evaluate_symbol``, in product form,
which keeps its relative accuracy near the zeros of g.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .boundary import (
    BoundaryKind,
    _affine_residual,
    _classic_corner,
    _gram_corner,
    _gram_delta,
    _gram_floor,
    _up,
    _window_corners,
)
from .errors import DuplicateNodeError, KernelMismatchError, NoConvergenceError
from .matrices import HermitianMatrix, _require_size
from .symbols import (
    _EPS,
    ANGLE_TOL,
    TWO_PI,
    BandedCoeffs,
    PentaDecomposition,
    SymbolSpec,
    _row_and_stencil,
    circular_distance,
    decompose_pentadiagonal,
    evaluate_symbol,
    penta_coefficients,
    phase_angle,
    reduce_angle,
)

_MAX_SWEEPS = 60
_FLOOR_SAMPLES = 8


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues and the absolute accuracy bound they carry."""

    values: np.ndarray
    tolerance: float


def _off_diagonal(h: np.ndarray) -> tuple[np.ndarray, float]:
    """|h| with its diagonal zeroed, and its Frobenius norm (summed without BLAS)."""
    off = np.abs(h)
    np.fill_diagonal(off, 0.0)
    return off, math.sqrt(float(np.sum(off * off)))


def _rotate(h: np.ndarray, p: int, q: int) -> None:
    """Apply the Jacobi rotation that annihilates h[p, q] (p < q), in place."""
    piv = complex(h[p, q])
    mag = abs(piv)
    phase = piv / mag
    tau = (h[q, q].real - h[p, p].real) / (2.0 * mag)
    t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    col_p, col_q = h[:, p].copy(), h[:, q].copy()
    h[:, p] = c * col_p - (phase.conjugate() * s) * col_q
    h[:, q] = s * col_p + (phase.conjugate() * c) * col_q
    row_p, row_q = h[p].copy(), h[q].copy()
    h[p] = c * row_p - (phase * s) * row_q
    h[q] = s * row_p + (phase * c) * row_q


def eigenvalues(matrix: HermitianMatrix) -> Spectrum:
    """All eigenvalues of a Hermitian matrix, ascending.

    Cyclic Jacobi: each sweep goes in order through the rows that hold an
    off-diagonal entry above a skip threshold, and in row p it rotates,
    left to right, each pair (p, q) whose entry exceeds the threshold when
    the row is scanned and again when the pair is reached.  Sweeps repeat
    until the off-diagonal Frobenius norm falls below 1e-12 * max(1,
    row-sum norm); by Weyl's inequality each returned value is then within
    that threshold of a true eigenvalue.  A rotation mixes two rows and two
    columns, so a matrix supported on a principal block is only ever
    rotated inside it.  The computation is deterministic for identical
    input.  No certificate, gap or command uses this engine; it is the
    dense reference of the test suite and the benchmark baseline.

    Raises
    ------
    NoConvergenceError
        If the budget of ``_MAX_SWEEPS`` (60) sweeps is exhausted, which
        signals corrupted (non-Hermitian) input rather than a hard problem
        instance.
    """
    n = matrix.dim
    if n == 1:
        return Spectrum(np.array([matrix.entries[0, 0].real]), 0.0)
    h = np.array(matrix.entries)
    thresh = 1e-12 * max(1.0, matrix.row_sum_norm())
    # Pivots below `skip` cannot push the off-norm above thresh/4 even if
    # every pair sits at the cutoff, so they are left unrotated.
    skip = 0.25 * thresh / n
    for _ in range(_MAX_SWEEPS):
        off, off_norm = _off_diagonal(h)
        if off_norm <= thresh:
            vals = np.sort(np.diag(h).real)
            vals.flags.writeable = False
            return Spectrum(vals, thresh)
        # A row with no entry above `skip` holds no pivot, and rotations of
        # other rows only mix its entries unitarily, so the sweep passes it.
        for p in np.flatnonzero(off.max(axis=1) > skip).tolist():
            for q in (p + 1 + np.flatnonzero(np.abs(h[p, p + 1 :]) > skip)).tolist():
                if abs(h[p, q]) > skip:
                    _rotate(h, p, q)
        # No re-symmetrization here: unitary similarity preserves Hermitian
        # input to machine precision, and corrupted (non-Hermitian) input
        # must stall and be reported instead of being silently repaired.
    raise NoConvergenceError(
        f"off-diagonal norm {_off_diagonal(h)[1]:.3e} above {thresh:.3e} after {_MAX_SWEEPS} sweeps"
    )


#: Relative threshold of every bracketing verdict and of the gap's kernel check.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class BracketReport:
    """Margins of the four-operator inequality chain, one number each.

    Every margin is a smallest eigenvalue, or a proven lower bound of it
    for the modified conditions where the proof holds
    (:func:`check_bracketing`), and certifies
    its inequality when it is >= -abs_tol.  ``floor_nn`` is measured
    relative to the symbol's infimum (``symbol_floor``, zero for product
    symbols), so all four verdicts share the same threshold convention,
    abs_tol = rel_tol * max(1, sum|a_k|).
    """

    size1: int
    size2: int
    floor_nn: float
    delta_nn: float
    delta_lower: float
    symbol_floor: float
    rel_tol: float
    abs_tol: float

    @property
    def delta_upper(self) -> float:
        """``delta_lower``, by the diag(I_N, -I_N) similarity of :func:`check_bracketing`."""
        return self.delta_lower

    @property
    def verdicts(self) -> dict[str, bool]:
        return {name: margin >= -self.abs_tol for name, margin in self.margins.items()}

    @property
    def all_hold(self) -> bool:
        return all(self.verdicts.values())

    @property
    def margins(self) -> dict[str, float]:
        return {
            "floor_nn": self.floor_nn,
            "nn_vs_0n": self.delta_nn,
            "lower": self.delta_lower,
            "upper": self.delta_upper,
        }


def check_bracketing(
    spec: SymbolSpec,
    size1: int,
    size2: int,
    neumann: BoundaryKind = BoundaryKind.MODIFIED_NEUMANN,
) -> BracketReport:
    """Certify the full inequality chain for a product symbol at one split.

    The four margins bound the smallest eigenvalues of, in order: the
    both-sided softened blocks (their floor, relative to inf g = 0), the
    one-sided minus both-sided softened direct sums, the whole window minus
    the softened direct sum, and the stiffened direct sum minus the whole
    window.  Verdicts compare each margin against the fixed threshold
    -1e-9 * max(1, sum|a_k|), sum|a_k| being the row-sum norm of T.  No
    window is built.  The three differences vanish outside the 2N rows at
    the split, where, with bottom and top the soft corners that meet
    there, each is a window of size 2N: ``nn_vs_0n`` is diag(-bottom,
    -top), ``lower`` has body T_2N(g) and corners -T_N(g) - bottom and
    -T_N(g) - top, and ``upper`` is ``lower`` with its coupling across the
    split negated, which conjugation by diag(I_N, -I_N) maps back to
    ``lower``: the two margins are equal.

    With the modified kinds every margin is a proven lower bound.  Let c
    be the float stencil, exactly conjugate-palindromic, r its exact
    autocorrelation, and E_R and E_L the exact corners that the
    placements of c crossing a right and a left edge make; E_L is the
    mirror of E_R.  In exact arithmetic each floor window T_L(r) + E_L +
    E_R is the Gram form Psi* Psi of the L - N interior placements of c,
    and the ``lower`` window T_2N(r) - diag(T_N(r) + E_R, T_N(r) + E_L)
    that of the N placements that cross the split: positive
    semidefinite, with a kernel.  The float windows, whose top corner is
    the mirror of bottom, differ from these by T(a - r), a the float row
    (only its coupling blocks, for ``lower``), of 2-norm at most ||a -
    r||_1, and by bottom - E_R and its mirror on disjoint edge rows.  By
    Weyl's inequality each smallest eigenvalue is then within delta =
    ||a - r||_1 + ||bottom - E_R||_F of 0.  Row and corner are the
    correctly rounded exact sums (``symbols._row_and_stencil``), so delta
    is at most 2**-53 * (||a||_1 + ||bottom||_F) plus underflow, at every
    degree: at most 2e-7 * abs_tol on seeded symbols from N = 28 to 511.
    :func:`boundary._gram_delta` evaluates it exactly on the row and the
    corner read, against the build's sums, so a corner that is not the correctly
    rounded Gram sum fails by its own distance.  floor_nn, ``lower`` and
    ``upper`` are reported as -delta (0.0, never -0.0, when delta is 0),
    and no eigenvalue is computed.  ``nn_vs_0n`` is min(0, .) of
    lambda_min(-bottom), which -top shares, and -E_R is V V*, the Gram sum
    of the N placements that cross an edge: it is 0.0 when
    :func:`boundary._gram_floor`, 1/||d||_1**2 - ||bottom - E_R||_F, is
    positive, and otherwise -delta.  The split sizes enter none of them.
    A delta above abs_tol, or a NaN one, fails every verdict it reports.

    Passing ``neumann=BoundaryKind.CLASSIC_NEUMANN`` substitutes the
    classic Toeplitz-plus-Hankel condition (with its induced Dirichlet
    counterpart 2*T - T_classic), for a real row only, as an even symbol's
    is exactly (``boundary._classic_corner``).  Its corners are not Gram forms,
    so the margins are the smallest eigenvalues themselves, min(0, .) of
    them for the differences (:func:`_min0`), each from an exact identity.
    A classic window of size L is diagonalized by the DCT-II, with the
    eigenvalues g(pi*k/L), k = 0..L-1, so floor_nn is the smallest of
    them over both sizes, read at a few grid points next to the zeros of g
    (:func:`_dct_floor`), never negative and with no work in L.  In the
    coordinates (J x_left, x_right), J the exchange matrix, the split
    difference is [[-1, 1], [1, -1]] (x) H, H the real N x N Hankel corner
    a_{i+j+1}, so its eigenvalues are 0 and -2 times those of H, and
    ``lower`` = ``upper`` = 2 * ``nn_vs_0n``.  ``nn_vs_0n`` is min(0, .) of
    lambda_min(-bottom), an N x N eigenvalue that :func:`_corner_lambda_min`
    reads by cyclic Jacobi from the corner's rows in Python floats
    (``boundary._classic_corner``), so a classic certificate solves for no
    window's eigenvalue.  Either kind makes its row, stencil and Neumann
    corner once, in one exact pass (``symbols._row_and_stencil``); a
    modified one reads that corner through ``boundary._gram_corner``, as
    every window does, and its delta the pass's sums.  The classic
    condition brackets only
    the plain Laplacian (E = 0, N = 1); already 2 + 2*cos(x) fails
    nn_vs_0n and the lower bracket.
    """
    if neumann not in (BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.CLASSIC_NEUMANN):
        raise ValueError("neumann must be the modified or the classic Neumann kind")
    built = _row_and_stencil(spec)
    return _certify(spec, size1, size2, neumann, built, built[0].a, 1.0, 0.0)


def _certify(
    spec: SymbolSpec,
    size1: int,
    size2: int,
    neumann: BoundaryKind,
    built: tuple[BandedCoeffs, np.ndarray, np.ndarray, tuple[list, int]],
    row: np.ndarray,
    scale: float,
    shift: float,
) -> BracketReport:
    """The :func:`check_bracketing` report of the coefficient row ``row``,
    which stands for scale * g + shift, g = spec with its build ``built``
    (``symbols._row_and_stencil``): its windows are T(row) with scale
    times the corners of g, each margin is scale times that of g, and
    abs_tol takes sum |row_t|.  A modified certificate reports -delta,
    from the build's exact sums, for floor_nn, ``lower`` and ``upper`` and
    computes no eigenvalue; a row other than g's adds ||row - scale * a -
    shift * e_0||_1 to scale * delta, so that a proven margin is one of
    the row's own windows.  A delta above abs_tol, which only a corrupted
    corner or a --penta row far from its decomposition can give, fails.
    """
    n = spec.degree
    for size in (size1, size2):
        _require_size(size, 2 * n + 1)
    abs_tol = _REL_TOL * max(1.0, float(np.abs(row).sum()))
    coeffs, c, bottom, exact = built
    if neumann is BoundaryKind.CLASSIC_NEUMANN:  # only for g itself: scale 1, shift 0
        hankel = _classic_corner(coeffs)  # refuses a complex row first
        delta_nn = _min0(_corner_lambda_min([[-x for x in r] for r in hankel]))
        floor = _dct_floor(spec, (size1, size2))
        return BracketReport(size1, size2, floor, delta_nn, 2.0 * delta_nn, shift, _REL_TOL, abs_tol)
    delta, right = _gram_delta(exact, coeffs.a, _gram_corner(bottom, neumann))
    if row is not coeffs.a:
        delta = _up(_up(scale * delta) + _affine_residual(row, scale, coeffs.a, shift))
    floor = 0.0 - delta  # never -0.0
    delta_nn = 0.0 if _gram_floor(c, right) > 0.0 else floor
    return BracketReport(size1, size2, floor, delta_nn, floor, shift, _REL_TOL, abs_tol)


def _min0(x: float) -> float:
    """min(0, x), the margin of a difference, as 0.0, never -0.0, for x >= 0;
    a NaN stays NaN, where min(0.0, nan) would report a holding 0.0."""
    return 0.0 + min(x, 0.0)


def _dct_floor(spec: SymbolSpec, sizes: Sequence[int]) -> float:
    """min over the sizes L of the smallest eigenvalue of the classic window
    of size L, min_k g(pi*k/L) over k = 0..L-1, from O(#factors) values of g.

    For a real row, T_L(g) with the Hankel corners a_{i+j+1} at both ends
    is diagonalized by the DCT-II, with the eigenvalues g(pi*k/L) (Ng, Chan
    and Tang, SIAM J. Sci. Comput. 21, 1999; Strang, SIAM Review 41, 1999),
    so g must be even; ``boundary._classic_corner`` refuses any other row.
    Between two consecutive zeros of g on the circle, log g is a sum of
    the concave alpha * log(4 sin^2((x - E)/2)), so over the grid points
    of that arc g is smallest at one of its two ends, the grid points next
    to a zero (next but one where the end is pi, k = L, which is not an
    eigenvalue; g is even about pi, so both neighbours carry the same value).
    Only those are evaluated: for each zero z in [0, pi], the folded factor
    angle, k = floor(z*L/pi) - 1 .. + 2, clipped to 0..L-1, which also
    covers an index one off by the rounding of z*L/pi; the indices are
    Python ints, and each distinct one is evaluated once.  g is evaluated
    with ``symbols.evaluate_symbol``, in product form, by one call on the
    flat list of the same floats pi * k / L as a full grid would be, and
    its minimum was that grid's, bitwise, on every case tested (L <= 4096);
    no array of length L is made, so a classic floor costs the same at
    any size.  The float
    window, whose row rounds g's coefficients, has eigenvalues within
    about 4**N * eps of these: at most 0.77 * 4**N * eps from LAPACK's on
    900 windows of 300 seeded real symbols with N <= 15.
    """
    folded = {min(e, TWO_PI - e) for e in spec.angles}
    x = []
    for size in sizes:
        ks = set()
        for z in folded:
            base = math.floor(z * size / math.pi)
            ks.update(min(max(k, 0), size - 1) for k in range(base - 1, base + 3))
        x += [math.pi * k / size for k in ks]
    return float(evaluate_symbol(spec, x).min())


def _corner_lambda_min(block: list[list[float]]) -> float:
    """lambda_min of a real symmetric N x N block, given as its rows of
    Python floats, by cyclic Jacobi on those rows, in place: a classic
    ``nn_vs_0n`` is min(0, .) of it for -bottom.

    Each sweep takes the pairs p < q row by row and rotates rows and
    columns p and q of each pair whose entry is above eps * ||block||_F / N,
    in Rutishauser's form (Wilkinson, "The Algebraic Eigenvalue Problem",
    1965), which sets that entry to exactly 0.  The first sweep that
    rotates nothing leaves every off-diagonal entry within that cutoff, so
    the off-diagonal Frobenius norm is below eps * ||block||_F, and the
    smallest diagonal entry is returned.  By Weyl's inequality it is within
    that norm of lambda_min of the rotated block, which is an exact
    orthogonal similarity of the block plus the rotations' rounding, a few
    eps * ||block||_F per sweep (Demmel and Veselic, "Jacobi's method is
    more accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992).  On the
    corners of 300 seeded real symbols with N <= 16 it was within 0.12 *
    4 * N * eps * ||block||_F of LAPACK's.  An even symbol's corner is
    exactly real; one that passes ``matrices.hermitian`` only by its
    tolerance (``boundary._classic_corner``) drops an imaginary part of
    at most 1e-14 * max(1, max|H|) per entry, which moves each eigenvalue
    by at most N times that (Bauer-Fike).

    Raises
    ------
    NoConvergenceError
        For a NaN or infinite entry, before any sweep, or when ``_MAX_SWEEPS``
        sweeps leave an entry above the cutoff.
    """
    n = len(block)
    norm = math.hypot(*(x for row in block for x in row))
    if not math.isfinite(norm):
        raise NoConvergenceError(f"the corner block has a non-finite entry (Frobenius norm {norm})")
    cutoff = _EPS * norm / n
    pairs = [(block[p], block[q], p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for row_p, row_q, p, q in pairs:
            apq = row_p[q]
            if abs(apq) <= cutoff:
                continue
            theta = (0.5 * row_q[q] - 0.5 * row_p[p]) / apq
            t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + math.hypot(1.0, theta))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            tau = s / (1.0 + c)
            row_p[p] -= t * apq
            row_q[q] += t * apq
            row_p[q] = row_q[p] = 0.0
            for r, row_r in enumerate(block):
                if r != p and r != q:
                    x, y = row_r[p], row_r[q]
                    row_r[p] = row_p[r] = x - s * (y + tau * x)
                    row_r[q] = row_q[r] = y + s * (x - tau * y)
            rotated = True
        if not rotated:
            return min(row[p] for p, row in enumerate(block))
    raise NoConvergenceError(f"corner entries above {cutoff:.3e} after {_MAX_SWEEPS} sweeps")


def check_bracketing_penta(
    a0: float,
    a1: float,
    a2: float,
    size1: int,
    size2: int,
) -> Tuple[BracketReport, PentaDecomposition]:
    """Bracketing certification for an admissible pentadiagonal row.

    The row is decomposed as scale * g + shift with g a product symbol;
    every windowed operator transforms affinely (scale times the g-operator
    plus shift times the identity), so the product-symbol margins carry
    over multiplied by ``scale``, the floor is measured against
    inf h = shift, and the threshold takes the row-sum norm of the row's
    own window, sum |a_k| (a window of L1 + L2 >= 5 has a full row).  The
    windows are the row's own, T(row) with ``scale`` times the modified
    corners of g, and the rounding of the decomposition enters delta, as
    ||row - scale * a(g) - shift||_1, so a proven margin bounds them.
    """
    deco = decompose_pentadiagonal(a0, a1, a2)
    built = _row_and_stencil(deco.spec)
    row = penta_coefficients(a0, a1, a2).a
    neumann = BoundaryKind.MODIFIED_NEUMANN
    return _certify(deco.spec, size1, size2, neumann, built, row, deco.scale, deco.shift), deco


def kernel_basis(spec: SymbolSpec, size: int) -> list[np.ndarray]:
    """The N polynomial-modulated harmonics annihilated by the softened window.

    For each factor angle E with multiplicity alpha the vectors are
    (k**j * exp(-i*E*k)) for k = 1..size and j = 0..alpha-1, each scaled to
    unit norm.  The powers are taken of k/size, which keeps them within
    [0, 1] (k**j alone overflows for large multiplicities) and changes the
    normalized vector only by rounding.  The harmonic tracks the factor angle with
    the same orientation the matrix rows use for their coefficients, which
    is what makes every interior stencil placement orthogonal to it.
    """
    _require_size(size, spec.degree)
    k = np.arange(1, size + 1, dtype=np.float64)
    basis = []
    for e, mult in spec.factors:
        wave = np.exp(-1j * phase_angle(e) * k)
        for j in range(mult):
            v = (k / size) ** j * wave
            v = v / np.linalg.norm(v)
            v.flags.writeable = False
            basis.append(v)
    return basis


def confluent_vandermonde_abs(
    nodes: Sequence[complex], multiplicities: Sequence[int]
) -> float:
    """|det| of the confluent moment matrix with columns k**j * z_i**k.

    The matrix has rows k = 1..N and one column per (node, derivative
    order) with N = sum of multiplicities.  For unimodular pairwise
    distinct nodes the determinant modulus has the closed form

        prod_i (1! * 2! * ... * (alpha_i - 1)!) *
        prod_{i<j} |z_i - z_j| ** (alpha_i * alpha_j).

    Raises
    ------
    DuplicateNodeError
        If two nodes lie within 1e-12 of each other.
    """
    z = np.asarray(nodes, dtype=np.complex128)
    alpha = [int(m) for m in multiplicities]
    if len(z) == 0:
        raise ValueError("need at least one node, got none")
    if len(z) != len(alpha) or any(m < 1 for m in alpha):
        raise ValueError("need one positive multiplicity per node")
    if not np.abs(np.abs(z) - 1.0).max() <= 1e-9:
        raise ValueError("nodes must lie on the unit circle")
    value = 1.0
    for m in alpha:
        for l in range(1, m):
            value *= math.factorial(l)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] - z[j]) <= 1e-12:
                raise DuplicateNodeError(f"nodes {i} and {j} coincide")
            value *= float(abs(z[i] - z[j])) ** (alpha[i] * alpha[j])
    return value


def _lattice_distance(angle: float, shift: float, grid_size: int) -> float:
    """Circular distance from ``angle`` to the shifted grid {2*pi*k/L - shift}.

    Both angles lie in (0, 2*pi], as ``grid_shift`` reduces them, so the
    remainder is never negative.
    """
    step = TWO_PI / grid_size
    r = math.fmod(angle + shift, step)
    return min(r, step - r)


def grid_shift(angles: Sequence[float], grid_size: int) -> float:
    """A shift keeping the L-point grid at distance >= 2*pi/(2**n * L) from all angles.

    Constructive induction: anchor the shift so the first angle sits exactly
    half a grid-gap off the grid, then for each further angle nudge by
    +-2*pi/(2**i * L) whenever it comes too close, accepting whichever sign
    restores the stage bound for all angles seen so far.  A nudge can leave
    an earlier angle exactly at the bound, within the rounding of
    ``angle + shift``, so the guarantee carries an absolute allowance:
    every angle lies at least 2*pi/(2**n * L) - 4 * eps * 2*pi off the grid.
    """
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    for e in angles:
        if not math.isfinite(float(e)):
            raise ValueError(f"angle {e!r} is not a finite number")
    es = [reduce_angle(e) for e in angles]
    if not es:
        raise ValueError("need at least one angle, got none")
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if circular_distance(es[i], es[j]) <= ANGLE_TOL:
                raise ValueError("angles must be pairwise distinct")
    shift = reduce_angle(-es[0] + math.pi / grid_size)
    for i in range(2, len(es) + 1):
        delta = TWO_PI / (2**i * grid_size)
        slack = delta - 4.0 * _EPS * TWO_PI
        if _lattice_distance(es[i - 1], shift, grid_size) >= slack:
            continue
        for candidate in (shift + delta, shift - delta):
            candidate = reduce_angle(candidate)
            if all(
                _lattice_distance(es[j], candidate, grid_size) >= slack
                for j in range(i)
            ):
                shift = candidate
                break
        else:  # mathematically unreachable: one sign always restores the bound
            raise AssertionError("grid-shift induction failed to find a valid nudge")
    return shift


def _gaps(spec: SymbolSpec, sizes: Sequence[int]) -> list[float]:
    """The gap of the softened window W of each size, by the Gram identity.

    W of size L is the Gram matrix Psi* Psi of the L - N stencil
    placements, and Psi has full row rank because the stencil's first
    coefficient is nonzero.  So W has an exactly N-dimensional kernel and its
    nonzero spectrum is that of T_{L-N}(g) = C C*: the gap is
    sigma_min(C)**2, every size from one factor path
    (``_factor.smallest_eigenvalues``), which takes the sizes ascending,
    as both callers give them.  All sizes are checked first, then each
    kernel in turn: KernelMismatchError, for the first failing size, unless
    max|W v| <= 1e-9 * sum|a_k| (``_REL_TOL`` times the row sum of W's
    interior rows; NaN fails) for each :func:`kernel_basis` vector v.  W v
    is the size's banded product, its 2N + 1 diagonals over the (L, N)
    stack of its basis, plus the corners on its N first and N last rows.
    """
    n, nn = spec.degree, BoundaryKind.MODIFIED_NEUMANN
    for size in sizes:
        _require_size(size, 2 * n + 1)
    coeffs, c, _, _ = built = _row_and_stencil(spec)
    top, bottom = _window_corners(nn, nn, built)
    kernel_tol = _REL_TOL * float(np.abs(coeffs.a).sum())
    for size in sizes:
        basis = np.stack(kernel_basis(spec, size), axis=1)
        image = np.zeros_like(basis)
        for k in range(-n, n + 1):  # row i of W holds a_k in column i + k
            lo, hi = max(0, -k), min(size, size - k)
            image[lo:hi] += coeffs.a[k + n] * basis[lo + k : hi + k]
        image[:n] += top @ basis[:n]
        image[size - n :] += bottom @ basis[size - n :]
        residual = np.abs(image).max(axis=0)
        if not residual.max() <= kernel_tol:
            raise KernelMismatchError(
                f"kernel vector {int(np.argmax(residual))} has residual {residual.max():.3e}"
                f" > {kernel_tol:.3e} in the softened window of size {size}"
            )
    from ._factor import smallest_eigenvalues

    return smallest_eigenvalues(c, spec.factors, [size - n for size in sizes], _corner_lambda_min)


def spectral_gap(spec: SymbolSpec, size: int) -> Tuple[int, float]:
    """Kernel dimension and first nonzero eigenvalue of the softened window.

    The one-size case of :func:`gap_scan`'s path (:func:`_gaps`).
    """
    return spec.degree, _gaps(spec, [size])[0]


@dataclass(frozen=True)
class GapReport:
    """Gap-versus-size scan with its log-log fit.

    ``records`` holds (size, gap) pairs ascending in size; the fit uses
    only sizes >= 4N to skip small-window transients, and ``c_empirical``
    is the smallest gap * size**(2*alpha_max) over the whole scan (the
    observed constant in the inverse-polynomial lower bound); it is inf
    where that product leaves the float64 range.
    """

    records: Tuple[Tuple[int, float], ...]
    slope: float
    intercept: float
    c_empirical: float
    alpha_max: int
    fit_sizes: Tuple[int, ...]


def gap_scan(spec: SymbolSpec, sizes: Iterable[int]) -> GapReport:
    """Measure the spectral gap across window sizes and fit its decay rate.

    Each size is the gap of :func:`spectral_gap`, in ascending size order:
    the kernel of every window is checked first, then one factor path
    reads all the gaps (:func:`_gaps`), bitwise as one call per size would.
    """
    n = spec.degree
    size_list = sorted(set(int(s) for s in sizes))
    records = list(zip(size_list, _gaps(spec, size_list)))
    fit = [(s, g) for s, g in records if s >= 4 * n]
    if len(fit) < 2:
        raise ValueError("need at least two sizes >= 4N for the slope fit")
    logs = np.log([s for s, _ in fit])
    logg = np.log([g for _, g in fit])
    slope, intercept = np.polyfit(logs, logg, 1)
    # An int above the float64 maximum raises OverflowError on conversion.
    weights = [s ** (2 * spec.alpha_max) for s, _ in records]
    c_emp = min(
        g * (w if w <= sys.float_info.max else math.inf) for (_, g), w in zip(records, weights)
    )
    return GapReport(
        records=tuple(records),
        slope=float(slope),
        intercept=float(intercept),
        c_empirical=float(c_emp),
        alpha_max=spec.alpha_max,
        fit_sizes=tuple(s for s, _ in fit),
    )


def sampled_gap_floor(spec: SymbolSpec, size: int, seed: int = 0) -> float:
    """Best provable gap floor over candidate grid shifts.

    Evaluates min_k g(2*pi*k/size - shift) for the constructive
    :func:`grid_shift` plus ``_FLOOR_SAMPLES`` (8) seeded uniform shifts and
    returns the largest of these minima; the spectral gap always dominates
    it.  g is evaluated by ``symbols.evaluate_symbol``, in product form,
    because the sum over the coefficient row cancels near the zeros of g:
    for 0:3 at L = 4096 the sum gives floor * L**6 = 0.0 and the product
    961.389.  Near a zero the rounding of x - E_i dominates:
    the grid keeps every angle at least 2*pi/(2**n * L) away, n the number
    of factors, so the floor carries a relative error of about
    4 * N * 2**n * L * eps, N the degree.
    """
    shifts = [grid_shift(spec.angles, size)]
    rng = np.random.default_rng(seed)
    shifts.extend(rng.uniform(0.0, TWO_PI, _FLOOR_SAMPLES).tolist())
    x = TWO_PI * np.arange(1, size + 1) / size - np.array(shifts)[:, None]
    return float(evaluate_symbol(spec, x).min(axis=1).max())
