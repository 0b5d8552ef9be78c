"""Eigenvalues, operator-inequality certification, kernels and gap scaling.

One engine keeps external eigensolvers out of the verification path;
LAPACK appears only as an independent cross-check in the test suite.
Every window, boundary corners included, is the banded Toeplitz body plus
one N x N block per edge (``boundary._window_corners``), and its smallest
eigenvalue comes from multisection on the signs of banded LDL* pivots in
O(L * N**2) per pass, fed with the coefficient row and the top block.
That gives the floor of the bracketing chain, and the spectral gap too: by
the Gram identity the softened window of size L has an N-dimensional
kernel and the rest of its spectrum is that of T_{L-N}(g); the kernel is
checked by a banded product.  The other three bracketing margins are
smallest eigenvalues of differences that vanish outside the 2N rows at the
split, and each is itself a window of size 2N (a coefficient row and two
corners), so the same engine reads them.  Every window it reads is
mirror-symmetric, W = J conj(W) J with J the exchange matrix: the row is
Hermitian and the bottom block is the conjugated reflection of the top
one.  The engine takes that as part of its input, so it is given only the
top block, and each pass factors the window from both ends at once: the
forward recurrence stops at the middle row and one N x N meeting block
decides the rest, in about half the rows (the double factorization of
Parlett and Dhillon, "Fernando's solution to Wilkinson's problem", LAA
267, 1997).  The engine takes a batch of windows of one half-bandwidth
and advances all their passes through one row loop per arithmetic kind:
a certificate makes one call for its four windows, a gap scan one call
for all its sizes.  Windows of one coefficient row and top corner, the
two floors of a certificate or the sizes of a scan, share one setup per
call.  The shifts of a pass sit on the last, contiguous axis of one
Schur block, each with a running minimum pivot.  A window's copy of its
mirror block and its meeting touch only its own columns; retired shifts
run on unread and leave only at a window's end row and every few rows,
which changes no bit of any result.  Every margin of a modified certificate
is 0 in exact arithmetic (``nn_vs_0n`` only as min(0, lambda) of a
positive definite window), so each certificate window's first pass tests
the 9 shifts k*w, |k| <= 4, around 0, w the stopping width, and usually
ends the multisection at once; a gap bracket starts at [0, r] and narrows
32-fold per level.  A row loop after a uniform pass also runs the next
level, as a twin job on the bracket that the secant through the pass's
pivots predicts, and keeps it only when the prediction held, so a gap
takes about 8 row loops instead of 10 with every bit unchanged.  Neither a
certificate nor a gap builds an L x L matrix.
A cyclic Jacobi diagonalization, :func:`eigenvalues`, stays as the dense
reference of the test suite and the benchmark baseline; no command calls
it.  The sampled gap floor evaluates g with ``symbols.evaluate_symbol``, in
product form, which keeps its relative accuracy near the zeros of g.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Tuple

import numpy as np

from .boundary import BoundaryKind, _window_corners
from .errors import DuplicateNodeError, KernelMismatchError, NoConvergenceError
from .matrices import HermitianMatrix, _require_size, _toeplitz_body
from .symbols import (
    ANGLE_TOL,
    TWO_PI,
    BandedCoeffs,
    PentaDecomposition,
    SymbolSpec,
    circular_distance,
    decompose_pentadiagonal,
    evaluate_symbol,
    fourier_coefficients,
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


#: Relative threshold of every bracketing verdict, not the engine's
#: stopping width ``tol`` of :func:`_window_setup`.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class BracketReport:
    """Margins of the four-operator inequality chain, one number each.

    Every margin is a smallest eigenvalue and certifies its inequality when
    it is >= -abs_tol.  ``floor_nn`` is measured relative to the symbol's
    infimum (``symbol_floor``, zero for product symbols), so all four
    verdicts share the same threshold convention, abs_tol = rel_tol * max(1, sum|a_k|).
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

    The four margins are the smallest eigenvalues of, in order: the
    both-sided softened blocks (their floor, relative to inf g = 0), the
    one-sided minus both-sided softened direct sums, the whole window minus
    the softened direct sum, and the stiffened direct sum minus the whole
    window.  Verdicts compare each margin against the fixed threshold
    -1e-9 * max(1, sum|a_k|), sum|a_k| being the row-sum norm of T.

    No window is built, and one engine call gives all four margins:
    multisection on banded LDL* pivots (:func:`_banded_lambda_mins`), fed
    with a coefficient row and the top N x N corner of each window.  The
    floor reads each half as the Toeplitz body plus the two corners from
    :func:`boundary._window_corners`.  The three differences vanish outside
    the 2N rows at the split, where, with bottom and top the soft corners
    that meet there, each is itself such a window of size 2N:
    ``nn_vs_0n`` (minus the soft corners) has a zero coefficient row and
    corners -bottom and -top, and ``lower`` (the whole window minus the
    softened halves) has body T_2N(g) and corners -T_N(g) - bottom and
    -T_N(g) - top.  The stiff corner is minus the soft one for both kinds,
    so ``upper`` is the same window with its coupling across the split
    negated, which conjugation by diag(I_N, -I_N) maps back to ``lower``:
    the two margins are equal.  min(0, .) adds back the zero eigenvalue of
    the rows a difference does not touch.  In each window the bottom corner
    is the conjugated reflection of the top one, so the engine takes only
    the top corners, ``top``, -T_N(g) - bottom and -bottom, and factors
    every window from both ends at once, each pass running about half its
    rows.

    In exact arithmetic every margin of a modified certificate is 0.  Both
    floor windows have an N-dimensional kernel and ``lower`` is N rank-one
    placements on its 2N rows, so the engine first tests the 9 shifts k*w,
    |k| <= 4, w its stopping width, which brackets each to w in one pass.
    The ``nn_vs_0n`` window diag(-bottom, -top) is positive definite, each
    block being the Gram sum of the N independent crossing placements
    (lambda_min 1.0 for 0:1, 2.4e-3 for 0.3:3,2.0:3), so its margin is 0
    only through min(0, .).  It takes one pass because the two differences
    reported as min(0, .) stop once their bracket lies at or above 0;
    without that stop the certify ops of benchmark seeds 401-410 take 6670
    engine passes instead of 1270 and 46-69 % more CPU time.  A
    margin outside the grid, such as a classic-Neumann failure, falls back
    to uniform passes.  Each bracket end is an LDL* sign test either way.

    Passing ``neumann=BoundaryKind.CLASSIC_NEUMANN`` substitutes the
    classic Toeplitz-plus-Hankel condition (with its induced Dirichlet
    counterpart 2*T - T_classic).  It brackets only the plain Laplacian
    (E = 0, N = 1); already 2 + 2*cos(x) fails nn_vs_0n and the lower
    bracket.
    """
    if neumann not in (BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.CLASSIC_NEUMANN):
        raise ValueError("neumann must be the modified or the classic Neumann kind")
    n = spec.degree
    for size in (size1, size2):
        _require_size(size, 2 * n + 1)
    coeffs = fourier_coefficients(spec)
    top, bottom = _window_corners(spec, neumann, neumann)
    body = _toeplitz_body(coeffs, n)
    zero_row = BandedCoeffs(np.zeros_like(coeffs.a))
    windows = [(coeffs, size, top, "zero") for size in (size1, size2)]
    windows += [(coeffs, 2 * n, -body - bottom, "min0"), (zero_row, 2 * n, -bottom, "min0")]
    floor1, floor2, lower, delta_nn = _banded_lambda_mins(windows)
    return BracketReport(
        size1=size1,
        size2=size2,
        floor_nn=min(floor1, floor2),
        delta_nn=delta_nn,
        delta_lower=lower,
        symbol_floor=0.0,
        rel_tol=_REL_TOL,
        abs_tol=_REL_TOL * max(1.0, float(np.abs(coeffs.a).sum())),
    )


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
    own window, sum |a_k| (a window of L1 + L2 >= 5 has a full row).
    """
    deco = decompose_pentadiagonal(a0, a1, a2)
    base = check_bracketing(deco.spec, size1, size2)
    row_sum = float(np.abs(penta_coefficients(a0, a1, a2).a).sum())
    return replace(
        base,
        floor_nn=deco.scale * base.floor_nn,
        delta_nn=deco.scale * base.delta_nn,
        delta_lower=deco.scale * base.delta_lower,
        symbol_floor=deco.shift,
        abs_tol=_REL_TOL * max(1.0, row_sum),
    ), deco


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
    if np.abs(np.abs(z) - 1.0).max() > 1e-9:
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


_SHIFTS = 31
# A uniform pass tests lo + (hi - lo) * _STEPS, the interior points of 32 equal parts.
_STEPS = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
_STEPS.flags.writeable = False
# A window expected at 0 first tests the shifts k*w, |k| <= 4.  Every such
# window of benchmark seeds 1-20 and of 400 random certificates up to
# N = 12 lands in [-w, 0] or [0, w], or ("min0") at or above 0, so a wider
# grid only adds columns, each costing rows; 4 keeps the inexact grid
# point 3w, whose sign change still ends the pass.
_GRID = 4
_GRID_STEPS = np.arange(-_GRID, _GRID + 1)
_GRID_STEPS.flags.writeable = False
_EPS = float(np.finfo(np.float64).eps)


@functools.cache
def _band_index(n: int) -> np.ndarray:
    """Read-only (N+1, N+1) index into a_{-N..N}: entry (r, c) holds a_{c-r}."""
    k = np.arange(n + 1)
    index = n + k[None, :] - k[:, None]
    index.flags.writeable = False
    return index


@functools.cache
def _unit_row(n: int) -> np.ndarray:
    """Read-only row N of the (N+1) x (N+1) identity, as an (N+1, 1) column
    of the block: the decoupled row of a meeting."""
    unit = np.eye(n + 1)[n, :, None]
    unit.flags.writeable = False
    return unit


def _window_setup(coeffs: BandedCoeffs, top: np.ndarray | None) -> tuple:
    """What every window of one coefficient row and top corner shares:
    (template, T_N(g), tol, lo, hi, grid), the arrays read-only.

    Rows 0..N of T - s*I: the first N form the starting Schur block, and
    row N (entries a_N..a_1 above its diagonal) is the template of every
    row that enters later; the top corner sits in the starting block.  A
    row and a corner without imaginary parts give a real template."""
    n = coeffs.half_bandwidth
    a = coeffs.a
    if not (a.imag.any() or top is not None and top.imag.any()):
        a, top = a.real, None if top is None else top.real
    reach = float(np.abs(a).sum())
    template = a[_band_index(n)]
    body = template[:n, :n].copy()
    if top is not None:
        # The largest absolute row sums of top and of its reflection, the
        # bottom corner, each summed in its own row order.
        top_sum, bottom_sum = np.abs([top, top[::-1, ::-1]]).sum(axis=2).max(axis=1).tolist()
        reach += top_sum + bottom_sum
        template[:n, :n] += top
    tol = 8.0 * (n + 1) * _EPS * max(1.0, reach)
    grid = tol * _GRID_STEPS
    for x in (template, body, grid):
        x.flags.writeable = False
    return template, body, tol, 0.0 if top is None else -reach, reach, grid


def _banded_lambda_mins(windows: Sequence[tuple]) -> list[float]:
    """Smallest eigenvalues of windows (coeffs, m, top[, expect]) of one
    half-bandwidth N: each is the m x m window T_m(g) plus, unless top is
    None, the N x N block top at its top-left corner and its conjugated
    reflection bottom = conj(top[::-1, ::-1]) at its bottom-right one.

    Multisection on Sylvester's law of inertia: W - s*I is positive
    definite iff every pivot of its LDL* factorization is positive.  One
    pass runs the banded right-looking recurrence for a vector of ascending
    shifts at once, keeping only the trailing (N+1) x (N+1) Schur block; the
    first shift with a nonpositive pivot ends the pass for itself and every
    shift above it (:func:`_pass` tracks each shift's running minimum pivot
    and drops retired shifts in batches, which changes no bit).  The top
    corner enters with the starting block.

    Every window is mirror-symmetric, W = J conj(W) J, because its row is
    Hermitian (a_{-k} = conj(a_k)) and its corners are each other's
    reflection, so each pass factors it from both ends and meets in the
    middle.  With p = ceil((m-N)/2) and q = m-N-p <= p, W - s*I is positive
    definite iff its rows 0..p-1, its rows p+N..m-1 and the Schur complement
    M on the N middle rows p..p+N-1 are; with bandwidth N the top and bottom
    rows do not couple.  By the symmetry the bottom rows, eliminated from
    the bottom, give the pivots of the first q rows, which the forward
    recurrence has already tested, and their share of M is J conj(S_q) J -
    (T_N(g) - s*I), S_r being the Schur block of rows r..r+N-1 at the start
    of forward row r.  So the pass runs rows 0..p-1 forward, copies S_q on
    the way, and ends with N pivot steps on M = S_p + J conj(S_q) J -
    T_N(g) + s*I: each corner's share of the middle lies in exactly one of
    S_p and S_q, and T_N(g) in both, so the bottom corner enters only the
    row-sum bound below.  That needs corners that do not overlap, so a
    window with a corner and m < 2N raises ValueError.

    The bracket starts at [-r, r], r the row-sum bound: sum|a_k| plus the
    largest absolute row sum of each corner.  A window without corners
    starts at [0, r] instead, which assumes T_m(g) >= 0: the only such
    windows are those of :func:`_gaps`, whose row is a product symbol's,
    with g >= 0.  A uniform pass tests its 31 equispaced interior shifts,
    which shrinks it 32-fold, down to the banded Cholesky backward-error
    scale w = 8 * (N+1) * eps * max(1, r), and its midpoint is returned.
    A row loop after a uniform pass may also run the pass after it, on a
    bracket predicted from the pivots (:func:`_multisection`), which
    saves row loops and changes no bit of any result.

    ``expect`` "zero" says the smallest eigenvalue is 0 in exact arithmetic
    (the floors of a bracketing certificate).  The first pass then tests
    the 9 shifts k*w, |k| <= 4, end points included: a sign change among
    them leaves a bracket of width w at once, and otherwise uniform passes
    go on from [-r, -4w] or [4w, r].  "min0" does the same and returns
    min(0, lambda_min), stopping as soon as the bracket lies in [0, r]: a
    positive definite window, such as ``nn_vs_0n``, ends after its grid
    pass without resolving the eigenvalue that min(0, .) discards.
    The coefficient row may be zero, for a window that is just its two
    corners.  Needs m >= N+1 (L = 2N+1 gives m = N+1) and never builds an
    m x m matrix.  An empty list of windows gives an empty list.

    Windows that share their row and top corner object share one
    :func:`_window_setup`, built once per call with read-only arrays: the
    two floors of a certificate differ only in m, and so do all the sizes
    of a gap scan.
    All passes run in one row loop per arithmetic kind (:func:`_multisection`;
    complex / real division can round otherwise than real / real), and each
    shift does the arithmetic it does alone: no result depends on the batch.
    A job is [template, q, p, T_N(g), tol, lo, hi, grid, cap, pivots].
    """
    jobs, setups = [], {}
    for coeffs, m, top, *expect in windows:
        n = coeffs.half_bandwidth
        expect = expect[0] if expect else None
        if top is not None and m < 2 * n:
            raise ValueError(f"a window with corners needs m >= 2N = {2 * n}, got {m}")
        key = (id(coeffs), id(top))
        if key not in setups:
            setups[key] = _window_setup(coeffs, top)
        template, body, tol, lo, hi, grid = setups[key]
        # The update rewrites only the leading N x N block, so the entering
        # row stays in place until the middle row p, where it becomes a
        # decoupled unit row and the leading block becomes the meeting
        # block (rows p..p+N-1).
        p = (m - n + 1) // 2
        cap = 0.0 if expect == "min0" else math.inf
        jobs.append([template, m - n - p, p, body, tol, lo, hi, None if expect is None else grid, cap, None])
    for kind in (False, True):
        group = [job for job in jobs if np.iscomplexobj(job[0]) == kind]
        if group:
            _multisection(group)
    mids = [0.5 * (job[5] + job[6]) for job in jobs]
    # A NaN midpoint stays NaN: min(0.0, nan) would give 0.0.
    return [
        min(0.0, mid) if job[8] == 0.0 and not math.isnan(mid) else mid
        for job, mid in zip(jobs, mids)
    ]


def _open(job: list) -> bool:
    """Whether a job's bracket is still wider than tol and below its cap."""
    return job[6] - job[5] > job[4] and job[5] < job[8]


def _multisection(jobs: list[list]) -> None:
    """Narrow the bracket job[5:7] of each job [template, q, p, T_N(g), tol,
    lo, hi, grid, cap, pivots], all of one arithmetic kind, one row loop
    (:func:`_pass`) per pass or, with a twin, per two passes.  A pass
    tests the job's ``grid`` if it has one, else 31 equispaced interior
    shifts of its bracket.  A job stops when its bracket is no wider than
    tol, or lies at or above cap, or when its grid pass found the sign
    change inside the grid.

    After a uniform pass the secant through the running minimum pivots of
    the two highest shifts that passed (:func:`_estimate`) may give an
    estimate of the eigenvalue.  The next row loop then also runs the pass
    after it, as a twin job (:func:`_twin`) on the bracket that the
    estimate predicts.  When the window leaves exactly that bracket, the
    uniform engine would go on, and the twin's first failing shift is one
    it tested, the twin's count narrows the bracket once more; otherwise
    the twin is dropped.  Either way every bracket is bitwise that of one
    uniform pass per row loop: a column's arithmetic does not depend on
    its batch, the twin's shifts are the floats lo + (hi - lo) * _STEPS
    that the next uniform pass would test, and a pass reads nothing above
    its first failing shift.  A grid pass gives no estimate, so a
    certificate that its grid pass settles runs no twin.  The next
    estimate comes from the twin when its count was used."""
    jobs = [job for job in jobs if _open(job)]
    guesses = [None] * len(jobs)
    while jobs:
        batch, shifts, twins = [], [], []
        for job, guess in zip(jobs, guesses):
            lo, hi, grid = job[5:8]
            batch.append(job)
            shifts.append(lo + (hi - lo) * _STEPS if grid is None else grid)
            twin = None if guess is None else _twin(job, shifts[-1], guess)
            if twin:
                batch.append(twin[0])
                shifts.append(twin[1])
            twins.append(twin)
        passes = iter(zip(batch, shifts, _pass(batch, shifts)))
        jobs, guesses = [], []
        for twin in twins:
            job, s, count = next(passes)
            uniform = job[7] is None
            _narrow(job, s, count)
            closed = not uniform and 0 < count < len(s)
            job[7] = None
            last = (job, s, count) if uniform else None
            if twin:
                ahead = next(passes)
                _, s, count = ahead
                if job[5:7] == twin[0][5:7] and count < len(s) and _open(job):
                    _narrow(job, s, count)
                    last = ahead
            if not closed and _open(job):
                jobs.append(job)
                guesses.append(None if last is None else _estimate(*last))


def _narrow(job: list, shifts: np.ndarray, count: int) -> None:
    """Set job's bracket to the one a pass over ``shifts`` with ``count`` leaves."""
    if count > 0:
        job[5] = float(shifts[count - 1])
    if count < len(shifts):
        job[6] = float(shifts[count])


def _estimate(job: list, shifts: np.ndarray, count: int) -> float | None:
    """Where the secant through (shift, running minimum pivot) of the two
    highest shifts that passed reaches 0, if those pivots fall towards it."""
    if count < 2:
        return None
    second, top = job[9]
    if not 0.0 < top < second:
        return None
    below, at = float(shifts[count - 2]), float(shifts[count - 1])
    return at + top * (at - below) / (second - top)


def _twin(job: list, shifts: np.ndarray, guess: float) -> tuple | None:
    """The pass after the one over ``shifts``, if the eigenvalue sits at
    ``guess``: a job on the bracket that pass leaves then, and its uniform
    shifts up to the first above ``guess``.  None when the uniform engine
    would stop after this pass."""
    k = int(np.searchsorted(shifts, guess))  # the shifts below guess pass
    lo = float(shifts[k - 1]) if k else job[5]
    hi = float(shifts[k]) if k < len(shifts) else job[6]
    twin = job[:5] + [lo, hi, None, job[8], None]
    if not _open(twin):
        return None
    twin_shifts = lo + (hi - lo) * _STEPS
    return twin, twin_shifts[: int(np.searchsorted(twin_shifts, guess, side="right")) + 1]


_SWEEP = 16  # rows between drops of retired shifts, besides the end rows


def _pass(jobs: list[list], shifts: list[np.ndarray]) -> list[int]:
    """One row loop: for each job [template, q, p, T_N(g), ...], how many
    of its ascending ``shifts`` s leave W - s*I positive definite.  A job
    without a grid (job[7] None) whose count is at least 2 also gets, in
    job[9], the running minimum pivots of its two highest such shifts.

    Each job keeps J conj(S_q) J, its N x N Schur block S_q mirrored, at
    the start of row q, replaces S_p at the start of row p by the meeting
    block S_p + J conj(S_q) J - T_N(g) + s*I and ends at row p+N (see
    :func:`_banded_lambda_mins`); these two event rows touch only the
    job's own columns and leave the layout as it is.  Neighbouring jobs
    of one template, q, p and T_N(g), a window and its twin, share their
    event rows: one copy and one meeting cover their adjacent columns.

    The block is (N+1, N+1, S): the S shifts of all jobs, job after job,
    on its last, contiguous axis, so every ufunc of a row runs inner loops
    of length S.  Each column starts as its job's template with its shift
    subtracted on the diagonal.  A row is five ufunc calls (four for real windows, which need no
    conjugate) into buffers and views made once per block layout; numpy
    buffers the overlap of the in-place Schur update.  ``least``
    holds each shift's running minimum pivot, and a job's count is the
    index of its first shift with least <= 0: the first nonpositive pivot
    retires a shift and every shift above it.  Retired shifts run on under
    errstate, their values never read again.  The layout changes only at
    a job's end row, where its columns leave, and every _SWEEP rows after
    row 0; at both, each job's retired columns leave too, always as a
    suffix of the job's columns, so those at row p are a prefix of those
    copied at row q.  Dropping them ends early a pass whose shifts all
    retire.  A shift's column gets the same operations on the same operands
    whatever its place in the block, so the counts are bitwise independent
    of the batch and of when retired shifts leave."""
    n = len(jobs[0][0]) - 1
    real = not np.iscomplexobj(jobs[0][0])
    counts = [len(s) for s in shifts]
    width = list(counts)  # the job's columns of the block, 0 once it left
    starts = list(itertools.accumulate(width, initial=0))
    column_shifts = np.concatenate(shifts)
    least = np.full(len(column_shifts), np.inf)
    # The diagonal is rows 0, N+2, .. of the block's (N+1)**2 x S view.
    block = np.repeat(np.array([job[0] for job in jobs]).transpose(1, 2, 0), width, axis=2)
    block.reshape(-1, len(least))[:: n + 2] -= column_shifts
    ends = [job[2] + n for job in jobs]
    stops = set(ends)
    # Neighbours that share template, q, p and T_N(g), such as a window
    # and its twin, meet as one group: their columns stay side by side.
    groups: list[list[int]] = []  # [its first job, one past its last]
    events: dict[int, list[int]] = {}  # row -> the groups whose q or p it is
    head = jobs[0]
    for j, job in enumerate(jobs):
        if j and job[0] is head[0] and job[3] is head[3] and job[1] == head[1] and job[2] == head[2]:
            groups[-1][1] = j + 1
            continue
        head = job
        for row in {job[1], job[2]}:
            events.setdefault(row, []).append(len(groups))
        groups.append([j, j + 1])
    mirrors = [None] * len(groups)  # each group's J conj(S_q) J and the layout it was copied in
    unit = _unit_row(n)
    layout = True
    with np.errstate(all="ignore"):
        # The last end row ends every job left, so the loop breaks there.
        for i in range(max(ends) + 1):
            for g in events.get(i, ()):
                j0, j1 = groups[g]
                start, at = starts[j0], starts[j1 - 1] + width[j1 - 1]
                if start == at:
                    continue
                job = jobs[j0]
                if job[1] == i:
                    mirror = block[n - 1 :: -1, n - 1 :: -1, start:at]
                    mirrors[g] = mirror.copy() if real else np.conj(mirror), starts
                if job[2] == i:
                    # M = S_p + J conj(S_q) J - T_N(g) + s*I, after a unit
                    # row N.  Each job's columns here are a prefix of its
                    # columns at row q; the layout is the one copied unless
                    # columns left in between.
                    mine = block[:, :, start:at]
                    mine[n] = unit
                    mine[:n, n] = 0.0
                    middle = mine[:n, :n]
                    copied, copied_starts = mirrors[g]
                    if copied_starts is starts:
                        middle += copied
                    else:
                        for k in range(j0, j1):
                            here, there = starts[k] - start, copied_starts[k] - copied_starts[j0]
                            middle[:, :, here : here + width[k]] += copied[:, :, there : there + width[k]]
                    middle -= job[3][:, :, None]
                    flat[: n * (n + 2) : n + 2, start:at] += column_shifts[start:at]
            if i in stops or (i and i % _SWEEP == 0):
                # The retired columns, then one past the last: a job's first
                # retired shift is the first hit at or after its start.
                hits = np.flatnonzero(least <= 0.0).tolist() + [len(least)]
                for j, start in enumerate(starts[:-1]):
                    if width[j]:
                        first = hits[bisect.bisect_left(hits, start)]
                        counts[j] = width[j] = min(first, start + width[j]) - start
                        if ends[j] == i:
                            width[j] = 0
                            if counts[j] > 1 and jobs[j][7] is None:
                                jobs[j][9] = least[start + counts[j] - 2 : start + counts[j]].tolist()
                if sum(width) < len(least):
                    if not any(width):
                        break
                    keep = np.zeros(len(least), dtype=bool)
                    for start, columns in zip(starts, width):
                        keep[start : start + columns] = True
                    kept = np.flatnonzero(keep)
                    block = block.take(kept, axis=2)
                    least = least[kept]
                    column_shifts = column_shifts[kept]
                    starts = list(itertools.accumulate(width, initial=0))
                    layout = True
            if layout:
                pivots, v = block[0, 0].real, block[1:, 0]
                head, tail = block[:n, :n], block[1:, 1:]
                flat = block.reshape(-1, len(least))
                q = np.empty_like(v)
                w = v if real else np.empty_like(v)
                outer = np.empty_like(head)
                q_col, w_row = q[:, None], w[None]
                layout = False
            np.fmin(least, pivots, out=least)
            np.divide(v, pivots, out=q)
            if not real:
                np.conjugate(v, out=w)
            np.multiply(q_col, w_row, out=outer)
            np.subtract(tail, outer, out=head)
    return counts


def _gaps(spec: SymbolSpec, sizes: Sequence[int]) -> list[float]:
    """The gap of the softened window W of each size, by the Gram identity.

    W of size L is the Gram matrix Psi* Psi of the L - N stencil
    placements, and Psi has full row rank because the stencil's first
    coefficient is 1.  So W has an exactly N-dimensional kernel and its
    nonzero spectrum is that of T_{L-N}(g): the gap is lambda_min(T_{L-N}(g)),
    every size in one batch of the banded engine.  All sizes are checked
    first, then every kernel: KernelMismatchError unless max|W v| <= 1e-9 *
    sum|a_k| (the row sum of W's interior rows; NaN fails) for each
    :func:`kernel_basis` vector v, W v being the banded product of the
    Toeplitz body and then of the corners on the N edge rows.
    """
    n, nn = spec.degree, BoundaryKind.MODIFIED_NEUMANN
    for size in sizes:
        _require_size(size, 2 * n + 1)
    coeffs = fourier_coefficients(spec)
    top, bottom = _window_corners(spec, nn, nn)
    kernel_tol = 1e-9 * float(np.abs(coeffs.a).sum())
    for size in sizes:
        basis = np.stack(kernel_basis(spec, size), axis=1)
        image = np.zeros_like(basis)
        for k in range(-n, n + 1):  # row i of W holds a_k in column i + k
            lo, hi = max(0, -k), min(size, size - k)
            image[lo:hi] += coeffs.a[k + n] * basis[lo + k : hi + k]
        image[:n] += top @ basis[:n]
        image[-n:] += bottom @ basis[-n:]
        residual = np.abs(image).max(axis=0)
        if not residual.max() <= kernel_tol:
            raise KernelMismatchError(
                f"kernel vector {int(np.argmax(residual))} has residual {residual.max():.3e}"
                f" > {kernel_tol:.3e} in the softened window of size {size}"
            )
    return _banded_lambda_mins([(coeffs, size - n, None) for size in sizes])


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
    the kernel of every window is checked first, then one batch of the
    banded engine reads all the gaps, bitwise as one call per size would.
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
    2 * alpha * 2**n * L * eps.
    """
    shifts = [grid_shift(spec.angles, size)]
    rng = np.random.default_rng(seed)
    shifts.extend(rng.uniform(0.0, TWO_PI, _FLOOR_SAMPLES).tolist())
    x = TWO_PI * np.arange(1, size + 1) / size - np.array(shifts)[:, None]
    return float(evaluate_symbol(spec, x).min(axis=1).max())
