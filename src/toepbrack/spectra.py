"""Eigenvalues, operator-inequality certification, kernels and gap scaling.

One engine keeps external eigensolvers out of the verification path;
LAPACK appears only as an independent cross-check in the test suite.
Every margin and every gap is the smallest eigenvalue of a banded window,
read by ``lambda_mins``, the multisection engine's one entry.  What this
module asks of it: windows (coeffs, m, top[, expect]), each the m x m
Toeplitz body T_m(g) plus the N x N block top at its top-left corner and
that block's conjugated reflection at its bottom-right one, as
``boundary._window_corners`` builds them; the smallest eigenvalue of each
as a midpoint to within the stopping width w; and min(0, .) of it for a
window flagged "min0".  That gives the floor of the bracketing chain, and
the spectral gap too: by the Gram identity the softened window of size L
has an N-dimensional kernel and the rest of its spectrum is that of
T_{L-N}(g); the kernel is checked by a banded product.  Each gap window
goes in with an enclosure (lower, upper) of its eigenvalue, the sampling
bound at the constructive grid shift and a Gram-form Rayleigh quotient,
each with an estimated rounding allowance (:func:`_enclosure`); the
engine skips the passes it decides, with a safety margin of 64 stopping
widths, so every gap keeps the bits it has without it, and no report
shows it.  The other three
bracketing margins are smallest eigenvalues of differences that vanish
outside the 2N rows at the split, and each is itself a window of size 2N.
Neither a certificate nor a gap builds an L x L matrix.
A cyclic Jacobi diagonalization, :func:`eigenvalues`, stays as the dense
reference of the test suite and the benchmark baseline; no command calls
it.  The sampled gap floor evaluates g with ``symbols.evaluate_symbol``, in
product form, which keeps its relative accuracy near the zeros of g.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Tuple

import numpy as np

from ._multisection import lambda_mins
from .boundary import BoundaryKind, _window_corners, stencil
from .errors import DuplicateNodeError, KernelMismatchError, NoConvergenceError
from .matrices import HermitianMatrix, _require_size, _toeplitz_body
from .symbols import (
    _EPS,
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
#: stopping width w.
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

    No window is built, and one :func:`lambda_mins` call gives all four
    margins, each from a coefficient row and the top N x N corner of its
    window.  The floor reads each half as the Toeplitz body plus the two
    corners from :func:`boundary._window_corners`.  The three differences
    vanish outside the 2N rows at the split, where, with bottom and top the
    soft corners that meet there, each is itself such a window of size 2N:
    ``nn_vs_0n`` (minus the soft corners) has a zero coefficient row and
    corners -bottom and -top, and ``lower`` (the whole window minus the
    softened halves) has body T_2N(g) and corners -T_N(g) - bottom and
    -T_N(g) - top.  The stiff corner is minus the soft one for both kinds,
    so ``upper`` is the same window with its coupling across the split
    negated, which conjugation by diag(I_N, -I_N) maps back to ``lower``:
    the two margins are equal.  min(0, .) adds back the zero eigenvalue of
    the rows a difference does not touch.  In each window the bottom corner
    is the conjugated reflection of the top one, so only the top corners
    are passed: ``top``, -T_N(g) - bottom and -bottom.

    In exact arithmetic every margin of a modified certificate is 0, so
    the floors go in flagged "zero" and both differences "min0".  Both
    floor windows have an N-dimensional kernel and ``lower`` is N rank-one
    placements on its 2N rows.  The ``nn_vs_0n`` window diag(-bottom, -top)
    is positive definite, each block being the Gram sum of the N
    independent crossing placements (lambda_min 1.0 for 0:1, 2.4e-3 for
    0.3:3,2.0:3), so its margin is 0 only through min(0, .).

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
    floor1, floor2, lower, delta_nn = lambda_mins(windows)
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


def _grid_floors(spec: SymbolSpec, size: int, shifts: Sequence[float]) -> np.ndarray:
    """min_k g(2*pi*k/size - shift) for each shift, g in product form."""
    x = TWO_PI * np.arange(1, size + 1) / size - np.array(shifts)[:, None]
    return evaluate_symbol(spec, x).min(axis=1)


def _enclosure(spec: SymbolSpec, c: np.ndarray, size: int) -> tuple[float, float]:
    """An enclosure lower <= lambda_min(T_m) <= upper, m = size - N, of
    the window T_m of the float coefficient row, which the engine factors.

    The rounding allowances below are error estimates, not derived
    bounds: they take libm's exp and sin as good to an ulp or two and
    count a few eps per rounded operation.  They are checked, not proven,
    by an ``mpmath`` measurement of the row error and by tests against
    ``scipy`` singular values.  The engine that skips passes on them
    (:func:`_multisection._enclose`) widens the enclosure by 64 stopping
    widths, the safety margin that the bitwise equality of every gap
    rests on.

    ``row`` = 8 * N * 4**N * eps stands for the 1-norm of the float row
    minus the symbol's, and of the float row minus the autocorrelation of
    the float stencil c, and so for how far each moves lambda_min: each
    of the N convolutions that make a row rounds a coefficient by a few
    eps relative to the sum of its absolute products, and the absolute
    products of the N triples (1, 2, 1) sum to 4**N.  On 300 random
    symbols with N <= 15 the measured error was at most 0.08 of it.

    lower is the paper's sampling bound at the constructive
    :func:`grid_shift`, the first floor of :func:`sampled_gap_floor`, less
    16 * N * 2**n * L * eps of itself (n factors) and less ``row``.  Each
    sample angle is off by at most 2 * eps * 2*pi and lies at least
    2*pi / (2**n * L) from every factor angle, and g is a product of 2N
    sines of such distances, so the computed floor is off by about
    4 * N * 2**n * L * eps of its value; the allowance is four times that.

    upper is the smallest Gram-form Rayleigh quotient ||c * u||**2 /
    ||u||**2 over the factors (E, alpha), with u_k = exp(-i*E*k) *
    sin(pi*k/(m+1))**alpha for k = 1..m, a stand-in for the mode of the
    clamped problem: u* T_m u is the sum of squares ||c * u||**2, with no
    cancellation.  Each entry of the computed c * u is off by at most
    (N+3) * eps * sum_j |c_j| |u_{k-j}|, so the root of the quotient is
    off by at most (N+3) * eps * ||c||_1 <= (N+3) * 2**N * eps, and each
    sum of squares by at most (m+N) * eps relative; upper allows for
    both, and for ``row``.
    """
    n = spec.degree
    m = size - n
    row = 8 * n * 4.0**n * _EPS
    floor = float(_grid_floors(spec, size, [grid_shift(spec.angles, size)])[0])
    lower = floor * (1.0 - 16 * n * 2 ** len(spec.factors) * size * _EPS) - row
    k = np.arange(1, m + 1)
    quotient = math.inf
    for e, alpha in spec.factors:
        u = np.exp(-1j * phase_angle(e) * k) * np.sin(math.pi * k / (m + 1)) ** alpha
        image = np.convolve(c, u)
        quotient = min(quotient, np.vdot(image, image).real / np.vdot(u, u).real)
    root = math.sqrt(quotient) + (n + 3) * 2.0**n * _EPS
    return lower, (1.0 + 4 * (m + n) * _EPS) * root * root + row


def _gaps(spec: SymbolSpec, sizes: Sequence[int]) -> list[float]:
    """The gap of the softened window W of each size, by the Gram identity.

    W of size L is the Gram matrix Psi* Psi of the L - N stencil
    placements, and Psi has full row rank because the stencil's first
    coefficient is 1.  So W has an exactly N-dimensional kernel and its
    nonzero spectrum is that of T_{L-N}(g): the gap is lambda_min(T_{L-N}(g)),
    every size in one batch of the banded engine, each window passed with
    its :func:`_enclosure`, which lets the engine skip the passes it
    decides (every gap bit is that of the engine without it).  All sizes
    are checked first, then every kernel: KernelMismatchError unless
    max|W v| <= 1e-9 * sum|a_k| (the row sum of W's interior rows; NaN
    fails) for each :func:`kernel_basis` vector v, W v being the banded
    product of the Toeplitz body and then of the corners on the N edge
    rows.  One stencil serves every enclosure.
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
    c = stencil(spec)
    return lambda_mins([(coeffs, size - n, None, _enclosure(spec, c, size)) for size in sizes])


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
    4 * N * 2**n * L * eps, N the degree (:func:`_enclosure`).  Every
    floor is a row of :func:`_grid_floors`, as is the gap enclosure's.
    """
    shifts = [grid_shift(spec.angles, size)]
    rng = np.random.default_rng(seed)
    shifts.extend(rng.uniform(0.0, TWO_PI, _FLOOR_SAMPLES).tolist())
    return float(_grid_floors(spec, size, shifts).max())
