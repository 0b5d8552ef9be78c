"""Eigenvalues, operator-inequality certification, kernels and gap scaling.

Two self-contained engines keep external eigensolvers out of the
verification path; LAPACK appears only as an independent cross-check in
the test suite.  A cyclic Jacobi diagonalization for complex Hermitian
matrices (round-robin parallel ordering, vectorized rotation updates)
certifies semidefiniteness of a difference by its smallest eigenvalue, and
the bracketing chain is four such differences.  The spectral gap needs one
number: by the Gram identity the softened window of size L has an
N-dimensional kernel and the rest of its spectrum is that of T_{L-N}(g),
so the gap is the smallest eigenvalue of that banded window, found by
multisection on the signs of banded LDL* pivots in O(L * N**2) per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Tuple

import numpy as np

from .boundary import BoundaryKind, build_restricted, dirichlet_from_neumann
from .errors import (
    DimensionMismatchError,
    DuplicateNodeError,
    KernelMismatchError,
    NoConvergenceError,
    SizeTooSmallError,
)
from .matrices import HermitianMatrix, direct_sum, toeplitz_finite
from .symbols import (
    TWO_PI,
    BandedCoeffs,
    PentaDecomposition,
    SymbolSpec,
    decompose_pentadiagonal,
    evaluate_symbol,
    fourier_coefficients,
    penta_coefficients,
    phase_angle,
    reduce_angle,
)

_MAX_SWEEPS = 60


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues and the absolute accuracy bound they carry."""

    values: np.ndarray
    tolerance: float


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Tournament schedule: n-1 (or n) rounds of disjoint index pairs."""
    m = n if n % 2 == 0 else n + 1
    arr = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            a, b = arr[i], arr[m - 1 - i]
            if a < n and b < n:
                pairs.append((min(a, b), max(a, b)))
        pairs.sort()
        rounds.append(
            (np.array([p for p, _ in pairs]), np.array([q for _, q in pairs]))
        )
        arr = [arr[0]] + [arr[-1]] + arr[1:-1]
    return rounds


def _off_norm(h: np.ndarray) -> float:
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def eigenvalues(matrix: HermitianMatrix, max_sweeps: int = _MAX_SWEEPS) -> Spectrum:
    """All eigenvalues of a Hermitian matrix, ascending.

    Jacobi rotations are applied in a fixed round-robin order with all
    disjoint pivots of a round rotated together, until the off-diagonal
    Frobenius norm falls below 1e-12 * max(1, row-sum norm).  By Weyl's
    inequality each returned value is then within that threshold of a true
    eigenvalue.  The computation is deterministic for identical input.

    Raises
    ------
    NoConvergenceError
        If the sweep budget is exhausted, which signals corrupted
        (non-Hermitian) input rather than a hard problem instance.
    """
    n = matrix.dim
    if n == 1:
        return Spectrum(np.array([matrix.entries[0, 0].real]), 0.0)
    h = np.array(matrix.entries)
    if np.abs(h.imag).max() == 0.0:
        h = np.ascontiguousarray(h.real)
    real_path = not np.iscomplexobj(h)
    thresh = 1e-12 * max(1.0, matrix.row_sum_norm())
    # Pivots below `skip` cannot push the off-norm above thresh/4 even if
    # every pair sits at the cutoff, so they are left unrotated.
    skip = 0.25 * thresh / n
    rounds = _round_robin_rounds(n)
    for _ in range(max_sweeps):
        if _off_norm(h) <= thresh:
            vals = np.sort(np.diag(h).real)
            vals.flags.writeable = False
            return Spectrum(vals, thresh)
        for ps, qs in rounds:
            piv = h[ps, qs]
            mag = np.abs(piv)
            act = mag > skip
            if not act.any():
                continue
            if not act.all():
                ps, qs, piv, mag = ps[act], qs[act], piv[act], mag[act]
            phase = np.sign(piv) if real_path else piv / mag
            tau = (h[qs, qs].real - h[ps, ps].real) / (2.0 * mag)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            cols_p = h[:, ps].copy()
            cols_q = h[:, qs].copy()
            h[:, ps] = c * cols_p - (np.conj(phase) * s) * cols_q
            h[:, qs] = s * cols_p + (np.conj(phase) * c) * cols_q
            rows_p = h[ps, :].copy()
            rows_q = h[qs, :].copy()
            h[ps, :] = c[:, None] * rows_p - (phase * s)[:, None] * rows_q
            h[qs, :] = s[:, None] * rows_p + (phase * c)[:, None] * rows_q
        # No re-symmetrization here: unitary similarity preserves Hermitian
        # input to machine precision, and corrupted (non-Hermitian) input
        # must stall and be reported instead of being silently repaired.
    raise NoConvergenceError(
        f"off-diagonal norm {_off_norm(h):.3e} above {thresh:.3e} after {max_sweeps} sweeps"
    )


def psd_gap(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Smallest eigenvalue of A - B; A dominates B iff this is >= -tol."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims {a.dim} and {b.dim} differ")
    return float(eigenvalues(a - b).values[0])


@dataclass(frozen=True)
class BracketReport:
    """Margins of the four-operator inequality chain, one number each.

    Every margin is a smallest eigenvalue and certifies its inequality when
    it is >= -abs_tol.  ``floor_nn`` is measured relative to the symbol's
    infimum (``symbol_floor``, zero for product symbols), so all four
    verdicts share the same threshold convention.
    """

    size: int
    size1: int
    size2: int
    floor_nn: float
    delta_nn: float
    delta_lower: float
    delta_upper: float
    symbol_floor: float
    rel_tol: float
    abs_tol: float

    @property
    def verdicts(self) -> dict[str, bool]:
        return {
            "floor_nn": self.floor_nn >= -self.abs_tol,
            "nn_vs_0n": self.delta_nn >= -self.abs_tol,
            "lower": self.delta_lower >= -self.abs_tol,
            "upper": self.delta_upper >= -self.abs_tol,
        }

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
    tol: float = 1e-9,
    neumann: BoundaryKind = BoundaryKind.MODIFIED_NEUMANN,
) -> BracketReport:
    """Certify the full inequality chain for a product symbol at one split.

    The four margins are the smallest eigenvalues of, in order: the
    both-sided softened blocks (their floor, relative to inf g = 0), the
    one-sided minus both-sided softened direct sums, the whole window minus
    the softened direct sum, and the stiffened direct sum minus the whole
    window.  Verdicts compare each margin against -tol * max(1, norm(T)).

    Passing ``neumann=BoundaryKind.CLASSIC_NEUMANN`` substitutes the
    classic Toeplitz-plus-Hankel condition (with its induced Dirichlet
    counterpart 2*T - T_classic).  It brackets only the plain Laplacian
    (E = 0, N = 1); already 2 + 2*cos(x) fails nn_vs_0n and the lower
    bracket.
    """
    if neumann not in (BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.CLASSIC_NEUMANN):
        raise ValueError("neumann must be the modified or the classic Neumann kind")
    coeffs = fourier_coefficients(spec)
    whole = toeplitz_finite(coeffs, size1 + size2)
    soft1 = build_restricted(spec, size1, BoundaryKind.SIMPLE, neumann)
    soft2 = build_restricted(spec, size2, neumann, BoundaryKind.SIMPLE)
    both1 = build_restricted(spec, size1, neumann, neumann)
    both2 = build_restricted(spec, size2, neumann, neumann)
    if neumann is BoundaryKind.MODIFIED_NEUMANN:
        stiff = direct_sum(
            build_restricted(spec, size1, BoundaryKind.SIMPLE, BoundaryKind.MODIFIED_DIRICHLET),
            build_restricted(spec, size2, BoundaryKind.MODIFIED_DIRICHLET, BoundaryKind.SIMPLE),
        )
    else:
        stiff = dirichlet_from_neumann(whole, soft1, soft2)
    soft = direct_sum(soft1, soft2)
    return BracketReport(
        size=whole.dim,
        size1=size1,
        size2=size2,
        floor_nn=min(
            float(eigenvalues(both1).values[0]), float(eigenvalues(both2).values[0])
        ),
        delta_nn=psd_gap(soft, direct_sum(both1, both2)),
        delta_lower=psd_gap(whole, soft),
        delta_upper=psd_gap(stiff, whole),
        symbol_floor=0.0,
        rel_tol=tol,
        abs_tol=tol * max(1.0, whole.row_sum_norm()),
    )


def check_bracketing_penta(
    a0: float,
    a1: float,
    a2: float,
    size1: int,
    size2: int,
    tol: float = 1e-9,
) -> Tuple[BracketReport, PentaDecomposition]:
    """Bracketing certification for an admissible pentadiagonal row.

    The row is decomposed as scale * g + shift with g a product symbol;
    every windowed operator transforms affinely (scale times the g-operator
    plus shift times the identity), so the product-symbol margins carry
    over multiplied by ``scale``, the floor is measured against
    inf h = shift, and the tolerance scales with the row's own window.
    """
    deco = decompose_pentadiagonal(a0, a1, a2)
    base = check_bracketing(deco.spec, size1, size2, tol=tol)
    window = toeplitz_finite(penta_coefficients(a0, a1, a2), size1 + size2)
    return replace(
        base,
        floor_nn=deco.scale * base.floor_nn,
        delta_nn=deco.scale * base.delta_nn,
        delta_lower=deco.scale * base.delta_lower,
        delta_upper=deco.scale * base.delta_upper,
        symbol_floor=deco.shift,
        abs_tol=tol * max(1.0, window.row_sum_norm()),
    ), deco


def kernel_basis(spec: SymbolSpec, size: int) -> list[np.ndarray]:
    """The N polynomial-modulated harmonics annihilated by the softened window.

    For each factor angle E with multiplicity alpha the vectors are
    (k**j * exp(-i*E*k)) for k = 1..size and j = 0..alpha-1, each scaled to
    unit norm.  The harmonic tracks the factor angle with the same
    orientation the matrix rows use for their coefficients, which is what
    makes every interior stencil placement orthogonal to it.
    """
    if size < spec.degree:
        raise SizeTooSmallError(f"need at least {spec.degree} sites, got {size}")
    k = np.arange(1, size + 1, dtype=np.float64)
    basis = []
    for e, mult in spec.factors:
        wave = np.exp(-1j * phase_angle(e) * k)
        for j in range(mult):
            v = k**j * wave
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
    if len(z) != len(alpha) or any(m < 1 for m in alpha):
        raise ValueError("need one positive multiplicity per node")
    if np.abs(np.abs(z) - 1.0).max() > 1e-9:
        raise ValueError("nodes must lie on the unit circle")
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] - z[j]) <= 1e-12:
                raise DuplicateNodeError(f"nodes {i} and {j} coincide")
    value = 1.0
    for m in alpha:
        for l in range(1, m):
            value *= math.factorial(l)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            value *= float(abs(z[i] - z[j])) ** (alpha[i] * alpha[j])
    return value


def _lattice_distance(angle: float, shift: float, grid_size: int) -> float:
    """Circular distance from ``angle`` to the shifted grid {2*pi*k/L - shift}."""
    step = TWO_PI / grid_size
    r = math.fmod(angle + shift, step)
    if r < 0.0:
        r += step
    return min(r, step - r)


def grid_shift(angles: Sequence[float], grid_size: int) -> float:
    """A shift keeping the L-point grid at distance >= 2*pi/(2**n * L) from all angles.

    Constructive induction: anchor the shift so the first angle sits exactly
    half a grid-gap off the grid, then for each further angle nudge by
    +-2*pi/(2**i * L) whenever it comes too close, accepting whichever sign
    restores the stage bound for all angles seen so far.
    """
    if grid_size < 1:
        raise ValueError("grid size must be positive")
    es = [reduce_angle(e) for e in angles]
    for i in range(len(es)):
        for j in range(i + 1, len(es)):
            if abs(es[i] - es[j]) <= 1e-12 or TWO_PI - abs(es[i] - es[j]) <= 1e-12:
                raise ValueError("angles must be pairwise distinct")
    shift = reduce_angle(-es[0] + math.pi / grid_size)
    for i in range(2, len(es) + 1):
        delta = TWO_PI / (2**i * grid_size)
        slack = delta * (1.0 - 1e-12)
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


def _banded_lambda_min(coeffs: BandedCoeffs, m: int) -> float:
    """Smallest eigenvalue of the m x m Toeplitz window T_m(g) of a band.

    Multisection on Sylvester's law of inertia: T - s*I is positive
    definite iff every pivot of its LDL* factorization is positive.  One
    pass runs the banded right-looking recurrence over all m rows for 31
    equispaced shifts at once, keeping only the trailing (N+1) x (N+1)
    Schur block.  The first shift with a nonpositive pivot ends the pass
    for itself and every shift above it, so nothing divides by a failed
    pivot.  The bracket starts at [0, sum|a_k|] (T is positive definite
    for a product symbol, and the row-sum bound caps its spectrum) and
    shrinks 32-fold per pass until its width is below
    8 * (N+1) * eps * max(1, sum|a_k|), the scale of the banded Cholesky
    backward error; the midpoint is returned.  Needs m >= N+1 (the window
    of L = 2N+1 gives m = N+1, below the 2N+1 that toeplitz_finite
    requires) and never builds an m x m matrix.
    """
    n = coeffs.half_bandwidth
    a = coeffs.a
    if not np.any(a.imag):
        a = a.real
    norm = float(np.abs(a).sum())
    # Rows 0..n of T - s*I: the first n form the starting Schur block, and
    # row n (entries a_n..a_1 above its diagonal) is the template of every
    # row that enters later.  The update rewrites only the leading n x n
    # block, so the entering row stays in place until the band runs past
    # row m-1, where it becomes a decoupled unit row.
    k = np.arange(n + 1)
    template = a[n + k[None, :] - k[:, None]]
    tol = 8.0 * (n + 1) * np.finfo(np.float64).eps * max(1.0, norm)
    lo, hi = 0.0, norm
    steps = np.arange(1, _SHIFTS + 1) / (_SHIFTS + 1)
    while hi - lo > tol:
        shifts = lo + (hi - lo) * steps
        block = template - shifts[:, None, None] * np.eye(n + 1)
        alive = _SHIFTS
        for i in range(m):
            if i + n == m:
                block[:, :, n] = 0.0
                block[:, n, :] = 0.0
                block[:, n, n] = 1.0
            pivots = block[:, 0, 0].real
            if pivots.min() <= 0.0:
                alive = int(np.argmax(pivots <= 0.0))
                if alive == 0:
                    break
                block = block[:alive]
                pivots = pivots[:alive]
            v = block[:, 1:, 0]
            block[:, :n, :n] = block[:, 1:, 1:] - (v / pivots[:, None])[:, :, None] * np.conj(
                v[:, None, :]
            )
        if alive > 0:
            lo = float(shifts[alive - 1])
        if alive < _SHIFTS:
            hi = float(shifts[alive])
    return 0.5 * (lo + hi)


def spectral_gap(spec: SymbolSpec, size: int) -> Tuple[int, float]:
    """Kernel dimension and first nonzero eigenvalue of the softened window.

    The both-sided softened window W of size L is the Gram matrix Psi* Psi
    of the L - N stencil placements, and Psi has full row rank because the
    stencil's first coefficient is 1.  So W has an exactly N-dimensional
    kernel and its nonzero spectrum is that of T_{L-N}(g): the gap is
    lambda_min(T_{L-N}(g)), found by banded multisection in O(L * N**2)
    per pass.  The window itself is still built, and every
    :func:`kernel_basis` vector must satisfy max|W v| <= 1e-9 * norm(W)
    (row-sum norm); a larger residual signals a construction bug and
    raises KernelMismatchError.
    """
    n = spec.degree
    matrix = build_restricted(
        spec, size, BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.MODIFIED_NEUMANN
    )
    residual = np.abs(matrix.entries @ np.stack(kernel_basis(spec, size), axis=1)).max(axis=0)
    kernel_tol = 1e-9 * matrix.row_sum_norm()
    if residual.max() > kernel_tol:
        raise KernelMismatchError(
            f"kernel vector {int(np.argmax(residual))} has residual {residual.max():.3e}"
            f" > {kernel_tol:.3e} in the softened window of size {size}"
        )
    return n, _banded_lambda_min(fourier_coefficients(spec), size - n)


@dataclass(frozen=True)
class GapReport:
    """Gap-versus-size scan with its log-log fit.

    ``records`` holds (size, gap) pairs ascending in size; the fit uses
    only sizes >= 4N to skip small-window transients, and ``c_empirical``
    is the smallest gap * size**(2*alpha_max) over the whole scan (the
    observed constant in the inverse-polynomial lower bound).
    """

    records: Tuple[Tuple[int, float], ...]
    slope: float
    intercept: float
    c_empirical: float
    alpha_max: int
    fit_sizes: Tuple[int, ...]


def gap_scan(spec: SymbolSpec, sizes: Iterable[int]) -> GapReport:
    """Measure the spectral gap across window sizes and fit its decay rate.

    Per-size computations are independent pure calls (callers may farm them
    out concurrently); records are merged in ascending size order.
    """
    n = spec.degree
    size_list = sorted(set(int(s) for s in sizes))
    if any(s < 2 * n + 1 for s in size_list):
        raise SizeTooSmallError(f"all sizes must be >= {2 * n + 1}")
    records = []
    for s in size_list:
        _, gap = spectral_gap(spec, s)
        records.append((s, gap))
    fit = [(s, g) for s, g in records if s >= 4 * n]
    if len(fit) < 2:
        raise ValueError("need at least two sizes >= 4N for the slope fit")
    logs = np.log([s for s, _ in fit])
    logg = np.log([g for _, g in fit])
    slope, intercept = np.polyfit(logs, logg, 1)
    c_emp = min(g * s ** (2 * spec.alpha_max) for s, g in records)
    return GapReport(
        records=tuple(records),
        slope=float(slope),
        intercept=float(intercept),
        c_empirical=float(c_emp),
        alpha_max=spec.alpha_max,
        fit_sizes=tuple(s for s, _ in fit),
    )


def sampled_gap_floor(
    spec: SymbolSpec, size: int, n_samples: int = 8, seed: int = 0
) -> float:
    """Best provable gap floor over candidate grid shifts.

    Evaluates min_k g(2*pi*k/size - shift) for the constructive
    :func:`grid_shift` plus ``n_samples`` seeded uniform shifts and returns
    the largest of these minima; the spectral gap always dominates it.
    """
    coeffs = fourier_coefficients(spec)
    shifts = [grid_shift(spec.angles, size)]
    rng = np.random.default_rng(seed)
    shifts.extend(rng.uniform(0.0, TWO_PI, n_samples).tolist())
    grid = TWO_PI * np.arange(1, size + 1) / size
    best = -np.inf
    for sh in shifts:
        best = max(best, float(np.min(evaluate_symbol(coeffs, grid - sh))))
    return best
