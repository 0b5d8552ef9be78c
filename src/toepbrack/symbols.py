"""Product symbols on the circle and their banded Fourier coefficients.

A symbol here is a nonnegative trigonometric polynomial of the form

    g(x) = prod_i (2 - 2*cos(x - E_i))**alpha_i,

described by its distinct factor angles ``E_i`` in (0, 2*pi] and integer
multiplicities ``alpha_i``.  Each factor contributes the coefficient triple
(-exp(-i*E), 2, -exp(+i*E)) for indices (-1, 0, +1) under the convention

    g(x) = sum_k a_k * exp(-i*k*x),       a_k = conj(a_{-k}),

and the coefficients of a product of factors are the convolution of the
per-factor triples.  That triple is the autocorrelation of the pair
(1, -exp(-i*E)), so the row is made as the autocorrelation of the
stencil, the convolution of the pairs, in exact integers and rounded once
(:func:`_row_and_stencil`).  The module also decomposes an arbitrary admissible
pentadiagonal coefficient row (a0, a1, a2) into ``scale * g + shift`` with
g a two-angle (or one confluent-angle) product symbol.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import (
    DuplicateAngleError,
    InvalidMultiplicityError,
    NonHermitianError,
    OutOfClassError,
)

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(np.float64).eps)

#: Circular tolerance below which two reduced angles count as the same angle.
ANGLE_TOL = 1e-12

#: Largest Hermitian deviation, relative to max(1, largest entry), that
#: :func:`banded_coefficients` and ``matrices.hermitian`` accept from input.
_HERMITIAN_TOL = 1e-14


def reduce_angle(x: float) -> float:
    """Reduce an angle to the half-open interval (0, 2*pi]."""
    r = math.fmod(float(x), TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle of circumference 2*pi."""
    d = math.fmod(abs(a - b), TWO_PI)
    return min(d, TWO_PI - d)


def phase_angle(e: float) -> float:
    """Representative of a reduced angle in (-pi, pi], used for exp evaluation.

    exp(-1j * e) is mathematically periodic but not for floats; evaluating
    at the smallest-magnitude representative keeps e.g. the angle 2*pi at
    an exactly real phase, so integer-coefficient symbols stay exactly real.
    """
    return e - TWO_PI if e > math.pi else e


@dataclass(frozen=True)
class SymbolSpec:
    """A product symbol: tuple of (angle, multiplicity) factors.

    Angles are stored reduced to (0, 2*pi] and pairwise distinct; use
    :func:`make_symbol` to construct instances with validation.
    """

    factors: Tuple[Tuple[float, int], ...]

    @property
    def angles(self) -> Tuple[float, ...]:
        return tuple(e for e, _ in self.factors)

    @property
    def multiplicities(self) -> Tuple[int, ...]:
        return tuple(m for _, m in self.factors)

    @property
    def degree(self) -> int:
        """Total degree N = sum of multiplicities; the matrix half-bandwidth."""
        return sum(self.multiplicities)

    @property
    def alpha_max(self) -> int:
        return max(self.multiplicities)


def make_symbol(factors: Iterable[Tuple[float, int]]) -> SymbolSpec:
    """Build a :class:`SymbolSpec` from (angle, multiplicity) pairs.

    Parameters
    ----------
    factors : iterable of (float, int)
        Factor angles (any real number; reduced mod 2*pi into (0, 2*pi])
        and positive integer multiplicities.

    Returns
    -------
    SymbolSpec

    Raises
    ------
    ValueError
        If an angle is not a finite number.
    InvalidMultiplicityError
        If a multiplicity is not a positive integer.
    DuplicateAngleError
        If two reduced angles lie within ``ANGLE_TOL`` of each other on the
        circle.  Coinciding factors must be merged by the caller into a
        single factor with summed multiplicity.
    """
    pairs = list(factors)
    if not pairs:
        raise InvalidMultiplicityError("at least one factor is required")
    reduced = []
    for e, m in pairs:
        try:
            ok = not isinstance(m, bool) and int(m) == m and int(m) >= 1
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise InvalidMultiplicityError(f"multiplicity {m!r} is not a positive integer")
        if not math.isfinite(float(e)):
            raise ValueError(f"angle {e!r} is not a finite number")
        reduced.append((reduce_angle(e), int(m)))
    for i in range(len(reduced)):
        for j in range(i + 1, len(reduced)):
            if circular_distance(reduced[i][0], reduced[j][0]) <= ANGLE_TOL:
                raise DuplicateAngleError(
                    f"angles {pairs[i][0]!r} and {pairs[j][0]!r} coincide after reduction"
                )
    return SymbolSpec(tuple(reduced))


@dataclass(frozen=True)
class BandedCoeffs:
    """Fourier coefficients a_{-N..N} of a real-valued banded symbol.

    ``a`` is a read-only complex array of length 2N+1 in ascending index
    order, satisfying a_k = conj(a_{-k}) exactly and a_N != 0.
    """

    a: np.ndarray

    @property
    def half_bandwidth(self) -> int:
        return (len(self.a) - 1) // 2

    def __getitem__(self, k: int) -> complex:
        n = self.half_bandwidth
        if not -n <= k <= n:
            raise IndexError(f"coefficient index {k} outside band [-{n}, {n}]")
        return complex(self.a[k + n])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _hermitian_part(h: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """(h + adjoint) / 2 once max |h - adjoint| <= _HERMITIAN_TOL * max(1, max |h|).

    A NaN or infinite entry has a NaN deviation and fails the test.
    """
    with np.errstate(invalid="ignore"):  # inf - inf
        dev = float(np.abs(h - adjoint).max())
    tol = _HERMITIAN_TOL * max(1.0, float(np.abs(h).max()))
    if not dev <= tol:
        raise NonHermitianError(f"Hermitian deviation {dev:.3e} exceeds tolerance {tol:.3e}")
    return 0.5 * (h + adjoint)


def banded_coefficients(values: Sequence[complex]) -> BandedCoeffs:
    """Validate and symmetrize a raw ascending coefficient array a_{-N..N}."""
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim != 1 or len(a) % 2 != 1:
        raise ValueError("coefficient array must be one-dimensional of odd length")
    a = _hermitian_part(a, np.conj(a[::-1]))
    if a[-1] == 0:
        raise ValueError("outermost coefficient a_N must be nonzero (band is tight)")
    return BandedCoeffs(_freeze(a))


def fourier_coefficients(spec: SymbolSpec) -> BandedCoeffs:
    """Fourier coefficients of a product symbol.

    The row of :func:`_row_and_stencil`: each coefficient is the correctly
    rounded autocorrelation sum_j c_j * conj(c_{j+t}) of the stencil c, so
    the row is exactly Hermitian and skips the tolerance test that
    :func:`banded_coefficients` applies to outside input.  Its outermost
    coefficient has modulus 1.
    """
    return _row_and_stencil(spec)[0]


def _row_and_stencil(spec: SymbolSpec) -> Tuple[BandedCoeffs, np.ndarray, np.ndarray, Tuple[list, int]]:
    """The row of :func:`fourier_coefficients`, the stencil of
    ``boundary.stencil``, the modified Neumann corner of
    ``boundary.corner_block``, read-only, and their exact sums, in one pass.

    The stencil is the convolution of the pairs (1, -exp(-i*E)), each
    factor alpha times, turned exactly conjugate-palindromic: rotated by w
    = sqrt(conj(c_N) / c_0), and then c_k = fl((c_k + conj(c_{N-k})) / 2),
    which rounds the two ends of each pair alike.  A unimodular factor
    changes no Gram form, and c_0 is unimodular rather than 1.  An even g
    (:func:`_is_real`) has a real exact convolution, c_{N-k} = c_N * c_k
    with c_N = +-1: its imaginary rounding is dropped and w is 1 or 1j, so
    the stencil is exactly real or imaginary and the row and the corner
    exactly real.  The row and the corner are then the
    sums :func:`_gram_exact` makes exactly, each part rounded once, so
    every part is the correctly rounded exact one: the corner is exactly
    Hermitian, and its conjugated mirror is the rounded left corner, as
    the stencil is palindromic.  A certificate, a gap scan or a window
    with a corner takes them here once, and ``boundary._gram_delta`` the sums.
    """
    c = [1.0 + 0.0j]
    for e, mult in spec.factors:
        low = -cmath.exp(-1j * phase_angle(e))
        for _ in range(mult):
            c = [x + low * y for x, y in zip(c + [0j], [0j] + c)]
    n = len(c) - 1
    if _is_real(spec):
        imaginary = c[n].real < 0.0  # c_N = -1, so w = 1j
        c = [complex(0.0, x.real) if imaginary else complex(x.real, 0.0) for x in c]
    else:
        w = cmath.sqrt(c[n].conjugate() / c[0])
        c = [w * x for x in c]
    c = np.array([0.5 * (x + y.conjugate()) for x, y in zip(c, c[::-1])])
    sums, shift = _gram_exact(c)
    unit = 1 << shift
    parts = iter([v / unit for v in sums])
    row, corner = [0j] * (2 * n + 1), [[0j] * n for _ in range(n)]
    # 0.0 - x rather than -x, so that no zero part becomes -0.0.
    for k in range(n + 1):
        for q in range(n - k):
            x, y = next(parts), next(parts)
            corner[q + k][q] = complex(0.0 - x, 0.0 - y)
            corner[q][q + k] = complex(0.0 - x, y)
        x, y = next(parts), next(parts)
        row[n - k], row[n + k] = complex(x, y), complex(x, 0.0 - y)
    return BandedCoeffs(_freeze(np.array(row))), _freeze(c), _freeze(np.array(corner, dtype=complex)), (sums, shift)


def _is_real(spec: SymbolSpec) -> bool:
    """Whether g is even, g(-x) = g(x), so that its row is real: each factor
    (E, alpha) has a factor (E', alpha) with E' within ``ANGLE_TOL`` of -E
    (E itself at pi and 2*pi).  Every build calls it, so it loops rather
    than nesting generators, at a third of their cost."""
    for angle, mult in spec.factors:
        for e, m in spec.factors:
            if m == mult and circular_distance(e, -angle) <= ANGLE_TOL:
                break
        else:
            return False
    return True


def _as_integers(values) -> Tuple[list, int]:
    """Integers m_i and one shift s >= 0 with values_i == m_i / 2**s
    exactly, for finite floats: each is its 53-bit significand times a
    power of two."""
    significands, exponents = np.frexp(np.asarray(values, dtype=np.float64))
    exponents = (exponents - 53).tolist()
    shift = max(0, -min(exponents))
    ints = (significands * 2.0**53).astype(np.int64).tolist()
    return [m << (e + shift) for m, e in zip(ints, exponents)], shift


def _gram_exact(c: np.ndarray) -> Tuple[list, int]:
    """Exact Gram sums of the stencil c, as integers over 2**shift: the
    real and imaginary parts of minus its modified Neumann corner E and of
    its autocorrelation r, diagonal by diagonal.

    On diagonal k = 0..N the running sum of P(q) = c_{q+k} conj(c_q), q =
    0..N-k, is -E[q+k][q] = P(0) + .. + P(q) at each q < N - k, whose
    conjugate is -E[q][q+k], and r_{-k} = conj(r_k) at q = N - k.  The
    parts of c are Python integers over one common power of two, so every
    sum is exact, from O(N**2) products.
    """
    ints, shift = _as_integers(c.view(np.float64))
    re, im = ints[0::2], ints[1::2]
    sums = []
    for k in range(len(c)):
        sr = si = 0
        for xr, xi, yr, yi in zip(re[k:], im[k:], re, im):
            sr += xr * yr + xi * yi
            si += xi * yr - xr * yi
            sums += (sr, si)
    return sums, 2 * shift


def evaluate_symbol(spec: SymbolSpec, x):
    """g(x) in product form, prod_i (4 sin^2((x - E_i)/2))**alpha_i.

    Unlike the sum over the coefficient row, which cancels near the zeros
    of g, the product keeps its relative accuracy there; it is never
    negative and is exactly 0.0 at each stored factor angle.

    Parameters
    ----------
    spec : SymbolSpec
    x : float or array_like
        Evaluation angle(s); any real values.

    Returns
    -------
    float or ndarray
        A float for scalar ``x``, otherwise an array of the shape of ``x``.
    """
    xs = np.asarray(x, dtype=np.float64)
    g = np.ones_like(xs)
    for e, mult in spec.factors:
        g *= (4.0 * np.sin(0.5 * (xs - e)) ** 2) ** mult
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class PentaDecomposition:
    """Affine reduction of a pentadiagonal row: input = scale * symbol + shift.

    ``scale`` equals the outermost input coefficient a2 and is positive;
    ``shift`` is the additive constant, which is also the infimum of the
    reconstructed symbol since the product part has infimum zero.
    """

    scale: float
    spec: SymbolSpec
    shift: float


def decompose_pentadiagonal(a0: float, a1: float, a2: float) -> PentaDecomposition:
    """Decompose real pentadiagonal coefficients (a0, a1, a2) as scale*g + shift.

    Writes the symbol a2*exp(-2ix) + a1*exp(-ix) + a0 + a1*exp(ix) + a2*exp(2ix)
    as ``a2 * w_b + c`` where w_b is the two-factor product symbol with angles
    {b, 2*pi - b}, b = arccos(-a1 / (4*a2)).  At the endpoints b in {0, pi}
    the two angles coincide and collapse into one factor of multiplicity 2.

    Raises
    ------
    ValueError
        If a0, a1 or a2 is not a finite number.
    OutOfClassError
        If a2 <= 0 or |a1/a2| > 4.
    """
    a0, a1, a2 = float(a0), float(a1), float(a2)
    if not all(math.isfinite(v) for v in (a0, a1, a2)):
        raise ValueError(f"pentadiagonal values ({a0}, {a1}, {a2}) are not all finite numbers")
    if not a2 > 0.0:
        raise OutOfClassError(f"leading coefficient a2 = {a2} must be positive")
    ratio = a1 / a2
    if abs(ratio) > 4.0:
        raise OutOfClassError(f"|a1/a2| = {abs(ratio)} exceeds 4")
    b = math.acos(-ratio / 4.0)
    # Collapse to a confluent double factor when the two angles {b, 2*pi - b}
    # would violate the distinct-angle tolerance.
    if b <= 0.5 * ANGLE_TOL:
        spec = make_symbol([(TWO_PI, 2)])
        b = 0.0
    elif math.pi - b <= 0.5 * ANGLE_TOL:
        spec = make_symbol([(math.pi, 2)])
        b = math.pi
    else:
        spec = make_symbol([(b, 1), (TWO_PI - b, 1)])
    shift = a0 - a2 * (4.0 + 2.0 * math.cos(2.0 * b))
    return PentaDecomposition(scale=a2, spec=spec, shift=shift)


def penta_coefficients(a0: float, a1: float, a2: float) -> BandedCoeffs:
    """The coefficient row (a2, a1, a0, a1, a2) as validated BandedCoeffs."""
    return banded_coefficients(np.array([a2, a1, a0, a1, a2], dtype=np.complex128))
