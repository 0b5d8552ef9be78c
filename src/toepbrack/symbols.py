"""Product symbols on the circle and their banded Fourier coefficients.

A symbol here is a nonnegative trigonometric polynomial of the form

    g(x) = prod_i (2 - 2*cos(x - E_i))**alpha_i,

described by its distinct factor angles ``E_i`` in (0, 2*pi] and integer
multiplicities ``alpha_i``.  Each factor contributes the coefficient triple
(-exp(-i*E), 2, -exp(+i*E)) for indices (-1, 0, +1) under the convention

    g(x) = sum_k a_k * exp(-i*k*x),       a_k = conj(a_{-k}),

and the coefficients of a product of factors are the convolution of the
per-factor triples.  The module also decomposes an arbitrary admissible
pentadiagonal coefficient row (a0, a1, a2) into ``scale * g + shift`` with
g a two-angle (or one confluent-angle) product symbol.
"""

from __future__ import annotations

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

    Convolves the per-factor triples (-exp(-i*E), 2, -exp(+i*E)); the result
    has half-bandwidth equal to ``spec.degree`` and is exactly Hermitian
    after symmetrization.  The row is Hermitian by construction, so it skips
    the tolerance test that :func:`banded_coefficients` applies to outside
    input: repeated convolution can round it further from Hermitian than
    that test allows.  Its outermost coefficient has modulus 1.
    """
    a = np.array([1.0 + 0.0j])
    for e, mult in spec.factors:
        theta = phase_angle(e)
        triple = np.array([-np.exp(-1j * theta), 2.0, -np.exp(1j * theta)])
        for _ in range(mult):
            a = np.convolve(a, triple)
    return BandedCoeffs(_freeze(0.5 * (a + np.conj(a[::-1]))))


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
