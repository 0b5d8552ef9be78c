"""Finite Hermitian matrices: Toeplitz windows, circulants, direct sums.

Entry convention: row i, column j of a Toeplitz restriction holds a_{j-i},
matching the action (T b)_i = sum_j a_{j-i} b_j of the bi-infinite operator.
All constructors return matrices that satisfy entries[i][j] ==
conj(entries[j][i]) exactly.  Every window, the corner-corrected ones
included, keeps half-bandwidth N.  The matrices here are stored densely,
for export, the Jacobi engine and the test oracles; the certificates and
gap computations in ``spectra`` work from the coefficient row and the N x N
corner blocks instead and build no window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError, SizeTooSmallError
from .symbols import BandedCoeffs, _freeze


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense complex Hermitian matrix; immutable after construction."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def row_sum_norm(self) -> float:
        """Max absolute row sum; an upper bound on the spectral radius."""
        return float(np.abs(self.entries).sum(axis=1).max())

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return _wrap(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return _wrap(self.entries - other.entries)

    def scaled(self, factor: float) -> "HermitianMatrix":
        return _wrap(float(factor) * self.entries)

    def shifted(self, constant: float) -> "HermitianMatrix":
        """Add ``constant`` times the identity."""
        return _wrap(self.entries + float(constant) * np.eye(self.dim))


def _wrap(entries: np.ndarray) -> HermitianMatrix:
    """Wrap an array that is Hermitian by construction (no re-check)."""
    return HermitianMatrix(_freeze(np.asarray(entries, dtype=np.complex128)))


def hermitian(raw, tol: float = 1e-14) -> HermitianMatrix:
    """Validate a raw square array and symmetrize it exactly.

    The deviation max |H - H*| must not exceed ``tol * max(1, max|H|)``;
    afterwards H is replaced by (H + H*)/2 so the Hermitian identity holds
    bitwise and every eigenvalue of the stored matrix is real.
    """
    h = np.array(raw, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] == 0:
        raise ValueError("matrix dimension must be positive")
    scale = max(1.0, float(np.abs(h).max()))
    dev = float(np.abs(h - h.conj().T).max())
    if dev > tol * scale:
        raise NonHermitianError(
            f"Hermitian deviation {dev:.3e} exceeds tolerance {tol * scale:.3e}"
        )
    return _wrap(0.5 * (h + h.conj().T))


def _toeplitz_body(coeffs: BandedCoeffs, size: int) -> np.ndarray:
    """T_size(g) as a writable array, for any size >= 1, written by diagonals."""
    n = coeffs.half_bandwidth
    out = np.zeros((size, size), dtype=np.complex128)
    flat = out.reshape(-1)
    reach = min(n, size - 1)
    # Diagonal j - i = k runs through the flat array with stride size + 1,
    # from (0, k) for k >= 0 and from (-k, 0) for k < 0.
    for k in range(-reach, reach + 1):
        flat[max(k, -k * size) : min(size, size - k) * size : size + 1] = coeffs.a[k + n]
    return out


def _require_size(size: int, minimum: int) -> None:
    """The one window-size check of the package (2N+1 for a full window)."""
    if size < minimum:
        raise SizeTooSmallError(f"window size {size} is below the minimum {minimum}")


def toeplitz_finite(coeffs: BandedCoeffs, size: int) -> HermitianMatrix:
    """The size x size Toeplitz window with entries[i][j] = a_{j-i}.

    Requires size >= 2N+1 so the window is wider than the band.
    """
    _require_size(size, 2 * coeffs.half_bandwidth + 1)
    return _wrap(_toeplitz_body(coeffs, size))


def circulant_periodic(coeffs: BandedCoeffs, size: int) -> HermitianMatrix:
    """The periodic (circulant) restriction of the same band.

    Index differences are reduced to the representative in
    [-floor(size/2), ceil(size/2)); size >= 2N+1 keeps band and wrap from
    colliding.  Its eigenvalues are exactly the symbol samples at the
    size-th roots of unity (as a multiset).
    """
    n = coeffs.half_bandwidth
    _require_size(size, 2 * n + 1)
    idx = np.arange(size)
    diff = idx[None, :] - idx[:, None]
    diff = (diff + size // 2) % size - size // 2
    inband = np.abs(diff) <= n
    out = np.zeros((size, size), dtype=np.complex128)
    out[inband] = coeffs.a[diff[inband] + n]
    return _wrap(out)


def direct_sum(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Block-diagonal direct sum diag(A, B)."""
    na, nb = a.dim, b.dim
    out = np.zeros((na + nb, na + nb), dtype=np.complex128)
    out[:na, :na] = a.entries
    out[na:, na:] = b.entries
    return _wrap(out)

