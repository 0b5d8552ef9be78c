"""Build product symbols and their finite Toeplitz / circulant windows.

A symbol is a product of shifted Laplacian factors 2 - 2*cos(x - E).  Its
Fourier coefficients populate the diagonals of a banded Hermitian Toeplitz
matrix; this script shows the coefficient rows, a plain window, and the
periodic window whose eigenvalues are exactly symbol samples.  The symbol
is evaluated in its product form, so it is exactly 0 at its factor angles.
"""

import numpy as np

from toepbrack import (
    TWO_PI,
    circulant_periodic,
    evaluate_symbol,
    fourier_coefficients,
    make_symbol,
    toeplitz_finite,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

# The 1d discrete Laplacian: single factor at angle 0 (stored as 2*pi).
laplacian = make_symbol([(0.0, 1)])
coeffs = fourier_coefficients(laplacian)
print("Laplacian coefficient row a_{-1..1}:", coeffs.a.real)
print("5x5 window:\n", toeplitz_finite(coeffs, 5).entries.real)

# Its square is pentadiagonal with the classic (1, -4, 6, -4, 1) row.
squared = make_symbol([(0.0, 2)])
print("\nSquared-Laplacian row a_{-2..2}:", fourier_coefficients(squared).a.real)

# A genuinely complex example: two factors at angles 0 and 2.0.
two_factor = make_symbol([(0.0, 1), (2.0, 1)])
coeffs2 = fourier_coefficients(two_factor)
print("\nTwo-factor coefficient row:")
print(coeffs2.a)
print("value at x = pi:", evaluate_symbol(two_factor, np.pi))
print("values at the factor angles (both vanish):",
      [evaluate_symbol(two_factor, e) for e in two_factor.angles])

# Periodic boundary conditions wrap the band around the corners, and the
# eigenvalues become the symbol sampled at the L-th roots of unity.
size = 12
per = circulant_periodic(coeffs2, size)
samples = np.sort(evaluate_symbol(two_factor, TWO_PI * np.arange(1, size + 1) / size))
print(f"\ncirculant eigenvalues (L={size}):", np.linalg.eigvalsh(per.entries))
print("sorted symbol samples:        ", samples)
