"""The rank-one stencil picture behind the modified boundary conditions.

The window of a product symbol is a sum of rank-one projectors onto
shifted copies of one stencil vector.  Delete the projectors that stick
out over an edge and the window softens (modified Neumann, corner block
negative semidefinite); add them back with the opposite sign and it
stiffens (modified Dirichlet).  This reproduces the two-factor worked
example with angle E = 2.
"""

import numpy as np

from toepbrack import (
    BoundaryKind,
    build_restricted,
    corner_block,
    fourier_coefficients,
    make_symbol,
    stencil,
    toeplitz_finite,
)

np.set_printoptions(precision=4, suppress=True, linewidth=140)

E = 2.0
spec = make_symbol([(0.0, 1), (E, 1)])
N = spec.degree

c = stencil(spec)
# The pairs' convolution (1, -1 - exp(-iE), exp(-iE)) times exp(iE/2):
# exactly conjugate-palindromic, which no Gram form below notices.
print("stencil c_0..c_2 (palindromic, |c_0| = 1):", c)
print("one rank-one projector |psi><psi|:\n", np.outer(c, c.conj()))

# Stack every placement that fits inside the window as a row of Psi (row k
# holds conj(c) in columns k..k+N).  Then Psi* Psi, the sum of their
# projectors, is the both-sided modified Neumann restriction (body plus
# two corners), up to rounding.
size = 8
psi = np.zeros((size - N, size), dtype=complex)
for k in range(size - N):
    psi[k, k : k + N + 1] = c.conj()
built = build_restricted(spec, size, BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.MODIFIED_NEUMANN)
print("\nPsi* Psi minus the built restriction, max |entry|:",
      np.abs(psi.conj().T @ psi - built.entries).max())

# The corner blocks are the dropped crossing placements, projected to the
# last N coordinates.  Neumann is <= 0, Dirichlet is >= 0.
b_soft = corner_block(spec, BoundaryKind.MODIFIED_NEUMANN)
b_stiff = corner_block(spec, BoundaryKind.MODIFIED_DIRICHLET)
print("\nright-corner Neumann block:\n", b_soft.entries)
print("its eigenvalues:", np.linalg.eigvalsh(b_soft.entries))
print("Dirichlet corner eigenvalues:", np.linalg.eigvalsh(b_stiff.entries))

# Left corners are the conjugated anti-diagonal mirror; with a Neumann
# condition at the left edge only, the top-left 2x2 of the window changes
# by exactly the displayed magnitude block.
t = toeplitz_finite(fourier_coefficients(spec), size).entries
soft_left = build_restricted(spec, size, BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.SIMPLE).entries
print("\nsubtracted top-left block for Neumann-at-left:\n", (t - soft_left)[:2, :2])
