"""Why the classic Toeplitz-plus-Hankel Neumann condition cannot bracket.

On the discrete Laplacian the classic Hankel-corner Neumann condition and
the modified one coincide.  That is the only symbol where they do: already
for the tridiagonal 2 + 2*cos(x) the Hankel corner adds +1 where the
softened corner needs -1, and for the squared Laplacian the defect

    whole window - (classic-Neumann half  (+)  classic-Neumann half)

is an indefinite matrix, so no operator inequality can hold in either
direction.  The modified condition replaces the Hankel corner by a
crossing-projector sum and the defect becomes positive semidefinite.
"""

import numpy as np

from toepbrack import (
    BoundaryKind,
    build_restricted,
    check_bracketing,
    classic_split_difference,
    direct_sum,
    fourier_coefficients,
    make_symbol,
    toeplitz_finite,
)

np.set_printoptions(precision=4, suppress=True, linewidth=120)

squared = make_symbol([(0.0, 2)])
coeffs = fourier_coefficients(squared)

# The classic corner adds a 2x2 Hankel block built from a_{-1}, a_{-2}.
half = build_restricted(squared, 5, BoundaryKind.CLASSIC_NEUMANN, BoundaryKind.SIMPLE)
print("classic-Neumann half window (left corner modified):\n", half.entries.real)

# The defect of the split has the famous alternating central block.
defect = classic_split_difference(coeffs, 4, 4)
print("\ndefect matrix, central 4x4 block:\n", defect.entries.real[2:6, 2:6])
values = np.linalg.eigvalsh(defect.entries)
print("defect eigenvalues:", values)
print("indefinite?", values[0] < -0.1 and values[-1] > 0.1)

# The full chain check reports the failure in the lower bracket.
report = check_bracketing(squared, 7, 7, neumann=BoundaryKind.CLASSIC_NEUMANN)
print("\nclassic-Neumann chain verdicts:", report.verdicts)

# The modified condition fixes it: the same defect is now a sum of
# crossing projectors, hence positive semidefinite.
whole = toeplitz_finite(coeffs, 14)
soft = direct_sum(
    build_restricted(squared, 7, BoundaryKind.SIMPLE, BoundaryKind.MODIFIED_NEUMANN),
    build_restricted(squared, 7, BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.SIMPLE),
)
print("modified-Neumann defect smallest eigenvalue:",
      np.linalg.eigvalsh((whole - soft).entries)[0])
