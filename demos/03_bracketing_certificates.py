"""Certify the Dirichlet-Neumann bracketing chain numerically.

Splitting a window into two pieces breaks the operator order; the
modified boundary conditions restore it:

    0 <= softened blocks <= one-sided softened sum <= whole window
                                        whole window <= stiffened sum.

Each inequality is certified by a proven lower bound of the smallest
eigenvalue of a difference, -delta, delta the exact distance of the float
windows from Gram forms (or, where delta passes the threshold, by the
eigenvalue itself); a margin of about -1e-16 times the norm, or 0.0 for
a row of integers, is a pass.  The same chain
holds for any admissible real pentadiagonal row after an affine reduction
to a product symbol, with the floor shifted to the row's true infimum.
"""

import numpy as np

from toepbrack import check_bracketing, check_bracketing_penta, make_symbol

rng = np.random.default_rng(7)

cases = [
    ("squared Laplacian, split 7+7", make_symbol([(0.0, 2)]), 7, 7),
    ("two factors 0 and 2.0, split 5+9", make_symbol([(0.0, 1), (2.0, 1)]), 5, 9),
    ("three factors, split 8+11", make_symbol([(0.7, 1), (2.9, 1), (5.1, 1)]), 8, 11),
]
for label, spec, size1, size2 in cases:
    report = check_bracketing(spec, size1, size2)
    print(f"{label}:")
    for name, margin in report.margins.items():
        print(f"  {name:>9s}: margin {margin:+.3e}  verdict {report.verdicts[name]}")
    print("  all hold:", report.all_hold)

# A random admissible pentadiagonal row (a0, a1, a2): decomposed as
# scale * product-symbol + shift, certified with the shifted floor.
a2 = 1.4
a1 = -3.1 * a2
a0 = 2.0
report, deco = check_bracketing_penta(a0, a1, a2, 8, 9)
print(f"\npentadiagonal row ({a0}, {a1}, {a2}):")
print("  decomposed scale:", deco.scale, " shift (= infimum):", round(deco.shift, 12))
print("  factor angles:", [round(e, 6) for e in deco.spec.angles])
for name, margin in report.margins.items():
    print(f"  {name:>9s}: margin {margin:+.3e}  verdict {report.verdicts[name]}")
