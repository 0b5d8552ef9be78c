"""Correctness checks for benchmark outputs, built apart from toepbrack.

Every checker takes program outputs as plain data (numbers, lists, strings)
and returns a list of problems; an empty list means the output passed.
The references are made here with numpy alone, starting from the product
formula of the symbol:

* the stencil c_0..c_N is the polynomial prod_i (1 - exp(-i*E_i) z)**alpha_i,
  expanded from its roots exp(i*E_i);
* the coefficient row is the stencil autocorrelation a_t = sum_j c_j conj(c_{j+t});
* windows and bracketing differences are sums of outer products of stencil
  placements psi_k (the Gram form), with each boundary deciding which
  placements that cross a window edge are kept, dropped or doubled;
* eigenvalues come from numpy.linalg.eigvalsh.

``factors`` is always a list of (angle, multiplicity) pairs with angles in
(0, 2*pi], as the program reports them.
"""

from __future__ import annotations

import math

import numpy as np

#: Absolute accuracy the eigen layer states for a window: 1e-12 * max(1, row-sum norm).
EIGEN_ACCURACY = 1e-12
#: Relative cutoff below which the program counts an eigenvalue as kernel.
KERNEL_CUTOFF = 1e-9
MARGIN_NAMES = ("floor_nn", "nn_vs_0n", "lower", "upper")


def degree(factors) -> int:
    return sum(int(m) for _, m in factors)


def stencil(factors) -> np.ndarray:
    """Stencil c_0..c_N from the roots exp(i*E) of prod (1 - exp(-i*E) z)**alpha."""
    roots, lead = [], 1.0 + 0.0j
    for e, m in factors:
        roots += [np.exp(1j * e)] * int(m)
        lead *= (-np.exp(-1j * e)) ** int(m)
    return lead * np.polynomial.polynomial.polyfromroots(roots)


def coefficients(factors) -> np.ndarray:
    """Coefficient row a_{-N..N} as the autocorrelation of the stencil."""
    c = stencil(factors)
    n = len(c) - 1
    a = np.zeros(2 * n + 1, dtype=np.complex128)
    for t in range(-n, n + 1):
        j = np.arange(max(0, -t), min(n, n - t) + 1)
        a[t + n] = np.sum(c[j] * np.conj(c[j + t]))
    return a


def row_sum_norm(factors) -> float:
    """Row-sum norm of every window of size >= 2N+1: sum_k |a_k|."""
    return float(np.abs(coefficients(factors)).sum())


def placements(c: np.ndarray, size: int, ks, weights=None) -> np.ndarray:
    """One row per placement k: psi_k truncated to [0, size), times sqrt(weight)."""
    n = len(c) - 1
    ks = list(ks)
    out = np.zeros((len(ks), size), dtype=np.complex128)
    for r, k in enumerate(ks):
        w = 1.0 if weights is None else math.sqrt(weights[r])
        for j in range(n + 1):
            if 0 <= k + j < size:
                out[r, k + j] = w * c[j]
    return out


def gram(rows: np.ndarray) -> np.ndarray:
    """sum_k psi_k psi_k^*; entry (i, j) is sum_k psi_k(i) conj(psi_k(j))."""
    return rows.T @ rows.conj()


def lambda_min(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def toeplitz(a: np.ndarray, size: int, periodic: bool = False) -> np.ndarray:
    """Banded Toeplitz matrix of the row a_{-N..N}; ``periodic`` wraps the band (circulant)."""
    n = (len(a) - 1) // 2
    d = np.arange(size)[None, :] - np.arange(size)[:, None]
    if periodic:
        d = (d + size // 2) % size - size // 2
    out = np.zeros((size, size), dtype=np.complex128)
    band = np.abs(d) <= n
    out[band] = a[d[band] + n]
    return out


def hankel_left(a: np.ndarray) -> np.ndarray:
    """Classic Neumann top-left block H[i][j] = a_{-(i+j+1)}, zero past anti-diagonal N."""
    n = (len(a) - 1) // 2
    h = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n - i):
            h[i, j] = a[n - (i + j + 1)]
    return h


def _embed(block: np.ndarray, size: int, side: str) -> np.ndarray:
    out = np.zeros((size, size), dtype=np.complex128)
    n = block.shape[0]
    if side == "left":
        out[:n, :n] = block
    else:
        out[size - n :, size - n :] = block
    return out


_SIDE_WEIGHT = {"0": 1.0, "n": 0.0, "d": 2.0, "c": 1.0}


def window(factors, size: int, bc: str) -> np.ndarray:
    """Boundary-corrected window from placement sums.

    Placements inside the window count once; those crossing an edge count
    once for a simple ('0') or classic ('c') edge, are dropped for modified
    Neumann ('n') and counted twice for modified Dirichlet ('d').  A classic
    edge adds the Hankel block on top of the plain window.
    """
    c = stencil(factors)
    n = len(c) - 1
    ks = list(range(-n, size))
    weights = [
        _SIDE_WEIGHT[bc[0]] if k < 0 else _SIDE_WEIGHT[bc[1]] if k > size - n - 1 else 1.0
        for k in ks
    ]
    out = gram(placements(c, size, ks, weights))
    h = hankel_left(coefficients(factors))
    if bc[0] == "c":
        out += _embed(h, size, "left")
    if bc[1] == "c":
        out += _embed(np.conj(h[::-1, ::-1]), size, "right")
    return out


def reference_margins(factors, size1: int, size2: int, variant: str) -> dict[str, float]:
    """Smallest eigenvalues of the four bracketing differences, by eigvalsh.

    ``variant`` is "modified" (modified Neumann/Dirichlet halves) or
    "classic" (classic Neumann halves with the Dirichlet map 2*T - T_c).
    """
    c = stencil(factors)
    n = len(c) - 1
    size = size1 + size2
    cut = range(size1 - n, size1)
    if variant == "modified":
        straddle = placements(c, size, cut)
        flipped = straddle.copy()
        flipped[:, size1:] *= -1.0
        return {
            "floor_nn": min(
                lambda_min(gram(placements(c, s, range(0, s - n)))) for s in (size1, size2)
            ),
            "nn_vs_0n": min(
                lambda_min(gram(placements(c, size1, range(-n, 0)))),
                lambda_min(gram(placements(c, size2, range(size2 - n, size2)))),
            ),
            "lower": lambda_min(gram(straddle)),
            "upper": lambda_min(gram(flipped)),
        }
    a = coefficients(factors)
    h_left = hankel_left(a)
    h_right = np.conj(h_left[::-1, ::-1])
    coupling = gram(placements(c, size, cut))
    coupling[:size1, :size1] -= gram(placements(c, size1, range(size1 - n, size1)))
    coupling[size1:, size1:] -= gram(placements(c, size2, range(-n, 0)))
    corners = np.zeros((size, size), dtype=np.complex128)
    corners[:size1, :size1] = _embed(h_right, size1, "right")
    corners[size1:, size1:] = _embed(h_left, size2, "left")
    both = [window(factors, s, "cc") for s in (size1, size2)]
    return {
        "floor_nn": min(lambda_min(b) for b in both),
        "nn_vs_0n": min(
            lambda_min(-_embed(h_left, size1, "left")),
            lambda_min(-_embed(h_right, size2, "right")),
        ),
        "lower": lambda_min(coupling - corners),
        "upper": lambda_min(-coupling - corners),
    }


def check_certificate(
    factors, size1: int, size2: int, variant: str, margins: dict, verdicts: dict, abs_tol: float
) -> list[str]:
    """A bracketing certificate against its eigvalsh reference and the method's promises.

    Modified certificates must hold; classic Neumann must hold for N = 1 (the
    workloads use the Laplacian there) and fail ``lower`` for N >= 2.
    """
    problems = []
    ref = reference_margins(factors, size1, size2, variant)
    for name in MARGIN_NAMES:
        if not abs(margins[name] - ref[name]) <= abs_tol:
            problems.append(
                f"{name} margin {margins[name]!r} differs from eigvalsh {ref[name]!r} by more than {abs_tol:.3g}"
            )
        if verdicts[name] != (margins[name] >= -abs_tol):
            problems.append(f"{name} verdict {verdicts[name]} contradicts margin {margins[name]!r}")
    n = degree(factors)
    if variant == "modified" or n == 1:
        if not all(verdicts[k] for k in MARGIN_NAMES):
            problems.append(f"{variant} certificate with N={n} does not hold: {verdicts}")
    elif verdicts["lower"]:
        problems.append(f"classic Neumann with N={n} passes the lower bracket")
    return problems


def check_penta(
    row, split, scale: float, shift: float, factors, penta_margins: dict, product_margins: dict, abs_tol: float
) -> list[str]:
    """A pentadiagonal certificate is the affine image of its product certificate.

    The decomposition must rebuild the row (scale * a(g) + shift at index 0),
    and each penta margin must be ``a2`` times the product margin and ``a2``
    times the eigvalsh margin of the decomposed symbol.
    """
    a0, a1, a2 = row
    problems = []
    rebuilt = scale * coefficients(factors)
    rebuilt[2] += shift
    want = np.array([a2, a1, a0, a1, a2], dtype=np.complex128)
    if len(rebuilt) != 5 or np.abs(rebuilt - want).max() > 1e-12 * max(1.0, np.abs(want).sum()):
        problems.append(f"decomposition {scale}, {shift}, {factors} does not rebuild {row}")
    if scale != a2:
        problems.append(f"scale {scale} is not a2 = {a2}")
    ref = reference_margins(factors, *split, "modified")
    for name in MARGIN_NAMES:
        if not abs(penta_margins[name] - a2 * product_margins[name]) <= abs_tol:
            problems.append(
                f"penta {name} margin {penta_margins[name]!r} is not a2 * {product_margins[name]!r}"
            )
        if not abs(penta_margins[name] - a2 * ref[name]) <= abs_tol:
            problems.append(f"penta {name} margin {penta_margins[name]!r} is not a2 * eigvalsh {ref[name]!r}")
    return problems


def gap_allowance(factors) -> float:
    return EIGEN_ACCURACY * max(1.0, row_sum_norm(factors))


def check_gap_scan(
    factors, records, slope: float, floors: dict, kernel_counts: dict
) -> list[str]:
    """A gap scan against the Gram identity, the path-Laplacian formula and its floor.

    ``records`` are (size, gap) pairs; ``floors`` and ``kernel_counts`` map a
    size to the sampled gap floor and to the kernel dimension of the
    program's softened window at that size.
    """
    problems = []
    n = degree(factors)
    alpha_max = max(int(m) for _, m in factors)
    a = coefficients(factors)
    allowance = gap_allowance(factors)
    for size, gap in records:
        if kernel_counts[size] != n:
            problems.append(f"kernel count {kernel_counts[size]} != N={n} at L={size}")
        ref = lambda_min(toeplitz(a, size - n))
        if not abs(gap - ref) <= allowance:
            problems.append(f"gap {gap!r} at L={size} differs from eigvalsh {ref!r}")
        if n == 1:
            exact = 4.0 * math.sin(math.pi / (2 * size)) ** 2
            if not abs(gap - exact) <= allowance:
                problems.append(f"gap {gap!r} at L={size} differs from 4 sin^2(pi/2L) = {exact!r}")
        if not gap >= floors[size] - allowance:
            problems.append(f"gap {gap!r} at L={size} is below its sampled floor {floors[size]!r}")
    if not abs(slope + 2 * alpha_max) <= 0.25:
        problems.append(f"slope {slope!r} is not within 0.25 of {-2 * alpha_max}")
    return problems


def check_coeffs(factors, half_bandwidth: int, rows) -> list[str]:
    """A coefficient row against the DFT of the symbol sampled from its product formula.

    ``rows`` is the list of [re, im] pairs for a_{-N..N}.
    """
    n = degree(factors)
    if half_bandwidth != n or len(rows) != 2 * n + 1:
        return [f"half bandwidth {half_bandwidth} / {len(rows)} entries for N={n}"]
    m = 4 * n + 4
    x = 2.0 * math.pi * np.arange(m) / m
    g = np.ones(m)
    for e, mult in factors:
        g *= (2.0 - 2.0 * np.cos(x - e)) ** int(mult)
    k = np.arange(-n, n + 1)
    ref = (np.exp(1j * np.outer(k, x)) @ g) / m
    got = np.array([complex(re, im) for re, im in rows])
    err = float(np.abs(got - ref).max())
    tol = EIGEN_ACCURACY * max(1.0, float(np.abs(ref).sum()))
    return [] if err <= tol else [f"coefficients differ from the sampled DFT by {err:.3g} > {tol:.3g}"]


def parse_matrix_csv(text: str) -> tuple[dict, np.ndarray]:
    """Header fields and the complex matrix of an exported CSV."""
    lines = text.splitlines()
    header = dict(item.split("=", 1) for item in lines[0].lstrip("# ").split(" "))
    rows = [[complex(cell.replace("i", "j")) for cell in line.split(",")] for line in lines[1:]]
    return header, np.array(rows, dtype=np.complex128)


def expected_export(factors, size: int, matrix: str, bc: str | None) -> np.ndarray:
    if matrix == "toeplitz":
        return toeplitz(coefficients(factors), size)
    if matrix == "circulant":
        return toeplitz(coefficients(factors), size, periodic=True)
    return window(factors, size, bc)


def check_export(text: str, factors, size: int, matrix: str, bc: str | None) -> list[str]:
    """An exported CSV: Hermitian and entrywise equal to the placement-sum build.

    The entrywise comparison allows the eigen layer's stated accuracy.
    Hermitian symmetry must hold bit for bit, except for both-sided modified
    Neumann windows: those are summed from outer products of stencils that
    carry rounding-level imaginary parts, even for real symbols, without the
    final symmetrization, so their skew is allowed up to the same accuracy.
    """
    try:
        header, got = parse_matrix_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"unparsable CSV: {exc}"]
    if header.get("dim") != str(size) or got.shape != (size, size):
        return [f"CSV header {header} / shape {got.shape} for size {size}"]
    problems = []
    tol = EIGEN_ACCURACY * max(1.0, row_sum_norm(factors))
    skew = float(np.abs(got - got.conj().T).max())
    if skew > (tol if bc == "nn" else 0.0):
        problems.append(f"exported matrix deviates from Hermitian by {skew:.3g}")
    want = expected_export(factors, size, matrix, bc)
    err = float(np.abs(got - want).max())
    if err > tol:
        problems.append(f"exported {matrix} {bc} differs from the placement-sum build by {err:.3g}")
    return problems
