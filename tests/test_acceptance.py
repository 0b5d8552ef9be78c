"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines
and timings.  Every randomized criterion uses a fixed seed; random product
symbols enforce a minimum angle separation (see conftest) so the fixed gap
thresholds stay meaningful.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from toepbrack import (
    TWO_PI,
    BoundaryKind,
    build_restricted,
    check_bracketing,
    check_bracketing_penta,
    circulant_periodic,
    classic_split_difference,
    confluent_vandermonde_abs,
    corner_block,
    decompose_pentadiagonal,
    eigenvalues,
    evaluate_symbol,
    fourier_coefficients,
    gap_scan,
    grid_shift,
    make_symbol,
    spectral_gap,
    stencil,
    toeplitz_finite,
)
from conftest import random_spec, random_split
from oracles import dense_toeplitz
from test_spectra import brute_confluent_det, exhaustive_grid_distance

SEED = 20260808
N_KIND = BoundaryKind.MODIFIED_NEUMANN
D_KIND = BoundaryKind.MODIFIED_DIRICHLET
SIMPLE = BoundaryKind.SIMPLE


def _report(number, description, started):
    print(f"criterion {number} ({description}): PASS ({time.perf_counter() - started:.2f}s)")


def _criterion2_suite():
    """The shared seeded suite: 50 specs with admissible random splits, L <= 60."""
    rng = np.random.default_rng(SEED)
    suite = []
    for _ in range(50):
        spec = random_spec(rng, max_factors=3, max_mult=2)
        size1, size2 = random_split(rng, spec.degree, 60)
        suite.append((spec, size1, size2))
    return suite


def test_criterion_1_worked_example_regression():
    started = time.perf_counter()
    e = 2.0
    spec = make_symbol([(0.0, 1), (e, 1)])
    zp, zm = np.exp(1j * e), np.exp(-1j * e)

    row = fourier_coefficients(spec).a
    assert_allclose(row, [zm, -2 - 2 * zm, 4 + zm + zp, -2 - 2 * zp, zp], atol=1e-12)

    c = stencil(spec)
    rank_one = np.outer(c, c.conj())
    assert_allclose(
        rank_one,
        [[1, -1 - zp, zp], [-1 - zm, 2 + zm + zp, -1 - zp], [zm, -1 - zm, 1]],
        atol=1e-12,
    )

    corner = np.array([[3 + zp + zm, -1 - zp], [-1 - zm, 1]])
    size = 7
    t = toeplitz_finite(fourier_coefficients(spec), size).entries
    soft_left = build_restricted(spec, size, N_KIND, SIMPLE).entries
    stiff_left = build_restricted(spec, size, D_KIND, SIMPLE).entries
    assert_allclose((t - soft_left)[:2, :2], corner, atol=1e-12)
    assert_allclose((stiff_left - t)[:2, :2], corner, atol=1e-12)
    assert_allclose(
        corner_block(spec, N_KIND).entries,
        -np.array([[1, -1 - zp], [-1 - zm, 3 + zp + zm]]),
        atol=1e-12,
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "worked-example matrices, entrywise 1e-12", started)


def test_criterion_2_bracketing_certification():
    started = time.perf_counter()
    for spec, size1, size2 in _criterion2_suite():
        report = check_bracketing(spec, size1, size2)
        assert report.all_hold, (spec.factors, size1, size2, report.margins)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(2, "50 random specs, four margins >= -1e-9*norm", started)


def test_criterion_3_classic_counterexample():
    started = time.perf_counter()
    coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
    diff = classic_split_difference(coeffs, 4, 4)
    expected = np.zeros((8, 8))
    expected[2:6, 2:6] = [
        [0, -1, 1, 0],
        [-1, 4, -4, 1],
        [1, -4, 4, -1],
        [0, 1, -1, 0],
    ]
    assert_allclose(diff.entries.real, expected, atol=1e-12)
    assert_allclose(diff.entries.imag, 0, atol=1e-12)
    values = eigenvalues(diff).values
    assert values[0] < -0.1
    assert values[-1] > 0.1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, "indefinite classic-Neumann defect matrix", started)


def test_criterion_4_kernel_dimension():
    started = time.perf_counter()
    for spec, _, _ in _criterion2_suite():
        n = spec.degree
        for size in sorted({2 * n + 1, 4 * n, 8 * n}):
            matrix = build_restricted(spec, size, N_KIND, N_KIND)
            values = eigenvalues(matrix).values
            kernel_tol = 1e-9 * matrix.row_sum_norm()
            assert np.all(np.abs(values[:n]) <= kernel_tol), (spec.factors, size)
            assert values[n] > 1e-8, (spec.factors, size, values[n])
            kernel_count, gap = spectral_gap(spec, size)
            assert kernel_count == n
            # Two independent references: Jacobi on the window, and LAPACK
            # on T_{L-N}(g), whose spectrum is the window's nonzero one.
            gram = np.linalg.eigvalsh(dense_toeplitz(fourier_coefficients(spec), size - n))[0]
            tol = 1e-12 * max(1.0, matrix.row_sum_norm())
            assert abs(gap - values[n]) <= tol, (spec.factors, size, gap, values[n])
            assert abs(gap - gram) <= tol, (spec.factors, size, gap, gram)
    _report(4, "kernel dimension N, gap above 1e-8", started)


def test_criterion_5_gap_scaling():
    started = time.perf_counter()
    f01 = make_symbol([(0.0, 1)])
    report1 = gap_scan(f01, [8, 16, 32, 64, 128])
    for size, gap in report1.records:
        assert abs(gap - (2.0 - 2.0 * math.cos(math.pi / size))) <= 1e-9
    assert abs(report1.slope + 2.0) <= 0.15

    f02 = make_symbol([(0.0, 2)])
    report2 = gap_scan(f02, [8, 16, 32, 64])
    # Observed constant is ~500; anything approaching zero would flag a bug.
    assert report2.c_empirical > 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(5, "path-Laplacian gap oracle and decay slopes", started)


def test_criterion_6_circulant_spectrum_and_rank():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 6)
    for _ in range(20):
        spec = random_spec(rng, max_factors=3, max_mult=2)
        n = spec.degree
        size = int(rng.integers(2 * n + 1, 65))
        coeffs = fourier_coefficients(spec)
        per = circulant_periodic(coeffs, size)
        samples = evaluate_symbol(spec, TWO_PI * np.arange(1, size + 1) / size)
        assert_allclose(
            eigenvalues(per).values,
            np.sort(samples),
            atol=1e-10 * max(1.0, float(np.max(np.abs(samples)))),
        )
        diff_values = eigenvalues(per - build_restricted(spec, size, N_KIND, N_KIND)).values
        assert diff_values[0] >= -1e-10 * max(1.0, per.row_sum_norm())
        assert int(np.sum(diff_values > 1e-8)) == n
    _report(6, "circulant spectrum equals samples; defect has rank N", started)


def test_criterion_7_grid_shift_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 7)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 6))
        size = int(rng.integers(2, 201))
        angles = np.sort(rng.uniform(0.0, TWO_PI, n))
        if n > 1 and np.min(np.diff(angles)) <= 1e-9:
            continue
        shift = grid_shift(angles.tolist(), size)
        bound = TWO_PI / (2**n * size)
        dist = exhaustive_grid_distance(angles.tolist(), shift, size)
        assert dist >= bound * (1.0 - 1e-9), (angles, size, dist, bound)
        done += 1
    _report(7, "constructive grid shift meets 2*pi/(2^n L)", started)


def test_criterion_8_vandermonde_formula():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 8)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 5))
        target = int(rng.integers(n, 7))
        mults = np.ones(n, dtype=int)
        for _ in range(target - n):
            mults[rng.integers(0, n)] += 1
        angles = rng.uniform(0.0, TWO_PI, n)
        if n > 1:
            gaps = np.abs(np.subtract.outer(angles, angles))[~np.eye(n, dtype=bool)]
            if gaps.min() <= 1e-3:
                continue
        nodes = np.exp(1j * angles)
        reference = brute_confluent_det(nodes, mults.tolist())
        value = confluent_vandermonde_abs(nodes, mults.tolist())
        assert abs(value - reference) <= 1e-8 * max(1.0, reference), (angles, mults)
        done += 1
    _report(8, "closed form equals brute-force determinant", started)


def test_criterion_9_pentadiagonal_end_to_end():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 9)
    for _ in range(50):
        a2 = float(rng.uniform(0.05, 4.0))
        a1 = float(rng.uniform(-4.0, 4.0)) * a2
        a0 = float(rng.uniform(-8.0, 8.0))

        deco = decompose_pentadiagonal(a0, a1, a2)
        rebuilt = deco.scale * fourier_coefficients(deco.spec).a
        rebuilt[2] += deco.shift
        scale = max(1.0, abs(a0), abs(a1), abs(a2))
        assert_allclose(rebuilt, [a2, a1, a0, a1, a2], atol=1e-12 * scale)

        size1, size2 = int(rng.integers(5, 14)), int(rng.integers(5, 14))
        report, deco2 = check_bracketing_penta(a0, a1, a2, size1, size2)
        assert report.symbol_floor == deco2.shift
        assert report.all_hold, ((a0, a1, a2), report.margins)
    _report(9, "pentadiagonal round trip and shifted-floor bracketing", started)
