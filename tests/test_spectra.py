"""Eigensolver, bracketing certification, kernels, Vandermonde and gap scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from toepbrack import (
    TWO_PI,
    BoundaryKind,
    DimensionMismatchError,
    DuplicateNodeError,
    HermitianMatrix,
    KernelMismatchError,
    NoConvergenceError,
    check_bracketing,
    check_bracketing_penta,
    circulant_periodic,
    confluent_vandermonde_abs,
    build_restricted,
    direct_sum,
    eigenvalues,
    evaluate_symbol,
    fourier_coefficients,
    gap_scan,
    grid_shift,
    hermitian,
    kernel_basis,
    make_symbol,
    penta_coefficients,
    psd_gap,
    sampled_gap_floor,
    spectral_gap,
    toeplitz_finite,
)
from toepbrack import spectra
from toepbrack.spectra import _banded_lambda_min
from conftest import random_spec, random_split

N_KIND = BoundaryKind.MODIFIED_NEUMANN


class TestEigenvalues:
    def test_diagonal(self):
        m = hermitian(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(eigenvalues(m).values, [1.0, 2.0, 3.0], atol=0)

    def test_pauli_like(self):
        m = hermitian([[0.0, 1.0j], [-1.0j, 0.0]])
        assert_allclose(eigenvalues(m).values, [-1.0, 1.0], atol=1e-14)

    def test_circulant_laplacian_samples(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 1)]))
        ev = eigenvalues(circulant_periodic(coeffs, 6)).values
        expected = np.sort(2.0 - 2.0 * np.cos(TWO_PI * np.arange(1, 7) / 6))
        assert_allclose(ev, expected, atol=1e-12)

    def test_against_lapack_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = hermitian(raw + raw.conj().T)
            ours = eigenvalues(m)
            ref = np.linalg.eigvalsh(m.entries)
            bound = 1e-10 * (1.0 + m.row_sum_norm())
            assert np.max(np.abs(ours.values - ref)) <= bound
            assert ours.tolerance <= bound

    @given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**16))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_against_lapack_hypothesis(self, n, seed):
        local = np.random.default_rng(seed)
        raw = local.normal(size=(n, n)) + 1j * local.normal(size=(n, n))
        m = hermitian(raw + raw.conj().T)
        assert_allclose(
            eigenvalues(m).values,
            np.linalg.eigvalsh(m.entries),
            atol=1e-10 * (1.0 + m.row_sum_norm()),
        )

    def test_deterministic(self, rng):
        raw = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
        m = hermitian(raw + raw.conj().T)
        first = eigenvalues(m).values
        second = eigenvalues(m).values
        assert np.array_equal(first, second)

    def test_no_convergence_on_corrupted_input(self):
        # Bypass the validating constructor: a far-from-Hermitian matrix
        # must be flagged instead of silently "diagonalized".
        bad = np.array([[0.0, 1.0], [5.0, 0.0]], dtype=complex)
        with pytest.raises(NoConvergenceError):
            eigenvalues(HermitianMatrix(bad), max_sweeps=4)


class TestPsdGap:
    def test_equal_matrices(self, rng):
        raw = rng.normal(size=(8, 8))
        m = hermitian(raw + raw.T)
        assert abs(psd_gap(m, m)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            psd_gap(hermitian(np.eye(2)), hermitian(np.eye(3)))

    def test_bracketing_difference_is_psd(self):
        spec = make_symbol([(0.0, 2)])
        coeffs = fourier_coefficients(spec)
        whole = toeplitz_finite(coeffs, 10)
        soft = direct_sum(
            build_restricted(spec, 5, BoundaryKind.SIMPLE, N_KIND),
            build_restricted(spec, 5, N_KIND, BoundaryKind.SIMPLE),
        )
        assert psd_gap(whole, soft) >= -1e-10


class TestCheckBracketing:
    def test_laplacian_squared_split(self):
        report = check_bracketing(make_symbol([(0.0, 2)]), 7, 7)
        assert report.all_hold
        assert report.abs_tol >= 1e-9

    def test_complex_two_factor_split(self):
        report = check_bracketing(make_symbol([(0.0, 1), (2.0, 1)]), 5, 9)
        assert report.all_hold

    def test_classic_substitution_fails_lower(self):
        report = check_bracketing(
            make_symbol([(0.0, 2)]), 7, 7, neumann=BoundaryKind.CLASSIC_NEUMANN
        )
        assert not report.verdicts["lower"]
        assert not report.all_hold

    def test_classic_brackets_only_the_plain_laplacian(self):
        classic = BoundaryKind.CLASSIC_NEUMANN
        plain = check_bracketing(make_symbol([(0.0, 1)]), 20, 20, neumann=classic)
        assert plain.all_hold
        flipped = check_bracketing(make_symbol([(np.pi, 1)]), 20, 20, neumann=classic)
        assert not flipped.verdicts["nn_vs_0n"]
        assert not flipped.verdicts["lower"]

    def test_random_specs_and_splits(self, rng):
        for _ in range(12):
            spec = random_spec(rng)
            size1, size2 = random_split(rng, spec.degree, 50)
            report = check_bracketing(spec, size1, size2)
            assert report.all_hold, (spec, size1, size2, report.margins)

    def test_rejects_other_neumann_kind(self):
        with pytest.raises(ValueError):
            check_bracketing(make_symbol([(0.0, 1)]), 3, 3, neumann=BoundaryKind.SIMPLE)


class TestKernelBasis:
    def test_laplacian_constant_vector(self):
        (phi,) = kernel_basis(make_symbol([(0.0, 1)]), 4)
        assert_allclose(phi, np.full(4, 0.5), atol=1e-15)

    def test_laplacian_squared_polynomial_vectors(self):
        phi0, phi1 = kernel_basis(make_symbol([(0.0, 2)]), 4)
        assert_allclose(phi0, np.full(4, 0.5), atol=1e-15)
        ramp = np.arange(1.0, 5.0)
        assert_allclose(phi1, ramp / np.linalg.norm(ramp), atol=1e-15)

    def test_annihilated_by_softened_window(self, rng):
        for _ in range(10):
            spec = random_spec(rng, max_mult=2)
            size = int(rng.integers(2 * spec.degree + 1, 5 * spec.degree + 8))
            m = build_restricted(spec, size, N_KIND, N_KIND)
            for phi in kernel_basis(spec, size):
                assert np.linalg.norm(m.entries @ phi) <= 1e-9 * m.row_sum_norm()

    def test_count_and_norms(self, rng):
        spec = random_spec(rng, max_factors=3, max_mult=2)
        basis = kernel_basis(spec, 3 * spec.degree)
        assert len(basis) == spec.degree
        for phi in basis:
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12


def dense_toeplitz(coeffs, m):
    """Oracle: T_m(g) as a plain array for any m >= 1 (toeplitz_finite needs 2N+1)."""
    n = coeffs.half_bandwidth
    diff = np.arange(m)[None, :] - np.arange(m)[:, None]
    return np.where(np.abs(diff) <= n, coeffs.a[np.clip(diff, -n, n) + n], 0.0)


def brute_confluent_det(nodes, mults):
    """Oracle: assemble the moment matrix and take |det| via LU."""
    n = sum(mults)
    k = np.arange(1, n + 1)
    cols = [k**j * z**k for z, m in zip(nodes, mults) for j in range(m)]
    return abs(np.linalg.det(np.array(cols).T))


class TestConfluentVandermonde:
    def test_pair_of_nodes(self):
        e = 2.0
        value = confluent_vandermonde_abs([1.0, np.exp(1j * e)], [1, 1])
        assert_allclose(value, abs(1 - np.exp(1j * e)), atol=1e-14)

    def test_single_triple_node(self):
        assert_allclose(confluent_vandermonde_abs([1.0 + 0j], [3]), 2.0, atol=0)

    def test_brute_force_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            while True:
                angles = rng.uniform(0.0, TWO_PI, n)
                if n == 1 or np.min(np.abs(np.subtract.outer(angles, angles))[~np.eye(n, dtype=bool)]) > 1e-3:
                    break
            mults = rng.integers(1, 4, n)
            while sum(mults) > 6:
                mults[rng.integers(0, n)] = 1
            nodes = np.exp(1j * angles)
            ref = brute_confluent_det(nodes, mults.tolist())
            val = confluent_vandermonde_abs(nodes, mults.tolist())
            assert abs(val - ref) <= 1e-8 * max(1.0, ref)

    def test_duplicate_node_rejected(self):
        with pytest.raises(DuplicateNodeError):
            confluent_vandermonde_abs([1.0, 1.0 + 1e-15], [1, 1])

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError):
            confluent_vandermonde_abs([0.5], [2])


def exhaustive_grid_distance(angles, shift, size):
    grid = (TWO_PI * np.arange(1, size + 1) / size - shift) % TWO_PI
    best = np.inf
    for e in angles:
        d = np.abs(grid - e) % TWO_PI
        best = min(best, float(np.minimum(d, TWO_PI - d).min()))
    return best


class TestGridShift:
    def test_base_case_exact(self):
        size = 10
        shift = grid_shift([1.0], size)
        assert_allclose(shift, (-1.0 + math.pi / size) % TWO_PI, atol=1e-15)
        assert exhaustive_grid_distance([1.0], shift, size) >= math.pi / size * (1 - 1e-12)

    def test_two_close_angles(self):
        size = 16
        angles = [1.0, 1.0 + math.pi / size]
        shift = grid_shift(angles, size)
        bound = TWO_PI / (4 * size)
        assert exhaustive_grid_distance(angles, shift, size) >= bound * (1 - 1e-9)

    def test_random_configurations(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            size = int(rng.integers(max(n, 2), 201))
            angles = sorted(rng.uniform(0.0, TWO_PI, n))
            if n > 1 and min(np.diff(angles)) < 1e-6:
                continue
            shift = grid_shift(angles, size)
            bound = TWO_PI / (2**n * size)
            assert exhaustive_grid_distance(angles, shift, size) >= bound * (1 - 1e-9)

    def test_duplicate_angles_rejected(self):
        with pytest.raises(ValueError):
            grid_shift([1.0, 1.0], 10)


class TestSpectralGap:
    def test_path_laplacian_gap(self):
        kernel_count, gap = spectral_gap(make_symbol([(0.0, 1)]), 10)
        assert kernel_count == 1
        assert_allclose(gap, 2.0 - 2.0 * math.cos(math.pi / 10), atol=1e-10)

    def test_laplacian_squared(self):
        kernel_count, gap = spectral_gap(make_symbol([(0.0, 2)]), 12)
        assert kernel_count == 2
        assert gap > 0

    def test_gap_dominates_sampled_floor(self, rng):
        for _ in range(6):
            spec = random_spec(rng, max_factors=2, max_mult=2)
            size = int(rng.integers(2 * spec.degree + 1, 40))
            _, gap = spectral_gap(spec, size)
            floor = sampled_gap_floor(spec, size, n_samples=6, seed=7)
            assert gap >= floor - 1e-9 * max(1.0, floor)

    def test_circulant_dominates_softened(self, rng):
        # The periodic window exceeds the softened one by a rank-N PSD term.
        for _ in range(6):
            spec = random_spec(rng, max_factors=2, max_mult=2)
            n = spec.degree
            size = int(rng.integers(2 * n + 1, 41))
            per = circulant_periodic(fourier_coefficients(spec), size)
            soft = build_restricted(spec, size, N_KIND, N_KIND)
            diff_ev = eigenvalues(per - soft).values
            scale = max(1.0, per.row_sum_norm())
            assert diff_ev[0] >= -1e-10 * scale
            assert np.sum(diff_ev > 1e-8 * scale) == n

    def test_min_max_consistency(self, rng):
        # The first nonzero eigenvalue dominates the plain symbol-sample floor.
        for _ in range(6):
            spec = random_spec(rng, max_factors=2, max_mult=2)
            size = int(rng.integers(2 * spec.degree + 1, 40))
            _, gap = spectral_gap(spec, size)
            coeffs = fourier_coefficients(spec)
            floor = float(
                np.min(evaluate_symbol(coeffs, TWO_PI * np.arange(1, size + 1) / size))
            )
            assert gap >= floor - 1e-9 * max(1.0, abs(floor))

    def test_corrupted_window_fails_kernel_check(self, monkeypatch):
        def corrupted(spec, size, left, right):
            entries = build_restricted(spec, size, left, right).entries.copy()
            entries[0, 0] += 1e-3
            return HermitianMatrix(entries)

        monkeypatch.setattr(spectra, "build_restricted", corrupted)
        for factors in ([(0.0, 1)], [(0.0, 2)], [(1.0, 1), (2.5, 2)]):
            with pytest.raises(KernelMismatchError):
                spectral_gap(make_symbol(factors), 24)

    def test_modulation_invariance_of_spectrum(self, rng):
        for _ in range(5):
            spec = random_spec(rng, max_factors=2, max_mult=2)
            size = 2 * spec.degree + 5
            delta = float(rng.uniform(0.3, 5.5))
            ev = eigenvalues(build_restricted(spec, size, N_KIND, N_KIND)).values
            ev_shifted = eigenvalues(
                build_restricted(spec.shifted(delta), size, N_KIND, N_KIND)
            ).values
            assert_allclose(ev, ev_shifted, atol=1e-9 * max(1.0, ev.max()))


class TestBandedLambdaMin:
    def test_against_lapack_on_random_symbols(self, rng):
        # Random angles give complex coefficients; N ranges over 1..6.
        for _ in range(40):
            spec = random_spec(rng, max_factors=3, max_mult=2, min_sep=0.3)
            n = spec.degree
            coeffs = fourier_coefficients(spec)
            m = int(rng.integers(2 * n + 1, 201)) - n
            ref = np.linalg.eigvalsh(dense_toeplitz(coeffs, m))[0]
            tol = 1e-12 * max(1.0, float(np.abs(coeffs.a).sum()))
            assert abs(_banded_lambda_min(coeffs, m) - ref) <= tol, (spec.factors, m)

    @pytest.mark.parametrize("size", [512, 1024, 4096])
    def test_path_laplacian_gap_at_large_sizes(self, size):
        coeffs = fourier_coefficients(make_symbol([(0.0, 1)]))
        exact = 4.0 * math.sin(math.pi / (2 * size)) ** 2
        assert abs(_banded_lambda_min(coeffs, size - 1) - exact) <= 1e-12 * 4.0

    def test_deterministic(self):
        coeffs = fourier_coefficients(make_symbol([(1.0, 1), (2.5, 2)]))
        first = _banded_lambda_min(coeffs, 97)
        assert _banded_lambda_min(coeffs, 97) == first

    @pytest.mark.parametrize("factors", [[(0.0, 1)], [(0.0, 2)], [(0.4, 1), (2.0, 2), (4.1, 1)]])
    def test_smallest_window(self, factors):
        # L = 2N+1 leaves m = N+1 rows, below the size toeplitz_finite accepts.
        spec = make_symbol(factors)
        n = spec.degree
        coeffs = fourier_coefficients(spec)
        ref = np.linalg.eigvalsh(dense_toeplitz(coeffs, n + 1))[0]
        tol = 1e-12 * max(1.0, float(np.abs(coeffs.a).sum()))
        assert abs(_banded_lambda_min(coeffs, n + 1) - ref) <= tol
        _, gap = spectral_gap(spec, 2 * n + 1)
        assert gap == _banded_lambda_min(coeffs, n + 1)


class TestGapScan:
    def test_path_laplacian_slope(self):
        report = gap_scan(make_symbol([(0.0, 1)]), [8, 16, 32, 64])
        assert abs(report.slope + 2.0) <= 0.15
        assert report.c_empirical > 0
        assert report.alpha_max == 1

    def test_laplacian_squared_slope_band(self):
        report = gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32, 64])
        # One-sided: the decay must not be faster than the guaranteed bound.
        assert report.slope >= -4.0 - 0.4
        assert report.slope <= -2.0
        assert report.c_empirical > 0

    def test_records_sorted_and_positive(self, rng):
        spec = random_spec(rng, max_factors=2, max_mult=1)
        sizes = [2 * spec.degree + 1, 6 * spec.degree, 10 * spec.degree]
        report = gap_scan(spec, sizes)
        recorded = [s for s, _ in report.records]
        assert recorded == sorted(recorded)
        assert all(g > 0 for _, g in report.records)
        # Small windows are recorded but stay out of the slope fit.
        assert all(s >= 4 * spec.degree for s in report.fit_sizes)

    def test_needs_two_fit_points(self):
        with pytest.raises(ValueError):
            gap_scan(make_symbol([(0.0, 1)]), [3, 4])


class TestPentaBracketing:
    def test_laplacian_squared_row(self):
        report, deco = check_bracketing_penta(6.0, -4.0, 1.0, 8, 8)
        assert report.all_hold
        assert report.symbol_floor == pytest.approx(0.0, abs=1e-12)
        assert deco.scale == 1.0

    def test_shifted_floor(self, rng):
        for _ in range(8):
            a2 = float(rng.uniform(0.1, 3.0))
            a1 = float(rng.uniform(-3.9, 3.9)) * a2
            a0 = float(rng.uniform(-5.0, 5.0))
            size1, size2 = int(rng.integers(5, 12)), int(rng.integers(5, 12))
            report, deco = check_bracketing_penta(a0, a1, a2, size1, size2)
            assert report.symbol_floor == pytest.approx(deco.shift)
            assert report.all_hold, report.margins

    def test_margins_match_affine_windows(self):
        # Oracle: LAPACK on the windows of the row itself, h = scale * g + shift.
        a0, a1, a2, size1, size2 = 2.0, -1.5, 0.75, 6, 9
        report, deco = check_bracketing_penta(a0, a1, a2, size1, size2)

        def window(size, left, right):
            g = build_restricted(deco.spec, size, left, right).entries
            return deco.scale * g + deco.shift * np.eye(size)

        def block_diag(x, y):
            out = np.zeros((size1 + size2,) * 2, dtype=complex)
            out[:size1, :size1], out[size1:, size1:] = x, y
            return out

        simple, dirichlet = BoundaryKind.SIMPLE, BoundaryKind.MODIFIED_DIRICHLET
        whole = toeplitz_finite(penta_coefficients(a0, a1, a2), size1 + size2).entries
        soft = block_diag(window(size1, simple, N_KIND), window(size2, N_KIND, simple))
        both = block_diag(window(size1, N_KIND, N_KIND), window(size2, N_KIND, N_KIND))
        stiff = block_diag(window(size1, simple, dirichlet), window(size2, dirichlet, simple))
        expected = {
            "floor_nn": np.linalg.eigvalsh(both)[0] - deco.shift,
            "nn_vs_0n": np.linalg.eigvalsh(soft - both)[0],
            "lower": np.linalg.eigvalsh(whole - soft)[0],
            "upper": np.linalg.eigvalsh(stiff - whole)[0],
        }
        for name, value in expected.items():
            assert report.margins[name] == pytest.approx(value, abs=1e-12)
        assert report.abs_tol == pytest.approx(1e-9 * (abs(a0) + 2 * abs(a1) + 2 * abs(a2)))

    def test_ratio_endpoints(self):
        for ratio in (-4.0, 4.0):
            report, deco = check_bracketing_penta(7.0, ratio * 1.5, 1.5, 6, 7)
            assert deco.spec.multiplicities == (2,)
            assert report.all_hold
