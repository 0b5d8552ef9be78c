"""Finite matrix constructors: Toeplitz windows, circulants, reflections."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from toepbrack import (
    TWO_PI,
    NonHermitianError,
    SizeTooSmallError,
    circulant_periodic,
    direct_sum,
    eigenvalues,
    evaluate_symbol,
    fourier_coefficients,
    hermitian,
    make_symbol,
    toeplitz_finite,
)
from toepbrack.matrices import _toeplitz_body
from conftest import random_spec
from oracles import dense_toeplitz


class TestHermitianConstructor:
    def test_rejects_asymmetric(self):
        with pytest.raises(NonHermitianError):
            hermitian([[1.0, 2.0], [2.5, 3.0]])

    @pytest.mark.parametrize(
        "raw",
        [[[1.0, np.nan], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]],
         [[1.0, 0.0], [0.0, -np.inf]]],
    )
    def test_rejects_non_finite(self, raw):
        with pytest.raises(NonHermitianError, match="Hermitian deviation"):
            hermitian(raw)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            hermitian(np.zeros((0, 0)))

    def test_symmetrizes_exactly(self):
        m = hermitian([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, 3.0]])
        assert np.array_equal(m.entries, m.entries.conj().T)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0  # storage is read-only

    def test_row_sum_norm(self):
        m = hermitian([[2.0, -1.0], [-1.0, 2.0]])
        assert m.row_sum_norm() == 3.0

    def test_sum_is_entrywise_and_read_only(self):
        a = hermitian([[2.0, 1.0j], [-1.0j, 2.0]])
        b = hermitian([[1.0, -1.0], [-1.0, 3.0]])
        s = a + b
        assert np.array_equal(s.entries, [[3.0, -1.0 + 1.0j], [-1.0 - 1.0j, 5.0]])
        assert np.array_equal((s - b).entries, a.entries)
        with pytest.raises(ValueError):
            s.entries[0, 0] = 0.0


class TestToeplitzFinite:
    def test_laplacian_3x3(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 1)]))
        t = toeplitz_finite(coeffs, 3)
        assert_allclose(t.entries, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], atol=0)

    def test_two_factor_middle_row(self):
        e = 2.0
        coeffs = fourier_coefficients(make_symbol([(0.0, 1), (e, 1)]))
        t = toeplitz_finite(coeffs, 5)
        expected = [
            np.exp(-1j * e),
            -2 - 2 * np.exp(-1j * e),
            4 + 2 * np.cos(e),
            -2 - 2 * np.exp(1j * e),
            np.exp(1j * e),
        ]
        assert_allclose(t.entries[2], expected, atol=1e-15)

    def test_laplacian_squared_row(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        t = toeplitz_finite(coeffs, 5)
        assert_allclose(t.entries[2], [1, -4, 6, -4, 1], atol=0)

    def test_size_too_small(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        with pytest.raises(SizeTooSmallError):
            toeplitz_finite(coeffs, 4)

    def test_body_matches_dense_oracle_bitwise(self, rng):
        # Sizes 1..2N+1 cover windows narrower than the band.
        for _ in range(20):
            spec = random_spec(rng, max_mult=3)
            coeffs = fourier_coefficients(spec)
            n = spec.degree
            for size in [*range(1, 2 * n + 2), int(rng.integers(2 * n + 2, 60))]:
                body = _toeplitz_body(coeffs, size)
                expected = np.asarray(dense_toeplitz(coeffs, size), dtype=np.complex128)
                assert body.tobytes() == expected.tobytes(), (spec, size)

    def test_window_consistency(self, rng):
        # Any contiguous sub-window of a larger window is the smaller window.
        for _ in range(10):
            spec = random_spec(rng)
            n = spec.degree
            coeffs = fourier_coefficients(spec)
            big = toeplitz_finite(coeffs, 4 * n + 6).entries
            m = 2 * n + 2
            small = toeplitz_finite(coeffs, m).entries
            for start in (0, 1, n):
                window = big[start : start + m, start : start + m]
                assert np.array_equal(window, small)


class TestCirculant:
    def test_cycle_laplacian(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 1)]))
        c = circulant_periodic(coeffs, 4)
        assert_allclose(
            c.entries,
            [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
            atol=0,
        )

    def test_spectrum_is_symbol_samples(self, rng):
        for _ in range(8):
            spec = random_spec(rng, max_factors=2, max_mult=2)
            coeffs = fourier_coefficients(spec)
            size = int(rng.integers(2 * spec.degree + 1, 65))
            ev = eigenvalues(circulant_periodic(coeffs, size)).values
            samples = evaluate_symbol(spec, TWO_PI * np.arange(1, size + 1) / size)
            assert_allclose(ev, np.sort(samples), atol=1e-10 * max(1.0, samples.max()))

    def test_smallest_eigenvalue_zero_at_grid_angle(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        ev = eigenvalues(circulant_periodic(coeffs, 8)).values
        assert abs(ev[0]) < 1e-12  # the symbol vanishes at the sample 2*pi

    def test_size_too_small(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        with pytest.raises(SizeTooSmallError):
            circulant_periodic(coeffs, 4)


class TestDirectSum:
    def test_scalar_blocks(self):
        a = hermitian([[2.0]])
        b = hermitian([[3.0]])
        assert_allclose(direct_sum(a, b).entries, [[2, 0], [0, 3]], atol=0)

    def test_off_blocks_zero(self):
        a = hermitian(np.eye(3))
        b = hermitian(np.eye(4) * 2)
        s = direct_sum(a, b)
        assert s.dim == 7
        assert np.array_equal(s.entries[:3, 3:], np.zeros((3, 4)))
        assert np.array_equal(s.entries[3:, :3], np.zeros((4, 3)))

    def test_difference_support_is_central_block(self, rng):
        # T_{L} minus a split direct sum only differs in the 2N x 2N center.
        for _ in range(5):
            spec = random_spec(rng, max_factors=2)
            n = spec.degree
            coeffs = fourier_coefficients(spec)
            l1 = 2 * n + 2
            l2 = 2 * n + 3
            whole = toeplitz_finite(coeffs, l1 + l2)
            split = direct_sum(toeplitz_finite(coeffs, l1), toeplitz_finite(coeffs, l2))
            diff = whole.entries - split.entries
            mask = np.zeros_like(diff, dtype=bool)
            mask[l1 - n : l1 + n, l1 - n : l1 + n] = True
            assert np.all(diff[~mask] == 0)
            assert np.abs(diff).max() > 0
