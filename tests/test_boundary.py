"""Stencils, corner blocks and boundary-modified restrictions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from toepbrack import (
    BoundaryKind,
    NonHermitianError,
    SizeTooSmallError,
    build_restricted,
    classic_split_difference,
    corner_block,
    eigenvalues,
    fourier_coefficients,
    hermitian,
    kernel_basis,
    make_symbol,
    stencil,
    toeplitz_finite,
)
from toepbrack.boundary import _mirror, _window_corners
from conftest import random_spec
from oracles import (
    ALL_PAIRS,
    COMPLEX_SPECS,
    REAL_SPECS,
    _window,
    _window_specs,
    dirichlet_from_neumann,
    rank_one_sum,
)

N_KIND = BoundaryKind.MODIFIED_NEUMANN
D_KIND = BoundaryKind.MODIFIED_DIRICHLET
SIMPLE = BoundaryKind.SIMPLE


def paper_corner(e):
    """The 2x2 left-corner magnitude block displayed for the two-factor example."""
    return np.array(
        [
            [3 + np.exp(1j * e) + np.exp(-1j * e), -1 - np.exp(1j * e)],
            [-1 - np.exp(-1j * e), 1.0],
        ]
    )


class TestStencil:
    def test_laplacian(self):
        assert_allclose(stencil(make_symbol([(0.0, 1)])), [1.0, -1.0], atol=0)

    def test_laplacian_squared(self):
        assert_allclose(stencil(make_symbol([(0.0, 2)])), [1.0, -2.0, 1.0], atol=0)

    def test_two_factor(self):
        e = 2.0
        c = stencil(make_symbol([(0.0, 1), (e, 1)]))
        assert_allclose(c, [1.0, -1.0 - np.exp(-1j * e), np.exp(-1j * e)], atol=1e-15)

    def test_leading_coefficient_one(self, rng):
        for _ in range(10):
            spec = random_spec(rng, max_mult=3)
            c = stencil(spec)
            assert c[0] == 1.0
            assert len(c) == spec.degree + 1

    def test_autocorrelation_reproduces_coefficients(self, rng):
        for _ in range(20):
            spec = random_spec(rng, max_factors=3, max_mult=2)
            c = stencil(spec)
            a = fourier_coefficients(spec).a
            n = spec.degree
            for t in range(n + 1):
                acf = np.sum(c[: n + 1 - t] * np.conj(c[t:]))
                assert abs(acf - a[n + t]) < 1e-12 * max(1.0, abs(a[n]))

    def test_rank_one_block_matches_display(self):
        e = 2.0
        c = stencil(make_symbol([(0.0, 1), (e, 1)]))
        block = np.outer(c, c.conj())
        expected = np.array(
            [
                [1, -1 - np.exp(1j * e), np.exp(1j * e)],
                [-1 - np.exp(-1j * e), 2 + np.exp(-1j * e) + np.exp(1j * e), -1 - np.exp(1j * e)],
                [np.exp(-1j * e), -1 - np.exp(-1j * e), 1],
            ]
        )
        assert_allclose(block, expected, atol=1e-15)


class TestRankOneSum:
    def test_interior_matches_both_sided_restriction(self, rng):
        # Gram identity: the interior placements sum to the nn window.
        eps = np.finfo(float).eps
        for _ in range(10):
            spec = random_spec(rng, max_mult=2)
            n = spec.degree
            size = 4 * n + 3
            interior = rank_one_sum(spec, size, range(0, size - n))
            built = build_restricted(spec, size, N_KIND, N_KIND)
            bound = 8 * eps * built.row_sum_norm()
            assert np.abs(interior.entries - built.entries).max() <= bound

    def test_central_block_is_toeplitz_band(self, rng):
        for _ in range(10):
            spec = random_spec(rng, max_mult=2)
            n = spec.degree
            size = 4 * n + 3
            interior = rank_one_sum(spec, size, range(0, size - n)).entries
            band = toeplitz_finite(fourier_coefficients(spec), size).entries
            sl = slice(n, size - n)
            assert_allclose(interior[sl, sl], band[sl, sl], atol=1e-12 * np.abs(band).max())

    def test_path_laplacian(self):
        spec = make_symbol([(0.0, 1)])
        m = rank_one_sum(spec, 4, range(0, 3))
        assert_allclose(
            m.entries,
            [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]],
            atol=0,
        )

    def test_empty_range(self):
        spec = make_symbol([(0.0, 1)])
        assert np.array_equal(rank_one_sum(spec, 4, []).entries, np.zeros((4, 4)))

    def test_rejects_non_intersecting_placement(self):
        spec = make_symbol([(0.0, 1)])
        with pytest.raises(ValueError):
            rank_one_sum(spec, 4, [4])
        with pytest.raises(ValueError):
            rank_one_sum(spec, 4, [-2])


class TestCornerBlock:
    def test_two_factor_neumann_corner(self):
        e = 2.0
        block = corner_block(make_symbol([(0.0, 1), (e, 1)]), N_KIND)
        expected = -np.array(
            [
                [1, -1 - np.exp(1j * e)],
                [-1 - np.exp(-1j * e), 3 + np.exp(1j * e) + np.exp(-1j * e)],
            ]
        )
        assert_allclose(block.entries, expected, atol=1e-15)

    def test_laplacian_corner_is_minus_one(self):
        block = corner_block(make_symbol([(0.0, 1)]), N_KIND)
        assert_allclose(block.entries, [[-1.0]], atol=0)

    def test_sign_definiteness(self, rng):
        for _ in range(15):
            spec = random_spec(rng, max_mult=2)
            soft = eigenvalues(corner_block(spec, N_KIND)).values
            stiff = eigenvalues(corner_block(spec, D_KIND)).values
            assert soft.max() <= 1e-12
            assert stiff.min() >= -1e-12

    def test_rejects_other_kinds(self):
        spec = make_symbol([(0.0, 1)])
        with pytest.raises(ValueError):
            corner_block(spec, SIMPLE)


class TestBuildRestricted:
    def test_laplacian_both_sided(self):
        m = build_restricted(make_symbol([(0.0, 1)]), 4, N_KIND, N_KIND)
        assert_allclose(
            m.entries,
            [[1, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 1]],
            atol=0,
        )

    def test_simple_simple_is_plain_window(self):
        spec = make_symbol([(0.0, 1), (2.0, 1)])
        t = toeplitz_finite(fourier_coefficients(spec), 7)
        m = build_restricted(spec, 7, SIMPLE, SIMPLE)
        assert np.array_equal(m.entries, t.entries)

    def test_left_corners_match_displayed_blocks(self):
        e = 2.0
        spec = make_symbol([(0.0, 1), (e, 1)])
        size = 7
        t = toeplitz_finite(fourier_coefficients(spec), size).entries
        soft = build_restricted(spec, size, N_KIND, SIMPLE).entries
        stiff = build_restricted(spec, size, D_KIND, SIMPLE).entries
        assert_allclose(soft - t, _pad_top_left(-paper_corner(e), size), atol=1e-14)
        assert_allclose(stiff - t, _pad_top_left(paper_corner(e), size), atol=1e-14)

    def test_right_dirichlet_corner_is_conjugated_mirror(self):
        e = 2.0
        spec = make_symbol([(0.0, 1), (e, 1)])
        size = 6
        t = toeplitz_finite(fourier_coefficients(spec), size).entries
        stiff = build_restricted(spec, size, SIMPLE, D_KIND).entries
        mirrored = np.conj(paper_corner(e)[::-1, ::-1])
        diff = stiff - t
        assert_allclose(diff[size - 2 :, size - 2 :], mirrored, atol=1e-14)
        diff[size - 2 :, size - 2 :] = 0
        assert_allclose(diff, 0, atol=0)

    def test_size_too_small(self):
        spec = make_symbol([(0.0, 2)])
        with pytest.raises(SizeTooSmallError):
            build_restricted(spec, 4, N_KIND, N_KIND)

    def test_modulation_covariance(self, rng):
        # Conjugating by the diagonal phase matrix shifts every factor angle.
        for _ in range(8):
            spec = random_spec(rng, max_factors=2, max_mult=2)
            size = 2 * spec.degree + 3
            delta = float(rng.uniform(0.1, 6.0))
            m = build_restricted(spec, size, N_KIND, N_KIND).entries
            u = np.exp(-1j * delta * np.arange(size))
            conjugated = (u[:, None] * m) * np.conj(u[None, :])
            shifted = build_restricted(
                make_symbol([(e + delta, mult) for e, mult in spec.factors]), size, N_KIND, N_KIND
            ).entries
            assert_allclose(conjugated, shifted, atol=1e-12 * np.abs(m).max())

    def test_kernel_vectors_annihilated(self, rng):
        for _ in range(8):
            spec = random_spec(rng, max_mult=2)
            size = 4 * spec.degree + 5
            m = build_restricted(spec, size, N_KIND, N_KIND)
            bound = 1e-9 * m.row_sum_norm()
            for phi in kernel_basis(spec, size):
                assert np.linalg.norm(m.entries @ phi) <= bound


@pytest.mark.parametrize("pair", ALL_PAIRS, ids="".join)
def test_every_window_keeps_half_bandwidth(pair):
    for spec in _window_specs(pair):
        n = spec.degree
        for size in (2 * n + 1, 40):
            m = _window(spec, size, pair)
            idx = np.arange(size)
            outside = np.abs(idx[:, None] - idx[None, :]) > n
            assert np.all(m[outside] == 0), (spec, size)


@pytest.mark.parametrize("pair", ALL_PAIRS, ids="".join)
def test_every_window_is_bitwise_hermitian(pair):
    for spec in _window_specs(pair):
        for size in (2 * spec.degree + 1, 40):
            m = _window(spec, size, pair)
            assert np.array_equal(m, m.conj().T), (spec, size)


@pytest.mark.parametrize("spec", REAL_SPECS + COMPLEX_SPECS, ids=lambda spec: str(spec.factors))
def test_dirichlet_corner_is_minus_the_neumann_corner(spec):
    # Exactly equal (only the sign of a zero may differ), so a check can
    # take the stiff corners as -(soft corners).
    assert np.array_equal(corner_block(spec, D_KIND).entries, -corner_block(spec, N_KIND).entries)
    stiff = _window_corners(spec, D_KIND, D_KIND)
    soft = _window_corners(spec, N_KIND, N_KIND)
    for d, n in zip(stiff, soft):
        assert np.array_equal(d, -n)


def random_real_spec(rng):
    """A random real symbol: a conjugate pair of angles, maybe with 0 or pi."""
    e = float(rng.uniform(0.3, 2.8))
    mult = int(rng.integers(1, 3))
    factors = [(e, mult), (-e, mult)]
    for extra in (0.0, np.pi):
        if rng.random() < 0.5:
            factors.append((extra, int(rng.integers(1, 3))))
    return make_symbol(factors)


@pytest.mark.parametrize("code", "ndc")
def test_corner_block_is_bitwise_hermitian(rng, code):
    kind = BoundaryKind.from_code(code)
    for _ in range(40):
        spec = random_real_spec(rng) if code == "c" else random_spec(rng, max_mult=3)
        block = corner_block(spec, kind).entries
        assert np.array_equal(block, block.conj().T), spec


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pair", ALL_PAIRS, ids="".join)
def test_window_corners_are_the_corner_block_and_its_mirror(pair):
    # Bit for bit, signs of zeros included: the top block is reflected,
    # never symmetrized a second time.
    left, right = (BoundaryKind.from_code(code) for code in pair)
    for spec in _window_specs(pair):
        top, bottom = _window_corners(spec, left, right)
        if left is SIMPLE:
            assert top is None
        else:
            assert _same_bits(top, _mirror(corner_block(spec, left).entries)), spec
        if right is SIMPLE:
            assert bottom is None
        else:
            assert _same_bits(bottom, corner_block(spec, right).entries), spec


def _pad_top_left(block, size):
    out = np.zeros((size, size), dtype=complex)
    out[: block.shape[0], : block.shape[1]] = block
    return out


class TestClassicNeumann:
    C_KIND = BoundaryKind.CLASSIC_NEUMANN

    def test_laplacian_left_vertex(self):
        m = build_restricted(make_symbol([(0.0, 1)]), 5, self.C_KIND, SIMPLE)
        assert m.entries[0, 0] == 1.0
        assert m.entries[1, 1] == 2.0

    def test_matches_modified_for_laplacian(self):
        spec = make_symbol([(0.0, 1)])
        classic = build_restricted(spec, 6, self.C_KIND, SIMPLE)
        modified = build_restricted(spec, 6, N_KIND, SIMPLE)
        assert_allclose(classic.entries, modified.entries, atol=0)

    def test_laplacian_squared_hankel_corner(self):
        spec = make_symbol([(0.0, 2)])
        t = toeplitz_finite(fourier_coefficients(spec), 5).entries
        m = build_restricted(spec, 5, self.C_KIND, SIMPLE).entries
        assert_allclose(m - t, _pad_top_left(np.array([[-4.0, 1.0], [1.0, 0.0]]), 5), atol=0)

    def test_right_side_is_mirror(self):
        spec = make_symbol([(0.0, 2)])
        left = build_restricted(spec, 6, self.C_KIND, SIMPLE).entries
        right = build_restricted(spec, 6, SIMPLE, self.C_KIND).entries
        assert_allclose(right, left[::-1, ::-1], atol=0)

    def test_split_difference_matches_displayed_pattern(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        diff = classic_split_difference(coeffs, 4, 4).entries.real
        expected = np.zeros((8, 8))
        expected[2:6, 2:6] = [
            [0, -1, 1, 0],
            [-1, 4, -4, 1],
            [1, -4, 4, -1],
            [0, 1, -1, 0],
        ]
        assert_allclose(diff, expected, atol=0)

    @pytest.mark.parametrize(
        "factors", [[(0.0, 1)], [(np.pi, 1)], [(0.0, 2)], [(0.3, 2), (-0.3, 2)]]
    )
    def test_split_difference_is_whole_minus_classic_halves(self, factors):
        # Oracle: the dense windows, halves of at least 2N+1 rows.
        spec = make_symbol(factors)
        coeffs = fourier_coefficients(spec)
        size1, size2 = 2 * spec.degree + 1, 2 * spec.degree + 4
        halves = np.zeros((size1 + size2,) * 2, dtype=complex)
        halves[:size1, :size1] = build_restricted(spec, size1, SIMPLE, self.C_KIND).entries
        halves[size1:, size1:] = build_restricted(spec, size2, self.C_KIND, SIMPLE).entries
        expected = toeplitz_finite(coeffs, size1 + size2).entries - halves
        scale = float(np.abs(coeffs.a).sum())
        diff = classic_split_difference(coeffs, size1, size2).entries
        assert_allclose(diff, expected, rtol=0, atol=4 * np.finfo(float).eps * scale)

    def test_complex_symbol_rejected(self):
        spec = make_symbol([(0.0, 1), (2.0, 1)])
        with pytest.raises(NonHermitianError):
            build_restricted(spec, 7, self.C_KIND, SIMPLE)
        with pytest.raises(NonHermitianError):
            classic_split_difference(fourier_coefficients(spec), 7, 7)

    def test_minimum_size(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        classic_split_difference(coeffs, 3, 3)  # N+1 per half is allowed
        for size1, size2 in [(2, 5), (5, 2), (1, 1)]:
            with pytest.raises(SizeTooSmallError):
                classic_split_difference(coeffs, size1, size2)


class TestDirichletFromNeumann:
    def test_scalar_blocks(self):
        a = hermitian([[1.0, 0.5], [0.5, 1.0]])
        out = dirichlet_from_neumann(a, hermitian([[0.5]]), hermitian([[0.5]]))
        assert_allclose(out.entries, [[1.5, 0.0], [0.0, 1.5]], atol=0)

    def test_reproduces_stiffened_blocks(self):
        spec = make_symbol([(0.0, 1), (2.0, 1)])
        coeffs = fourier_coefficients(spec)
        l1, l2 = 6, 7
        whole = toeplitz_finite(coeffs, l1 + l2)
        soft1 = build_restricted(spec, l1, SIMPLE, N_KIND)
        soft2 = build_restricted(spec, l2, N_KIND, SIMPLE)
        out = dirichlet_from_neumann(whole, soft1, soft2).entries
        stiff1 = build_restricted(spec, l1, SIMPLE, D_KIND).entries
        stiff2 = build_restricted(spec, l2, D_KIND, SIMPLE).entries
        assert_allclose(out[:l1, :l1], stiff1, atol=1e-12 * np.abs(out).max())
        assert_allclose(out[l1:, l1:], stiff2, atol=1e-12 * np.abs(out).max())

    def test_double_application_reverses(self):
        spec = make_symbol([(0.0, 2)])
        coeffs = fourier_coefficients(spec)
        whole = toeplitz_finite(coeffs, 12)
        b1 = build_restricted(spec, 5, SIMPLE, N_KIND)
        b2 = build_restricted(spec, 7, N_KIND, SIMPLE)
        once = dirichlet_from_neumann(whole, b1, b2)
        twice = dirichlet_from_neumann(
            whole,
            hermitian(once.entries[:5, :5]),
            hermitian(once.entries[5:, 5:]),
        )
        assert_allclose(twice.entries[:5, :5], b1.entries, atol=1e-12)
        assert_allclose(twice.entries[5:, 5:], b2.entries, atol=1e-12)

    def test_dimension_mismatch(self):
        a = hermitian(np.eye(4))
        with pytest.raises(ValueError):
            dirichlet_from_neumann(a, hermitian(np.eye(2)), hermitian(np.eye(3)))
