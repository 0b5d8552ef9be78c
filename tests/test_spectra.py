"""Eigensolver, bracketing certification, kernels, Vandermonde, gap scaling
and the multisection engine behind the certificates and gaps."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from toepbrack import (
    TWO_PI,
    BandedCoeffs,
    BoundaryKind,
    DuplicateNodeError,
    HermitianMatrix,
    KernelMismatchError,
    NoConvergenceError,
    check_bracketing,
    check_bracketing_penta,
    circulant_periodic,
    classic_split_difference,
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
    sampled_gap_floor,
    spectral_gap,
    stencil,
    toeplitz_finite,
)
import toepbrack
from toepbrack import boundary, matrices, spectra, symbols
from toepbrack import _multisection as multisection
from toepbrack._multisection import lambda_mins
from toepbrack.boundary import _window_corners
from conftest import random_spec, random_split
from oracles import (
    ALL_PAIRS,
    _window,
    _window_specs,
    brute_confluent_det,
    certificate_windows,
    dense_toeplitz,
    dense_window,
    dirichlet_from_neumann,
    enclosure_symbols,
    exhaustive_grid_distance,
)

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
            eigenvalues(HermitianMatrix(bad))


class TestCheckBracketing:
    def test_laplacian_squared_split(self):
        report = check_bracketing(make_symbol([(0.0, 2)]), 7, 7)
        assert report.all_hold
        assert report.abs_tol >= 1e-9

    def test_complex_two_factor_split(self):
        report = check_bracketing(make_symbol([(0.0, 1), (2.0, 1)]), 5, 9)
        assert report.all_hold

    def test_threshold_is_not_a_parameter(self):
        # The verdict threshold is fixed, so no caller can loosen it.
        with pytest.raises(TypeError):
            check_bracketing(make_symbol([(0.0, 2)]), 7, 7, tol=0.1)
        with pytest.raises(TypeError):
            check_bracketing_penta(6.0, -4.0, 1.0, 7, 7, tol=0.1)

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

    @pytest.mark.parametrize(
        "neumann", [N_KIND, BoundaryKind.CLASSIC_NEUMANN], ids=["modified", "classic"]
    )
    def test_margins_match_lapack_on_the_same_windows(self, rng, neumann):
        # Oracle: eigvalsh of the four differences, built from the same windows.
        simple = BoundaryKind.SIMPLE
        cases = []
        for _ in range(6):
            if neumann is N_KIND:
                spec = random_spec(rng)
            else:  # the classic corner needs a real symbol: conjugate angle pairs
                e = float(rng.uniform(0.5, 2.6))
                spec = make_symbol([(e, 1), (-e, 1)] + [(0.0, 1)] * int(rng.integers(0, 2)))
            cases.append((spec, random_split(rng, spec.degree, 40)))
        # Degree 12: nn_vs_0n reads a zero-row window whose corners reach 2.7e6.
        cases.append((make_symbol([(0.0, 12)]), (25, 27)))
        for spec, (size1, size2) in cases:
            report = check_bracketing(spec, size1, size2, neumann=neumann)
            whole = toeplitz_finite(fourier_coefficients(spec), size1 + size2)
            soft1 = build_restricted(spec, size1, simple, neumann)
            soft2 = build_restricted(spec, size2, neumann, simple)
            both = direct_sum(
                build_restricted(spec, size1, neumann, neumann),
                build_restricted(spec, size2, neumann, neumann),
            )
            if neumann is N_KIND:
                d_kind = BoundaryKind.MODIFIED_DIRICHLET
                stiff = direct_sum(
                    build_restricted(spec, size1, simple, d_kind),
                    build_restricted(spec, size2, d_kind, simple),
                )
            else:
                stiff = dirichlet_from_neumann(whole, soft1, soft2)
            soft = direct_sum(soft1, soft2)
            expected = {
                "floor_nn": np.linalg.eigvalsh(both.entries)[0],
                "nn_vs_0n": np.linalg.eigvalsh((soft - both).entries)[0],
                "lower": np.linalg.eigvalsh((whole - soft).entries)[0],
                "upper": np.linalg.eigvalsh((stiff - whole).entries)[0],
            }
            tol = 1e-12 * max(1.0, whole.row_sum_norm())
            for name, value in expected.items():
                assert abs(report.margins[name] - value) <= tol, (spec, size1, size2, name)

    def test_rejects_other_neumann_kind(self):
        with pytest.raises(ValueError):
            check_bracketing(make_symbol([(0.0, 1)]), 3, 3, neumann=BoundaryKind.SIMPLE)


@pytest.fixture
def builds(monkeypatch):
    """Calls of the corner, row and symmetrizing builders, in every module that binds them."""
    counts = {"_window_corners": 0, "fourier_coefficients": 0, "hermitian": 0}
    for name, original in (
        ("_window_corners", boundary._window_corners),
        ("fourier_coefficients", symbols.fourier_coefficients),
        ("hermitian", matrices.hermitian),
    ):
        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (toepbrack, symbols, matrices, boundary, spectra):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    return counts


@pytest.mark.parametrize(
    "call",
    [
        lambda: gap_scan(make_symbol([(0.0, 1), (2.0, 2)]), [13, 16, 32, 64, 100]),
        lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 2)]), 20, 23),
        lambda: check_bracketing(make_symbol([(0.0, 2)]), 7, 7),
        lambda: check_bracketing_penta(2.0, -1.5, 0.75, 6, 9),
    ],
    ids=["gap_scan", "complex", "real", "penta"],
)
def test_corners_and_row_built_once_per_call(builds, call):
    call()
    assert builds == {"_window_corners": 1, "fourier_coefficients": 1, "hermitian": 1}


_CLASSIC = BoundaryKind.CLASSIC_NEUMANN
_REAL = make_symbol([(0.0, 2), (2.0, 1), (-2.0, 1)])


@pytest.mark.parametrize(
    "call, kinds",
    [
        (lambda: check_bracketing(_REAL, 10, 11, neumann=_CLASSIC), 1),
        (lambda: classic_split_difference(fourier_coefficients(_REAL), 5, 6), 1),
    ]
    + [
        (lambda pair=pair: _window(_REAL, 11, pair), len(set(pair) - {"0"}))
        for pair in ALL_PAIRS
    ],
    ids=["check_classic", "classic_split_difference"] + ["".join(p) for p in ALL_PAIRS],
)
def test_each_corner_kind_symmetrized_once(builds, call, kinds):
    # corner_block symmetrizes each kind once; a top block is its mirror.
    call()
    assert builds["hermitian"] == kinds


def test_min0_window_keeps_a_nan_midpoint():
    # min(0.0, nan) is 0.0, which would report a NaN window as a holding
    # zero margin.
    spec = make_symbol([(0.0, 1), (2.0, 1)])
    coeffs = fourier_coefficients(spec)
    top, bottom = _window_corners(spec, N_KIND, N_KIND)
    corrupted = top.copy()
    corrupted[0, 0] = np.nan
    zero_row = BandedCoeffs(np.zeros_like(coeffs.a))
    windows = [(zero_row, 4, -bottom, "min0"), (zero_row, 4, corrupted, "min0")]
    with np.errstate(all="ignore"):
        healthy, broken, whole = spectra.lambda_mins(windows + [(coeffs, 4, corrupted, "min0")])
    assert healthy == 0.0
    assert math.isnan(broken) and math.isnan(whole)


def test_nn_vs_0n_is_positive_definite_yet_reports_zero(rng):
    # diag(-bottom, -top): each block is the Gram sum of the N independent
    # crossing placements, so the window is not singular; the margin is 0
    # only through min(0, lambda_min).
    for _ in range(12):
        spec = random_spec(rng)
        split = random_split(rng, spec.degree, 60)
        window = certificate_windows(spec, *split)[3]
        assert np.linalg.eigvalsh(dense_window(*window))[0] > 0.0, spec
        assert check_bracketing(spec, *split).delta_nn == 0.0


@pytest.mark.parametrize(
    "factors", [[(0.0, 1)], [(0.0, 2)], [(1.0, 1), (2.5, 2)], [(0.0, 1), (2.0, 1)]]
)
def test_corner_entry_off_by_1e_6_fails(monkeypatch, factors):
    # A real negative margin must not hide behind the grid pass around 0.
    # The lower window's top corner is -T_N(g) - bottom, so an entry of the
    # bottom corner reaches the engine, and the window stays a mirror one.
    exact = spectra._window_corners

    def perturbed(spec, left, right):
        top, bottom = exact(spec, left, right)
        bottom = bottom.copy()
        bottom[0, 0] += 1e-6
        return top, bottom

    monkeypatch.setattr(spectra, "_window_corners", perturbed)
    spec = make_symbol(factors)
    report = check_bracketing(spec, 9, 11)
    assert not report.verdicts["lower"] and not report.all_hold
    floor1, floor2, lower, delta_nn = (
        np.linalg.eigvalsh(dense_window(*w))[0] for w in certificate_windows(spec, 9, 11)
    )
    assert lower < -1e-7
    expected = {
        "floor_nn": min(floor1, floor2),
        "nn_vs_0n": min(0.0, delta_nn),
        "lower": min(0.0, lower),
        "upper": min(0.0, lower),
    }
    whole = toeplitz_finite(fourier_coefficients(spec), 20)
    tol = 1e-12 * max(1.0, whole.row_sum_norm())
    for name, value in expected.items():
        assert abs(report.margins[name] - value) <= tol, name


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 1)]), 512, 512),
        lambda: spectral_gap(make_symbol([(0.0, 1)]), 2048),
    ],
    ids=["check_bracketing", "spectral_gap"],
)
def test_no_window_is_built(call):
    # A dense window takes 16 MB at size 1024 and 64 MB at size 2048.
    assert _peak_bytes(call) < 4 * 2**20


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
        # A NaN distance from the circle fails the test too, as inf does.
        for node in (complex(math.nan, math.nan), complex(math.inf, 0.0), complex(0.0, -math.inf)):
            with pytest.raises(ValueError, match="unit circle"):
                confluent_vandermonde_abs([node, 1.0], [1, 1])
        # No nodes: refused before the off-circle test reduces an empty array.
        with pytest.raises(ValueError, match="at least one node"):
            confluent_vandermonde_abs([], [])

    @pytest.mark.parametrize("mults", [[1], [1, 0]], ids=["one-too-few", "zero"])
    def test_one_positive_multiplicity_per_node(self, mults):
        with pytest.raises(ValueError, match="one positive multiplicity per node"):
            confluent_vandermonde_abs([1.0, -1.0], mults)


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
        # Above about 2**n * L = 2000 a nudge can leave an angle within the
        # rounding of angle + shift of the bound; the sizes up to 16384
        # check the absolute allowance that covers it.
        for top in (200, 16384):
            for _ in range(40):
                n = int(rng.integers(1, 6))
                size = int(rng.integers(max(n, 2), top + 1))
                angles = sorted(rng.uniform(0.0, TWO_PI, n))
                if n > 1 and min(np.diff(angles)) < 1e-6:
                    continue
                shift = grid_shift(angles, size)
                bound = TWO_PI / (2**n * size)
                assert exhaustive_grid_distance(angles, shift, size) >= bound * (1 - 1e-9)

    def test_duplicate_angles_rejected(self):
        with pytest.raises(ValueError):
            grid_shift([1.0, 1.0], 10)
        # No angles: refused before the first one is read as the anchor.
        with pytest.raises(ValueError, match="at least one angle"):
            grid_shift([], 10)

    def test_grid_size_must_be_positive(self):
        with pytest.raises(ValueError, match="grid size must be positive"):
            grid_shift([0.5], 0)

    @pytest.mark.parametrize(
        "angles",
        [[math.nan], [0.5, math.nan], [math.inf], [-math.inf], [0.5, 2.0, -math.inf]],
        ids=["nan", "second-nan", "inf", "minus-inf", "third-minus-inf"],
    )
    def test_non_finite_angles_rejected(self, angles):
        # Not a NaN shift, nor the unreachable nudge failure, nor a math
        # domain error from reducing inf.
        with pytest.raises(ValueError, match="is not a finite number"):
            grid_shift(angles, 8)

    @pytest.mark.parametrize("angles", [[1.0, 1.0 + 5e-13], [TWO_PI, 1e-13]], ids=["close", "across-wrap"])
    def test_angles_within_the_angle_tolerance_rejected(self, angles):
        # The same circular rule as make_symbol: within ANGLE_TOL, either
        # way round the circle, two angles count as one.
        with pytest.raises(ValueError, match="pairwise distinct"):
            grid_shift(angles, 10)


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
            floor = sampled_gap_floor(spec, size, seed=7)
            assert gap >= floor - 1e-9 * max(1.0, floor)

    @pytest.mark.parametrize("alpha", [1, 3])
    def test_floor_in_product_form(self, alpha):
        # Summed from the coefficient row, floor * L**6 of 0:3 would read
        # 961.5, 2048, 131072 and 0.0 at L = 256, 1024, 2048 and 4096.  In
        # product form only the rounding of x - E grows near the zero, to a
        # relative error of about 2 * alpha * L * eps.
        spec = make_symbol([(0.0, alpha)])
        eps = np.finfo(np.float64).eps
        for size in (8, 16, 64, 256, 1024, 2048, 4096, 16384):
            scaled = sampled_gap_floor(spec, size) * size ** (2 * alpha)
            exact = (4.0 * math.sin(math.pi / (2 * size)) ** 2) ** alpha * size ** (2 * alpha)
            assert abs(scaled - exact) <= 4 * alpha * size * eps * exact, size

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
            floor = float(np.min(evaluate_symbol(spec, TWO_PI * np.arange(1, size + 1) / size)))
            assert gap >= floor - 1e-9 * max(1.0, abs(floor))

    def test_corrupted_window_fails_kernel_check(self, monkeypatch):
        def corrupted(spec, left, right):
            top, bottom = _window_corners(spec, left, right)
            top = top.copy()
            top[0, 0] += 1e-3
            return top, bottom

        monkeypatch.setattr(spectra, "_window_corners", corrupted)
        for factors in ([(0.0, 1)], [(0.0, 2)], [(1.0, 1), (2.5, 2)]):
            with pytest.raises(KernelMismatchError):
                spectral_gap(make_symbol(factors), 24)

    def test_nan_kernel_vector_fails_kernel_check(self, monkeypatch):
        def poisoned(spec, size):
            basis = kernel_basis(spec, size)
            basis[-1] = np.full(size, np.nan, dtype=complex)
            return basis

        monkeypatch.setattr(spectra, "kernel_basis", poisoned)
        with pytest.raises(KernelMismatchError):
            spectral_gap(make_symbol([(0.0, 2)]), 24)

    def test_modulation_invariance_of_spectrum(self, rng):
        for _ in range(5):
            spec = random_spec(rng, max_factors=2, max_mult=2)
            size = 2 * spec.degree + 5
            delta = float(rng.uniform(0.3, 5.5))
            ev = eigenvalues(build_restricted(spec, size, N_KIND, N_KIND)).values
            ev_shifted = eigenvalues(
                build_restricted(
                    make_symbol([(e + delta, mult) for e, mult in spec.factors]), size, N_KIND, N_KIND
                )
            ).values
            assert_allclose(ev, ev_shifted, atol=1e-9 * max(1.0, ev.max()))

    def test_enclosure_holds_the_engine_gap(self):
        # The engine's midpoint lies within its width w of lambda_min.
        for spec, sizes in enclosure_symbols():
            c = stencil(spec)
            width = 8 * (spec.degree + 1) * symbols._EPS * max(1.0, float(np.abs(fourier_coefficients(spec).a).sum()))
            for size, gap in zip(sizes, spectra._gaps(spec, sizes)):
                lower, upper = spectra._enclosure(spec, c, size)
                assert lower <= upper, (spec, size)
                assert lower - width <= gap <= upper + width, (spec, size)

    def test_enclosure_holds_the_factor_svd(self):
        # T_{L-N}(g) = C C*, C the (L-N) x L matrix of the stencil
        # placements, so the gap is sigma_min(C)**2; LAPACK's sigma is
        # within about (L-N) * eps * ||C|| <= (L-N) * eps * ||c||_1.
        linalg = pytest.importorskip("scipy.linalg")
        checked = 0
        for spec, sizes in enclosure_symbols():
            c = stencil(spec)
            n = spec.degree
            for size in (s for s in sizes if s <= 512):
                m = size - n
                factor = np.zeros((m, size), dtype=complex)
                for i in range(m):
                    factor[i, i : i + n + 1] = c
                sigma = linalg.svdvals(factor)[-1]
                slack = m * symbols._EPS * float(np.abs(c).sum())
                lower, upper = spectra._enclosure(spec, c, size)
                assert lower <= (sigma + slack) ** 2, (spec, size)
                assert (sigma - slack) ** 2 <= upper, (spec, size)
                checked += 1
        assert checked > 300


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

    def test_no_sizes_fails_like_one_size(self):
        # The engine takes an empty batch; the slope fit refuses it.
        assert spectra.lambda_mins([]) == []
        for sizes in ([16], []):
            with pytest.raises(ValueError, match="two sizes"):
                gap_scan(make_symbol([(0.0, 1)]), sizes)


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

    @pytest.mark.parametrize("row", [(math.nan, 1.0, 1.0), (math.inf, -4.0, 1.0)])
    def test_non_finite_row_is_refused(self, row):
        # A NaN floor must not read as a certificate that holds.
        with pytest.raises(ValueError, match="not all finite"):
            check_bracketing_penta(*row, 8, 8)

# The multisection engine behind ``spectra``, through its one entry,
# ``lambda_mins``, and past it into ``_pass``, ``_multisection``,
# ``_SWEEP`` and the jobs they share: pass counts, the grid pass around 0,
# the look-ahead twins, the passes a gap enclosure decides, batches and
# the meet in the middle, with the engine's two oracles, one uniform pass
# per row loop (:func:`uniform_multisection`) and the plain twisted
# recurrence (:func:`reference_meet`); and the check that no certificate
# or gap calls the dense Jacobi reference.  Everything from here to the
# end of the file tests the engine, and goes with it.


ENGINE_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 2)]), 20, 23),
        lambda: check_bracketing(
            make_symbol([(0.0, 2)]), 7, 7, neumann=BoundaryKind.CLASSIC_NEUMANN
        ),
        lambda: check_bracketing_penta(2.0, -1.5, 0.75, 6, 9),
        lambda: spectral_gap(make_symbol([(0.0, 1), (2.0, 2)]), 30),
        lambda: gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32]),
    ],
    ids=["check_bracketing", "check_classic", "check_bracketing_penta", "spectral_gap", "gap_scan"],
)


@ENGINE_CALLS
def test_one_row_loop_per_arithmetic_kind(monkeypatch, call):
    # All windows of a certificate, or all sizes of a scan, share a row loop.
    kinds = []
    row_loop = multisection._multisection

    def spy(jobs):
        kinds.append(np.iscomplexobj(jobs[0][0]))
        row_loop(jobs)

    monkeypatch.setattr(multisection, "_multisection", spy)
    call()
    assert kinds and len(kinds) == len(set(kinds))


@ENGINE_CALLS
def test_certificates_and_gaps_never_call_jacobi(monkeypatch, call):
    # The banded engine reads every margin and gap; Jacobi is a test oracle.
    calls = []
    monkeypatch.setattr(spectra, "eigenvalues", lambda *args, **kwargs: calls.append(args))
    call()
    assert calls == []


@pytest.fixture
def passes(monkeypatch):
    """The arithmetic kind (True: complex) of every engine pass, in order."""
    kinds = []
    one_pass = multisection._pass

    def spy(jobs, shifts):
        kinds.append(np.iscomplexobj(jobs[0][0]))
        return one_pass(jobs, shifts)

    monkeypatch.setattr(multisection, "_pass", spy)
    return kinds


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 2)]), 20, 23),
        lambda: check_bracketing(make_symbol([(0.0, 2)]), 7, 7),
        lambda: check_bracketing(make_symbol([(0.3, 3), (2.0, 3)]), 30, 31),
        lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 1)]), 2048, 2049),
        lambda: check_bracketing_penta(2.0, -1.5, 0.75, 6, 9),
        lambda: check_bracketing_penta(6.0, -4.0, 1.0, 8, 8),
    ],
    ids=["complex", "real", "degree6", "large", "penta", "penta_real"],
)
def test_modified_certificate_takes_one_pass_per_kind(passes, call):
    # Both floor windows and lower have smallest eigenvalue 0, so the grid
    # pass around 0 brackets each to one engine width at once; nn_vs_0n is
    # positive definite and ends after that pass through its min0 stop.
    call()
    assert passes and len(passes) == len(set(passes))


def test_random_modified_certificates_take_one_pass_per_kind(monkeypatch, passes, rng):
    # A grid pass gives no estimate, so no pass carries a twin job: the
    # passes of a certificate carry its own four windows, each once.
    jobs = []
    one_pass = multisection._pass

    def spy(batch, shifts):
        jobs.extend(batch)
        return one_pass(batch, shifts)

    monkeypatch.setattr(multisection, "_pass", spy)
    for _ in range(12):
        spec = random_spec(rng, max_factors=4, max_mult=3)
        passes.clear()
        jobs.clear()
        check_bracketing(spec, *random_split(rng, spec.degree, 300))
        assert passes and len(passes) == len(set(passes)), spec
        assert len(jobs) == len({id(job) for job in jobs}) == 4, spec


@pytest.mark.parametrize(
    "call,margins",
    [
        (
            lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 1)]), 2048, 2049),
            ["-0x1.7fae9248e17a6p-45", "0x0.0p+0", "-0x1.7fae9248e17a6p-45"],
        ),
        (
            lambda: check_bracketing(make_symbol([(0.3, 3), (2.0, 3)]), 64, 64),
            ["-0x1.4fdd27fc555dcp-36", "0x0.0p+0", "0x0.0p+0"],
        ),
        (
            lambda: check_bracketing(
                make_symbol([(0.34, 3), (1.79, 1), (3.24, 2), (5.07, 2)]), 200, 201
            ),
            ["-0x1.4e2dbb2ee1594p-40", "0x0.0p+0", "-0x1.4e2dbb2ee1594p-40"],
        ),
        (
            lambda: check_bracketing(
                make_symbol([(0.5, 3), (2.1, 2), (3.7, 3), (5.2, 2)]), 150, 151
            ),
            ["-0x1.d57395e77cfd0p-39", "0x0.0p+0", "-0x1.38f7b944fdf19p-40"],
        ),
        (
            lambda: check_bracketing_penta(6.0, -4.0, 1.0, 8, 8)[0],
            ["-0x1.6800000000000p-44", "0x0.0p+0", "-0x1.6800000000000p-44"],
        ),
    ],
    ids=["large", "degree6", "degree8", "degree10", "penta_real"],
)
def test_modified_certificates_keep_their_margins_in_nine_shifts(monkeypatch, call, margins):
    # Each of the four windows takes one pass, of the 9 shifts k * w for
    # |k| <= 4, so a wider grid fails here instead of passing as a silent
    # slowdown.  The grid also decides where a margin lands within w, so
    # the bits of floor_nn, nn_vs_0n and lower (upper is lower) are pinned.
    widths = []
    one_pass = multisection._pass

    def spy(jobs, shifts):
        widths.append([len(s) for s in shifts])
        return one_pass(jobs, shifts)

    monkeypatch.setattr(multisection, "_pass", spy)
    report = call()
    assert sum(widths, []) == [9, 9, 9, 9]
    assert report.all_hold
    assert [report.floor_nn.hex(), report.delta_nn.hex(), report.delta_lower.hex()] == margins


def test_gap_scan_keeps_its_passes_and_values(passes):
    # Gap windows have no corners and start inside their enclosure: every
    # bit of each gap is that of the uniform [0, r] multisection, which
    # takes 10 row loops where the look-ahead's twin jobs take 7 and the
    # enclosure and the twins together 6.
    report = gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32])
    assert passes == [False] * 6
    assert [g.hex() for _, g in report.records] == [
        "0x1.fb8ccbaa2fa00p-4",
        "0x1.f68a03b80a000p-8",
        "0x1.f5124ec8e0000p-12",
    ]
    passes.clear()
    _, gap = spectral_gap(make_symbol([(0.0, 1), (2.0, 2)]), 30)
    assert len(passes) == 5
    assert gap.hex() == "0x1.ca2aad93147c9p-10"


@pytest.mark.parametrize(
    "sizes", [[8, 16, 32, 64, 128, 256], list(range(8, 257))], ids=["doubling", "every_size"]
)
def test_laplacian_scan_takes_at_most_three_row_loops(passes, sizes):
    # For 0:1 the sampling bound and the quotient both equal the gap in
    # exact arithmetic, so the enclosure decides every pass down to about
    # 64 w, where the twins take over; without it the scan takes 8.
    gap_scan(make_symbol([(0.0, 1)]), sizes)
    assert 0 < len(passes) <= 3


def test_enclosed_gaps_match_the_uniform_engine(monkeypatch):
    # Each gap window starts inside its enclosure, which decides passes
    # without a row loop, and runs a twin from its first row loop.  Every
    # gap is bitwise that of the engine without an enclosure, one uniform
    # pass per row loop from [0, r].
    decided = []
    enclose = multisection._enclose

    def spy(job, lower, upper):
        start = job[5:7]
        enclose(job, lower, upper)
        decided.append(job[5:7] != start)

    monkeypatch.setattr(multisection, "_enclose", spy)
    for spec, sizes in enclosure_symbols():
        coeffs = fourier_coefficients(spec)
        enclosed = spectra._gaps(spec, sizes)
        with monkeypatch.context() as patch:
            patch.setattr(multisection, "_multisection", uniform_multisection)
            plain = lambda_mins([(coeffs, size - spec.degree, None) for size in sizes])
        assert [g.hex() for g in enclosed] == [g.hex() for g in plain], (spec, sizes)
    # The enclosure decided at least the first pass of 268 of the 316
    # windows; all but one of the others have the smallest size, L = 2N+1,
    # and an enclosure that holds a shift r*k/32 of the first pass (for
    # 0:1 at L = 3, the gap 1 is itself the shift 8 * 4/32).
    assert sum(decided) > 0.8 * len(decided)


def test_an_enclosure_that_is_not_one_decides_nothing(passes):
    # lower > upper, or NaN, leaves the window to the row loops, which
    # reach the engine's own bits in as many row loops.
    coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
    plain = lambda_mins([(coeffs, 60, None)])[0]
    loops = len(passes)
    for enclosure in ((1e-3, 1e-4), (math.nan, 1.0), (0.0, math.nan)):
        passes.clear()
        assert lambda_mins([(coeffs, 60, None, enclosure)])[0].hex() == plain.hex()
        assert len(passes) == loops


@pytest.mark.parametrize("factors", [[(0.0, 2)], [(1.0, 1), (2.5, 2)]], ids=["real", "complex"])
def test_an_enclosure_a_few_widths_off_keeps_every_bit(passes, factors):
    # The enclosure's rounding allowances are estimates; the engine widens
    # it by 64 stopping widths w on each side, so one that misses
    # lambda_min by up to 48 w still leaves every bit, in fewer row loops.
    # A widening of 16 w or less fails here.
    coeffs = fourier_coefficients(make_symbol(factors))
    width = multisection._window_setup(coeffs, None)[2]
    plain = lambda_mins([(coeffs, 60, None)])[0]
    loops = len(passes)
    for k in (-48, -16, -4, 4, 16, 48):
        passes.clear()
        off = plain + k * width
        assert lambda_mins([(coeffs, 60, None, (off, off))])[0].hex() == plain.hex(), k
        assert len(passes) < loops


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
            assert abs(lambda_mins([(coeffs, m, None)])[0] - ref) <= tol, (spec.factors, m)

    @pytest.mark.parametrize("size", [512, 1024, 4096])
    def test_path_laplacian_gap_at_large_sizes(self, size):
        coeffs = fourier_coefficients(make_symbol([(0.0, 1)]))
        exact = 4.0 * math.sin(math.pi / (2 * size)) ** 2
        assert abs(lambda_mins([(coeffs, size - 1, None)])[0] - exact) <= 1e-12 * 4.0

    @pytest.mark.parametrize("pair", ["00", "nn", "dd", "cc"])
    def test_corner_windows_against_lapack(self, pair):
        # A window with the same kind at both edges is the Toeplitz body plus
        # its top corner and that corner's mirror, which is all the engine
        # reads.  Mixed pairs are not mirror windows; test_boundary.py pins
        # their bandwidth and Hermitian symmetry.
        kind = BoundaryKind.from_code(pair[0])
        for spec in _window_specs(pair):
            coeffs = fourier_coefficients(spec)
            top, _ = _window_corners(spec, kind, kind)
            for size in (2 * spec.degree + 1, 2 * spec.degree + 2, 33):
                window = hermitian(_window(spec, size, pair))
                ref = np.linalg.eigvalsh(window.entries)[0]
                tol = 1e-12 * max(1.0, window.row_sum_norm())
                value = lambda_mins([(coeffs, size, top)])[0]
                assert abs(value - ref) <= tol, (spec, size)

    def test_deterministic(self):
        coeffs = fourier_coefficients(make_symbol([(1.0, 1), (2.5, 2)]))
        first = lambda_mins([(coeffs, 97, None)])
        assert lambda_mins([(coeffs, 97, None)]) == first

    @pytest.mark.parametrize("factors", [[(0.0, 1)], [(0.0, 2)], [(0.4, 1), (2.0, 2), (4.1, 1)]])
    def test_smallest_window(self, factors):
        # L = 2N+1 leaves m = N+1 rows, below the size toeplitz_finite accepts.
        spec = make_symbol(factors)
        n = spec.degree
        coeffs = fourier_coefficients(spec)
        ref = np.linalg.eigvalsh(dense_toeplitz(coeffs, n + 1))[0]
        tol = 1e-12 * max(1.0, float(np.abs(coeffs.a).sum()))
        value = lambda_mins([(coeffs, n + 1, None)])[0]
        assert abs(value - ref) <= tol
        _, gap = spectral_gap(spec, 2 * n + 1)
        assert gap == value

    # N = 1, m = 2: [[1/8 + t, -1/8], [-1/8, 1/8 + t]] has smallest
    # eigenvalue t, exactly.  Its row-sum bound is below 1, so the engine
    # width is w = 8 * 2 * eps = 2**-48 and every k * w below is exact.
    W = 2.0**-48

    @staticmethod
    def dyadic_window(t, expect):
        coeffs = BandedCoeffs(np.array([-0.125, 0.25 + t, -0.125]))
        corner = np.array([[-0.125]])
        return coeffs, 2, corner, expect

    @pytest.mark.parametrize("expect", ["zero", "min0"])
    @pytest.mark.parametrize("k", [0, 4, -4, 5, -5, 16, -16, 17, -17])
    def test_seeded_first_pass_edges(self, passes, expect, k):
        # The grid pass tests k * w for |k| <= 4, its end points included:
        # lambda_min = -4w fails its lowest shift and falls back to
        # [-r, -4w]; 5w passes its highest and falls back to [4w, r],
        # except for "min0", which stops there and reports 0.  |k| = 16
        # and 17 lie well outside the grid.
        window = self.dyadic_window(k * self.W, expect)
        dense = dense_window(*window)
        assert np.abs(dense).sum(axis=1).max() < 1.0
        exact = k * self.W
        ref = np.linalg.eigvalsh(dense)[0]
        value = lambda_mins([window])[0]
        assert abs(value - ref) <= 1e-12
        if expect == "min0":
            assert abs(value - min(0.0, exact)) <= self.W
            assert value == 0.0 or k <= 0
        else:
            assert abs(value - exact) <= self.W
        one_pass = -4 < k <= 4 or (expect == "min0" and k > 0)
        assert (len(passes) == 1) == one_pass, passes

    def test_grid_step_wider_than_w_still_ends_the_pass(self, passes):
        # At r = 2.25 the grid points 2w and 3w round apart by more than w;
        # a sign change between them still ends the multisection.
        t = 2.5 * 16 * np.finfo(np.float64).eps * 2.25
        coeffs = BandedCoeffs(np.array([-0.375, 0.75 + t, -0.375]))
        corner = np.array([[-0.375]])
        w = 16 * np.finfo(np.float64).eps * (float(np.abs(coeffs.a).sum()) + 0.75)
        grid = w * np.arange(-16, 17)
        assert grid[19] - grid[18] > w
        window = (coeffs, 2, corner, "zero")
        value = lambda_mins([window])[0]
        assert len(passes) == 1
        assert value == 0.5 * (grid[18] + grid[19])
        assert abs(value - np.linalg.eigvalsh(dense_window(*window))[0]) <= 1e-12 * 2.25

    def test_seeded_window_far_below_zero(self, passes):
        # The classic lower window of (2 - 2cos x)**2 at 7,7 sits near -0.4721.
        spec = make_symbol([(0.0, 2)])
        window = certificate_windows(spec, 7, 7, BoundaryKind.CLASSIC_NEUMANN)[2]
        ref = np.linalg.eigvalsh(dense_window(*window))[0]
        assert ref == pytest.approx(-0.4721359549995, abs=1e-12)
        tol = 1e-12 * max(1.0, float(np.abs(window[0].a).sum()))
        assert abs(lambda_mins([window])[0] - ref) <= tol
        assert len(passes) > 2

    def test_full_rank_min0_window_reports_zero(self, passes):
        # nn_vs_0n of (2 - 2cos x)(2 - 2cos(x - 2)) is positive definite on
        # its 2N rows: only min(0, lambda_min) = 0 is wanted, in one pass.
        spec = make_symbol([(0.0, 1), (2.0, 1)])
        window = certificate_windows(spec, 7, 9)[3]
        assert np.linalg.eigvalsh(dense_window(*window))[0] > 0.3
        assert lambda_mins([window])[0] == 0.0
        assert len(passes) == 1
        assert check_bracketing(spec, 7, 9).delta_nn == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_composition_changes_no_result(self, monkeypatch, rng, n):
        # Real and complex windows, without corners, with corners and with
        # corners on a zero row, on one row loop: each result is bitwise
        # that of the window run alone.
        # Each row loop runs one arithmetic kind, real windows in float64:
        # complex / real division can round differently from real / real.
        dtypes = []
        row_loop = multisection._multisection

        def spy(jobs):
            dtypes.append({job[0].dtype for job in jobs})
            row_loop(jobs)

        monkeypatch.setattr(multisection, "_multisection", spy)
        batches, local = seeded_batches(rng, n)
        for windows in batches:
            alone = [lambda_mins([w])[0].hex() for w in windows]
            dtypes.clear()
            assert [x.hex() for x in lambda_mins(windows)] == alone
            assert dtypes == [{np.dtype(np.float64)}, {np.dtype(np.complex128)}]
            assert [x.hex() for x in lambda_mins(windows[::-1])] == alone[::-1]
        # A gap scan is one batch too: spectral_gap, its one-size case, gives
        # bitwise the record of each size.
        for factors in ([(0.0, n)], [(float(local.uniform(0.1, 3.0)), n)]):
            spec = make_symbol(factors)
            report = gap_scan(spec, [4 * n, 8 * n, *local.integers(2 * n + 1, 200, 4).tolist()])
            assert [spectral_gap(spec, s)[1].hex() for s, _ in report.records] == [
                g.hex() for _, g in report.records
            ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_do_not_depend_on_when_columns_leave(self, monkeypatch, rng, n):
        # Retired and ended columns leave the block at end rows and every
        # _SWEEP rows.  Leaving after every row, or only at end rows, must
        # give every result bitwise as it is.
        batches, _ = seeded_batches(rng, n)
        results = []
        for sweep in (multisection._SWEEP, 1, 10**6):
            monkeypatch.setattr(multisection, "_SWEEP", sweep)
            results.append([[x.hex() for x in lambda_mins(w)] for w in batches])
        assert results[1] == results[0]
        assert results[2] == results[0]

    @pytest.mark.parametrize("sweep", [16, 1])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_look_ahead_changes_no_result(self, monkeypatch, passes, rng, n, sweep):
        # Each row loop also runs, as a twin job, the pass after it on the
        # bracket its pivots predict.  Every result is bitwise that of one
        # uniform pass per row loop, in fewer row loops, also when retired
        # columns leave between a twin's rows q and p (sweep 1).
        monkeypatch.setattr(multisection, "_SWEEP", sweep)
        batches, _ = seeded_batches(rng, n)
        results, loops = [], []
        for engine in (multisection._multisection, uniform_multisection):
            monkeypatch.setattr(multisection, "_multisection", engine)
            passes.clear()
            results.append([[x.hex() for x in lambda_mins(w)] for w in batches])
            loops.append(len(passes))
        assert results[0] == results[1]
        assert loops[0] < loops[1]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: check_bracketing(make_symbol([(0.3, 2), (2.0, 1)]), 20, 23),
            lambda: check_bracketing(make_symbol([(0.0, 2)]), 9, 12),
            lambda: gap_scan(make_symbol([(1.0, 1), (2.5, 2)]), [16, 24, 40]),
        ],
        ids=["complex", "real", "gap_scan"],
    )
    def test_windows_of_one_row_and_corner_share_read_only_arrays(self, monkeypatch, call):
        # Both floors of a certificate, and all sizes of a gap scan, differ
        # only in m: their jobs share one template, T_N(g) and grid, which
        # no pass may write.
        first_pass = []
        one_pass = multisection._pass

        def spy(jobs, shifts):
            if not first_pass:
                first_pass.extend(list(job) for job in jobs)
            return one_pass(jobs, shifts)

        monkeypatch.setattr(multisection, "_pass", spy)
        call()
        shared = first_pass[:2] if len(first_pass) == 4 else first_pass
        for k in (0, 3, 7):
            if shared[0][k] is None:
                continue  # a gap window has no grid
            assert all(job[k] is shared[0][k] for job in shared)
        for job in first_pass:
            for array in (job[0], job[3], job[7]):
                if array is not None:
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array[(0,) * array.ndim] = 0.0


def scan_gaps(factors, sizes):
    return [g for _, g in gap_scan(make_symbol(factors), sizes).records]


@pytest.mark.parametrize(
    "call,fewer",
    [
        (lambda: scan_gaps([(0.0, 3)], [1024, 2048, 4096]), False),
        (lambda: scan_gaps([(1.0, 2), (1.0001, 1)], [1024, 2048, 4096]), False),
        # A complex three-factor scan over 8..256, as in the gap-scan
        # benchmark, on which twins whose shifts all pass are dropped.
        (
            lambda: scan_gaps(
                [(1.4485082373978546, 1), (3.542451982324839, 1), (5.510446367681306, 1)],
                [8, 16, 32, 64, 128, 256],
            ),
            True,
        ),
        (lambda: check_bracketing(make_symbol([(0.0, 2)]), 7, 7, neumann=_CLASSIC), True),
        (lambda: check_bracketing(make_symbol([(0.0, 3)]), 9, 11, neumann=_CLASSIC), True),
        (lambda: check_bracketing(make_symbol([(1.0, 1), (-1.0, 1)]), 16, 18, neumann=_CLASSIC), True),
    ],
    ids=["gap_0_3", "gap_near_confluent", "gap_three_factors", "classic_0_2", "classic_0_3", "classic_pair"],
)
def test_look_ahead_matches_uniform_passes(monkeypatch, passes, call, fewer):
    # Gaps at the engine's stopping width, whose pivots are rounding noise
    # and predict nothing, a scan whose gaps they do predict, and failing
    # classic margins (min0 windows included), which fall back to uniform
    # passes after their grid pass: bitwise the values of one uniform pass
    # per row loop, all but the first two in fewer row loops.
    values, loops = [], []
    for engine in (multisection._multisection, uniform_multisection):
        monkeypatch.setattr(multisection, "_multisection", engine)
        passes.clear()
        out = call()
        if isinstance(out, spectra.BracketReport):
            assert not out.all_hold
            out = list(out.margins.values())
        values.append([x.hex() for x in out])
        loops.append(len(passes))
    assert values[0] == values[1]
    assert loops[0] < loops[1] if fewer else loops[0] <= loops[1]


def seeded_batches(rng, n):
    """Two batches of windows of half-bandwidth n, real and complex, without
    corners, with corners and with corners on a zero row, each also seeded
    at 0, plus certificate windows; and the generator that drew the latter."""

    def hermitian_block(real):
        x = rng.normal(size=(n, n)) + (0.0 if real else 1j * rng.normal(size=(n, n)))
        return (x + x.conj().T) / 2

    local = np.random.default_rng(n)
    batches = []
    for _ in range(2):
        windows = []
        # Both kinds with every corner shape; the first window ends
        # before the second reaches its middle row.
        for j, m in enumerate((n + 1, 200, *rng.integers(2 * n, 201, 6))):
            real, shape = j % 2 == 0, j // 2
            k = int(rng.integers(1, n + 1))
            if real:
                factors = [(0.0, k)] + ([(math.pi, n - k)] if k < n else [])
            else:
                factors = [(float(rng.uniform(0.1, 3.0)), n)]
            coeffs = fourier_coefficients(make_symbol(factors))
            top = None
            if shape == 1:
                top = -np.eye(n)  # a definite corner beside the indefinite ones
            elif shape > 1:
                top = hermitian_block(real)
            if shape == 3:
                coeffs = BandedCoeffs(np.zeros_like(coeffs.a))
            windows.append((coeffs, int(m), top))
        # The same windows seeded at 0, and certificate windows, whose
        # grid pass closes at once, next to ones that fall back.
        windows += [w + (("zero", "min0")[j % 2],) for j, w in enumerate(windows)]
        for factors in ([(0.0, n)], [(float(local.uniform(0.1, 3.0)), n)]):
            split = local.integers(2 * n + 1, 60, 2)
            windows += certificate_windows(make_symbol(factors), *split)
        batches.append(windows)
    return batches, local


def uniform_multisection(jobs: list[list]) -> None:
    """``multisection._multisection`` without its look-ahead: one level per row loop.

    Each pass of :func:`multisection._pass` tests a job's grid if it has one,
    else the 31 equispaced interior shifts of its bracket, and narrows the
    bracket to the two shifts around its count.  A job stops when its
    bracket is no wider than its tolerance, lies at or above its cap, or
    its grid pass found the sign change inside the grid.
    """
    jobs = [job for job in jobs if multisection._open(job)]
    while jobs:
        shifts = [job[5] + (job[6] - job[5]) * multisection._STEPS if job[7] is None else job[7] for job in jobs]
        remaining = []
        for job, s, count in zip(jobs, shifts, multisection._pass(jobs, shifts)):
            if count > 0:
                job[5] = float(s[count - 1])
            if count < len(s):
                job[6] = float(s[count])
            closed = job[7] is not None and 0 < count < len(s)
            job[7] = None
            if not closed and multisection._open(job):
                remaining.append(job)
        jobs = remaining


def reference_meet(job, shifts):
    """Oracle: the twisted recurrence of one mirror window, written plainly.

    The block is (S, N+1, N+1) with the shifts on its first axis, every row
    allocates its temporaries, and no shift ever leaves.  Rows 0..p-1 run
    forward, S_q is copied at the start of row q, and row p starts from the
    meeting block S_p + J conj(S_q) J - T_N(g) + s*I, whose N pivot steps
    end the window.  Returns the count of shifts before the first one with
    a nonpositive pivot, and each shift's first row with one (-1 if none)."""
    template, q, p, body = job[:4]
    n = len(template) - 1
    real = not np.iscomplexobj(template)
    block = template - shifts[:, None, None] * np.eye(n + 1)
    least = np.full(len(shifts), np.inf)
    first_row = np.full(len(shifts), -1)
    diagonal = np.arange(n)
    for i in range(p + n):
        if i == q:
            saved = block[:, :n, :n].copy()
        if i == p:
            block[:, :, n] = block[:, n, :] = 0.0
            block[:, n, n] = 1.0
            mirror = saved[:, ::-1, ::-1]
            middle = block[:, :n, :n] + (mirror if real else np.conj(mirror)) - body
            middle[:, diagonal, diagonal] += shifts[:, None]
            block[:, :n, :n] = middle
        pivots = block[:, 0, 0].real
        first_row[(pivots <= 0.0) & (first_row < 0)] = i
        least = np.fmin(least, pivots)
        v = block[:, 1:, 0]
        w = v if real else np.conj(v)
        with np.errstate(all="ignore"):  # a retired shift may divide by 0
            block[:, :n, :n] = block[:, 1:, 1:] - (v / pivots[:, None])[:, :, None] * w[:, None, :]
    hits = np.flatnonzero(least <= 0.0)
    return (int(hits[0]) if len(hits) else len(shifts)), first_row


class TestMeetAgainstReference:
    """Every window meets in the middle, and _pass counts it exactly as the
    plain twisted recurrence does."""

    @staticmethod
    def mirror_window(local, n, m, real, corners, zero_row):
        """A window with a Hermitian row and, if asked, a random top corner."""
        row = local.normal(size=2 * n + 1)
        if not real:
            row = row + 1j * local.normal(size=2 * n + 1)
        row = np.zeros_like(row) if zero_row else (row + row[::-1].conj()) / 2
        top = None
        if corners:
            x = local.normal(size=(n, n)) + (0.0 if real else 1j * local.normal(size=(n, n)))
            top = (x + x.conj().T) / 2
        return BandedCoeffs(row), m, top

    @staticmethod
    def engine_job(monkeypatch, window):
        """The job that lambda_mins builds for a window, from its first pass."""
        seen = []
        one_pass = multisection._pass

        def spy(jobs, shifts):
            seen.extend(jobs)
            return one_pass(jobs, shifts)

        with monkeypatch.context() as patch:
            patch.setattr(multisection, "_pass", spy)
            lambda_mins([window])
        return seen[0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_match_the_reference(self, monkeypatch, n):
        # Pivot r of W - s*I is the first nonpositive one when s lies
        # between the smallest eigenvalues of W's leading r+1 and r rows, so
        # each shift is aimed at one row: for a row r < p through those
        # leading blocks, and for meeting row p+d between the smallest
        # eigenvalues of the rows {0..p+d-1} and {0..p+d}, each joined with
        # the bottom rows p+N..m-1.  The rows aimed at are the sweep rows
        # and their neighbours, rows q and p and two random rows.  Four
        # shifts sit 2w and 4w on either side of lambda_min, and two below
        # it never retire.  Every third batch has two jobs that end on the
        # same row, and a third job whose shifts all retire before row q.
        local = np.random.default_rng(1300 + n)
        sweeps = {r for k in (1, 2, 3) for r in (16 * k - 1, 16 * k, 16 * k + 1)}
        hit, shared_end, all_retired = set(), False, False
        for batch in range(8):
            jobs, shifts, expected = [], [], []
            for j in range(1 + (batch + n) % 4):
                corners = (batch + j) % 3 > 0
                low = 2 * n if corners or batch % 3 == 0 else n + 1
                if j == 1 and batch % 3 == 0:
                    m = jobs[0][2] + n + jobs[0][1]  # the first job's m
                else:
                    m = int(local.choice([low, low + 1, local.integers(low, 60), local.integers(100, 201)]))
                window = self.mirror_window(
                    local, n, m, batch % 2 == 0, corners, corners and (batch + j) % 3 == 2
                )
                job = self.engine_job(monkeypatch, window)
                q, p = job[1:3]
                assert (q, p) == ((m - n) // 2, (m - n + 1) // 2)
                shared_end |= j == 1 and p == jobs[0][2]
                dense = dense_window(*window)
                bottom_rows = list(range(p + n, m))

                def lam(rows):
                    return np.linalg.eigvalsh(dense[np.ix_(rows, rows)])[0] if rows else math.inf

                lead = [lam(list(range(r))) for r in range(p + 1)]
                middle = [lead[p]] + [lam(list(range(p + d + 1)) + bottom_rows) for d in range(n)]
                rows = {0, q - 1, q, q + 1, p - 1, *sweeps, *local.integers(0, p, 2)}
                rows = sorted(int(r) for r in rows if 0 <= r < p)
                s = [lead[1] + 1.0 if r == 0 else 0.5 * (lead[r] + lead[r + 1]) for r in rows]
                s += [0.5 * (middle[d] + middle[d + 1]) for d in range(n)]
                lam_min, w = middle[n], job[4]
                s += [lam_min + k * w for k in (-4, -2, 2, 4)]
                if j == 2 and q > 0:
                    # Every shift retires before row q.
                    s = np.maximum(s, lead[q] + 1e-6)
                else:
                    s += [lam_min - 1e-3, lam_min - 1.0]
                s = np.sort(s)
                count, first_row = reference_meet(job, s)
                if j == 2 and q > 0:
                    assert count == 0 and 0 <= first_row.min() <= first_row.max() < q
                    all_retired = True
                for r in first_row[first_row >= 0].tolist():
                    hit.add(r if r < p else f"p+{r - p}")
                    hit.update(["q"] if r == q else [])
                # lambda_min is read by eigvalsh, independently of both loops.
                assert np.all(s[:count] < lam_min + 2 * w) and np.all(s[count:] > lam_min - 2 * w)
                jobs.append(job)
                shifts.append(s)
                expected.append(count)
            for kind in (False, True):
                mine = [i for i, job in enumerate(jobs) if np.iscomplexobj(job[0]) == kind]
                if mine:
                    counts = multisection._pass([jobs[i] for i in mine], [shifts[i] for i in mine])
                    assert counts == [expected[i] for i in mine]
        assert shared_end and all_retired
        assert {15, 16, 17, 31, 32, 33} <= hit
        assert {"q", *(f"p+{d}" for d in range(n))} <= hit

    @pytest.mark.parametrize("n", range(1, 7))
    def test_group_meets_after_its_first_job_lost_columns(self, monkeypatch, n):
        # A window and its twin share template, q, p and T_N(g), so _pass
        # copies and meets their columns as one group.  Here the window's
        # upper shifts retire at row q - 1 and leave at the sweep of row
        # q, after the copy and before the meeting at row p = q + 1, so
        # each job must find its own columns in the copy.
        local = np.random.default_rng(1500 + n)
        for real in (True, False):
            m = n + 41  # m - N odd: p = q + 1
            window = self.mirror_window(local, n, m, real, True, False)
            job = self.engine_job(monkeypatch, window)
            q, p = job[1:3]
            assert p == q + 1 and q >= 2
            twin = list(job)
            dense = dense_window(*window)
            lead = [np.linalg.eigvalsh(dense[:r, :r])[0] for r in (q - 1, q)]
            lam_min, w = np.linalg.eigvalsh(dense)[0], job[4]
            below = [lam_min - 1.0, lam_min - 1e-3]
            own = np.sort(below + [0.5 * (lead[0] + lead[1])] * 3)
            ahead = np.sort(below + [lam_min + k * w for k in (-4, -2, 2, 4)])
            expected = [reference_meet(job, own)[0], reference_meet(twin, ahead)[0]]
            assert expected == [2, 4]
            monkeypatch.setattr(multisection, "_SWEEP", q)
            assert multisection._pass([job, twin], [own, ahead]) == expected

    def test_corners_must_not_overlap(self):
        # The meet needs the two corners apart: a window with corners and
        # m = 2N - 1 is refused, while one with corners and m = 2N, and one
        # without corners and m = N + 1, are read like any other window.
        local = np.random.default_rng(1400)
        for n in (2, 3):
            for real in (True, False):
                coeffs, m, top = self.mirror_window(local, n, 2 * n, real, True, False)
                with pytest.raises(ValueError, match="m >= 2N"):
                    lambda_mins([(coeffs, 2 * n - 1, top)])
                # Without corners the bracket starts at 0, so the row is a
                # product symbol's, with T_m(g) >= 0.
                factors = [(0.0, n)] if real else [(float(local.uniform(0.1, 3.0)), n)]
                plain = fourier_coefficients(make_symbol(factors))
                for window in ((coeffs, m, top), (plain, n + 1, None)):
                    dense = dense_window(*window)
                    tol = 1e-12 * max(1.0, np.abs(dense).sum(axis=1).max())
                    value = lambda_mins([window])[0]
                    assert abs(value - np.linalg.eigvalsh(dense)[0]) <= tol
