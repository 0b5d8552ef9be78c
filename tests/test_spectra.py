"""Eigensolver, bracketing certification, kernels, Vandermonde and gap scaling."""

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
from toepbrack.boundary import _window_corners
from conftest import random_spec, random_split
from oracles import certificate_windows, dense_window, dirichlet_from_neumann
from test_boundary import ALL_PAIRS, _window

# The multisection engine's tests live in test_multisection.py, which
# conftest.py keeps out of directory collection; importing them here
# collects each once, under this file's id.  ENGINE_CALLS is shared with
# the Jacobi test below.
from test_multisection import (  # noqa: F401
    ENGINE_CALLS,
    TestBandedLambdaMin,
    TestMeetAgainstReference,
    enclosure_symbols,
    passes,
    test_an_enclosure_a_few_widths_off_keeps_every_bit,
    test_an_enclosure_that_is_not_one_decides_nothing,
    test_enclosed_gaps_match_the_uniform_engine,
    test_gap_scan_keeps_its_passes_and_values,
    test_laplacian_scan_takes_at_most_three_row_loops,
    test_look_ahead_matches_uniform_passes,
    test_modified_certificate_takes_one_pass_per_kind,
    test_modified_certificates_keep_their_margins_in_nine_shifts,
    test_one_row_loop_per_arithmetic_kind,
    test_random_modified_certificates_take_one_pass_per_kind,
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


@ENGINE_CALLS
def test_certificates_and_gaps_never_call_jacobi(monkeypatch, call):
    # The banded engine reads every margin and gap; Jacobi is a test oracle.
    calls = []
    monkeypatch.setattr(spectra, "eigenvalues", lambda *args, **kwargs: calls.append(args))
    call()
    assert calls == []


def test_every_engine_test_is_collected_here():
    # test_multisection.py is not collected on its own, so a test it
    # defines runs in the suite only through the import above.
    import test_multisection

    defined = {name for name in vars(test_multisection) if name.startswith(("test_", "Test"))}
    assert defined <= set(globals())


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
