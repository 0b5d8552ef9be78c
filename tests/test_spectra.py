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
    toeplitz_finite,
)
import toepbrack
from toepbrack import boundary, dirichlet_from_neumann, spectra, symbols
from toepbrack.boundary import _window_corners
from toepbrack.spectra import _banded_lambda_min, _banded_lambda_mins
from conftest import random_spec, random_split
from test_boundary import ALL_PAIRS, _window, _window_specs

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
def test_certificates_and_gaps_never_call_jacobi(monkeypatch, call):
    # The banded engine reads every margin and gap; Jacobi is a test oracle.
    calls = []
    monkeypatch.setattr(spectra, "eigenvalues", lambda *args, **kwargs: calls.append(args))
    call()
    assert calls == []


@ENGINE_CALLS
def test_one_row_loop_per_arithmetic_kind(monkeypatch, call):
    # All windows of a certificate, or all sizes of a scan, share a row loop.
    kinds = []
    row_loop = spectra._multisection

    def spy(jobs):
        kinds.append(np.iscomplexobj(jobs[0][0]))
        row_loop(jobs)

    monkeypatch.setattr(spectra, "_multisection", spy)
    call()
    assert kinds and len(kinds) == len(set(kinds))


@pytest.fixture
def passes(monkeypatch):
    """The arithmetic kind (True: complex) of every engine pass, in order."""
    kinds = []
    one_pass = spectra._pass

    def spy(jobs, shifts):
        kinds.append(np.iscomplexobj(jobs[0][0]))
        return one_pass(jobs, shifts)

    monkeypatch.setattr(spectra, "_pass", spy)
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
    # Every window of a modified certificate has smallest eigenvalue 0, so
    # the grid pass around 0 brackets it to one engine width at once.
    call()
    assert passes and len(passes) == len(set(passes))


def test_random_modified_certificates_take_one_pass_per_kind(passes, rng):
    for _ in range(12):
        spec = random_spec(rng)
        passes.clear()
        check_bracketing(spec, *random_split(rng, spec.degree, 60))
        assert passes and len(passes) == len(set(passes)), spec


def test_gap_scan_keeps_its_passes_and_values(passes):
    # Gap windows have no corners and are not seeded: the pass count and
    # every bit of each gap are those of the uniform [0, r] multisection.
    report = gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32])
    assert passes == [False] * 10
    assert [g.hex() for _, g in report.records] == [
        "0x1.fb8ccbaa2fa00p-4",
        "0x1.f68a03b80a000p-8",
        "0x1.f5124ec8e0000p-12",
    ]
    passes.clear()
    _, gap = spectral_gap(make_symbol([(0.0, 1), (2.0, 2)]), 30)
    assert len(passes) == 10
    assert gap.hex() == "0x1.ca2aad93147c9p-10"


@pytest.fixture
def builds(monkeypatch):
    """Calls of _window_corners and fourier_coefficients, in every module that binds them."""
    counts = {"_window_corners": 0, "fourier_coefficients": 0}
    for name, original in (
        ("_window_corners", boundary._window_corners),
        ("fourier_coefficients", symbols.fourier_coefficients),
    ):
        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in (toepbrack, symbols, boundary, spectra):
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
    assert builds == {"_window_corners": 1, "fourier_coefficients": 1}


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


def certificate_windows(spec, size1, size2, neumann=N_KIND):
    """The four engine windows of check_bracketing: both floors, lower, nn_vs_0n."""
    n = spec.degree
    coeffs = fourier_coefficients(spec)
    top, bottom = spectra._window_corners(spec, neumann, neumann)
    body = dense_toeplitz(coeffs, n)
    zero_row = BandedCoeffs(np.zeros_like(coeffs.a))
    return [
        (coeffs, size1, top, bottom, "zero"),
        (coeffs, size2, top, bottom, "zero"),
        (coeffs, 2 * n, -body - bottom, -body - top, "min0"),
        (zero_row, 2 * n, -bottom, -top, "min0"),
    ]


def dense_window(coeffs, m, top=None, bottom=None, *_):
    """Oracle: the m x m window T_m(g) with its corner blocks added."""
    n = coeffs.half_bandwidth
    out = dense_toeplitz(coeffs, m).astype(complex)
    if top is not None:
        out[:n, :n] += top
    if bottom is not None:
        out[-n:, -n:] += bottom
    return out


@pytest.mark.parametrize(
    "factors", [[(0.0, 1)], [(0.0, 2)], [(1.0, 1), (2.5, 2)], [(0.0, 1), (2.0, 1)]]
)
def test_corner_entry_off_by_1e_6_fails(monkeypatch, factors):
    # A real negative margin must not hide behind the grid pass around 0.
    exact = spectra._window_corners

    def perturbed(spec, left, right):
        top, bottom = exact(spec, left, right)
        top = top.copy()
        top[0, 0] += 1e-6
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

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids="".join)
    def test_corner_windows_against_lapack(self, pair):
        # Every boundary window is the Toeplitz body plus its two corners.
        left, right = (BoundaryKind.from_code(code) for code in pair)
        for spec in _window_specs(pair):
            coeffs = fourier_coefficients(spec)
            corners = _window_corners(spec, left, right)
            for size in (2 * spec.degree + 1, 2 * spec.degree + 2, 33):
                window = hermitian(_window(spec, size, pair))
                ref = np.linalg.eigvalsh(window.entries)[0]
                tol = 1e-12 * max(1.0, window.row_sum_norm())
                assert abs(_banded_lambda_min(coeffs, size, *corners) - ref) <= tol, (spec, size)

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

    # N = 1, m = 2: [[1/8 + t, -1/8], [-1/8, 1/8 + t]] has smallest
    # eigenvalue t, exactly.  Its row-sum bound is below 1, so the engine
    # width is w = 8 * 2 * eps = 2**-48 and every k * w below is exact.
    W = 2.0**-48

    @staticmethod
    def dyadic_window(t, expect):
        coeffs = BandedCoeffs(np.array([-0.125, 0.25 + t, -0.125]))
        corner = np.array([[-0.125]])
        return coeffs, 2, corner, corner, expect

    @pytest.mark.parametrize("expect", ["zero", "min0"])
    @pytest.mark.parametrize("k", [0, 16, -16, 17, -17])
    def test_seeded_first_pass_edges(self, passes, expect, k):
        # The grid pass tests k * w for |k| <= 16, its end points included:
        # lambda_min = -16w fails its lowest shift and falls back to
        # [-r, -16w]; 17w passes its highest and falls back to [16w, r],
        # except for "min0", which stops there and reports 0.
        window = self.dyadic_window(k * self.W, expect)
        dense = dense_window(*window)
        assert np.abs(dense).sum(axis=1).max() < 1.0
        exact = k * self.W
        ref = np.linalg.eigvalsh(dense)[0]
        value = _banded_lambda_min(*window)
        assert abs(value - ref) <= 1e-12
        if expect == "min0":
            assert abs(value - min(0.0, exact)) <= self.W
            assert value == 0.0 or k <= 0
        else:
            assert abs(value - exact) <= self.W
        one_pass = -16 < k <= 16 or (expect == "min0" and k > 0)
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
        window = (coeffs, 2, corner, corner, "zero")
        value = _banded_lambda_min(*window)
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
        assert abs(_banded_lambda_min(*window) - ref) <= tol
        assert len(passes) > 2

    def test_full_rank_min0_window_reports_zero(self, passes):
        # nn_vs_0n of (2 - 2cos x)(2 - 2cos(x - 2)) is positive definite on
        # its 2N rows: only min(0, lambda_min) = 0 is wanted, in one pass.
        spec = make_symbol([(0.0, 1), (2.0, 1)])
        window = certificate_windows(spec, 7, 9)[3]
        assert np.linalg.eigvalsh(dense_window(*window))[0] > 0.3
        assert _banded_lambda_min(*window) == 0.0
        assert len(passes) == 1
        assert check_bracketing(spec, 7, 9).delta_nn == 0.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_composition_changes_no_result(self, monkeypatch, rng, n):
        # Real and complex windows, with and without corners, on one row
        # loop: each result is bitwise that of the window run alone.
        def hermitian_block(real):
            x = rng.normal(size=(n, n)) + (0.0 if real else 1j * rng.normal(size=(n, n)))
            return (x + x.conj().T) / 2

        # Each row loop runs one arithmetic kind, real windows in float64:
        # complex / real division can round differently from real / real.
        dtypes = []
        row_loop = spectra._multisection

        def spy(jobs):
            dtypes.append({job[0].dtype for job in jobs})
            row_loop(jobs)

        monkeypatch.setattr(spectra, "_multisection", spy)
        local = np.random.default_rng(n)
        for _ in range(2):
            windows = []
            # Both kinds with every corner shape; the first window ends
            # before the bottom-corner step of the second.
            for j, m in enumerate((n + 1, 200, *rng.integers(n + 1, 201, 6))):
                real, shape = j % 2 == 0, j // 2
                k = int(rng.integers(1, n + 1))
                if real:
                    factors = [(0.0, k)] + ([(math.pi, n - k)] if k < n else [])
                else:
                    factors = [(float(rng.uniform(0.1, 3.0)), n)]
                coeffs = fourier_coefficients(make_symbol(factors))
                top, bottom = None, None
                if shape > 0:
                    top = hermitian_block(real)
                    # -I would make singular a retired shift kept as identity.
                    bottom = -np.eye(n) if shape == 1 else hermitian_block(real)
                if shape == 3:
                    coeffs = BandedCoeffs(np.zeros_like(coeffs.a))
                windows.append((coeffs, int(m), top, bottom))
            # The same windows seeded at 0, and certificate windows, whose
            # grid pass closes at once, next to ones that fall back.
            windows += [w + (("zero", "min0")[j % 2],) for j, w in enumerate(windows)]
            for factors in ([(0.0, n)], [(float(local.uniform(0.1, 3.0)), n)]):
                split = local.integers(2 * n + 1, 60, 2)
                windows += certificate_windows(make_symbol(factors), *split)
            alone = [_banded_lambda_min(*w).hex() for w in windows]
            dtypes.clear()
            assert [x.hex() for x in _banded_lambda_mins(windows)] == alone
            assert dtypes == [{np.dtype(np.float64)}, {np.dtype(np.complex128)}]
            assert [x.hex() for x in _banded_lambda_mins(windows[::-1])] == alone[::-1]
        # A gap scan is one batch too: spectral_gap, its one-size case, gives
        # bitwise the record of each size.
        for factors in ([(0.0, n)], [(float(local.uniform(0.1, 3.0)), n)]):
            spec = make_symbol(factors)
            report = gap_scan(spec, [4 * n, 8 * n, *local.integers(2 * n + 1, 200, 4).tolist()])
            assert [spectral_gap(spec, s)[1].hex() for s, _ in report.records] == [
                g.hex() for _, g in report.records
            ]


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
