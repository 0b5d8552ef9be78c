"""Eigensolver, bracketing certification, kernels, Vandermonde, gap scaling
and the factor path behind the gaps."""

import decimal
import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

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
from toepbrack import boundary, cli, matrices, spectra, symbols
from toepbrack import _factor
from toepbrack.boundary import _affine_residual, _classic_corner, _gram_delta, _gram_floor, _window_corners
from toepbrack.cli import main
from toepbrack.symbols import _gram_exact, _row_and_stencil
from conftest import random_spec, random_split
from oracles import (
    ALL_PAIRS,
    _window,
    brute_confluent_det,
    certificate_windows,
    dct_grid_floor,
    dense_toeplitz,
    dense_window,
    dirichlet_from_neumann,
    exact_gram_difference,
    exact_residual,
    exhaustive_grid_distance,
    gap_symbols,
    gram_floor_symbols,
    real_symbols,
    stencil_factor,
)

N_KIND = BoundaryKind.MODIFIED_NEUMANN


@pytest.fixture
def factor_calls(monkeypatch):
    """The number of sizes of each call of the gap's factor path, which
    still runs."""
    calls = []
    solve = _factor.smallest_eigenvalues

    def spy(c, factors, ms, jacobi):
        calls.append(len(ms))
        return solve(c, factors, ms, jacobi)

    monkeypatch.setattr(_factor, "smallest_eigenvalues", spy)
    return calls


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


class TestClassicCertificate:
    """A classic certificate's floors are the DCT-II spectrum g(pi*k/L) of
    its windows, its ``lower`` twice its ``nn_vs_0n``, and the latter
    lambda_min of its N x N Hankel corner, from the private corner Jacobi;
    LAPACK, mpmath and the four engine windows the certificate once read
    (``certificate_windows``) are the oracles."""

    C_KIND = BoundaryKind.CLASSIC_NEUMANN

    def test_floor_is_the_windows_smallest_eigenvalue(self):
        # Odd degrees (a factor at pi) and multiplicity 2 included.
        local = np.random.default_rng(3210)
        specs = real_symbols(3211, 30)
        assert {spec.degree % 2 for spec in specs} == {0, 1}
        assert max(spec.alpha_max for spec in specs) == 2
        for spec in specs:
            n, scale = spec.degree, float(np.abs(fourier_coefficients(spec).a).sum())
            sizes = [2 * n + 1, 2 * n + 2, int(local.integers(2 * n + 1, 201))]
            for size in sizes:
                window = build_restricted(spec, size, self.C_KIND, self.C_KIND).entries
                expected = np.linalg.eigvalsh(window)
                grid = np.sort(evaluate_symbol(spec, np.pi * np.arange(size) / size))
                assert np.abs(grid - expected).max() <= 1e-12 * scale, (spec, size)
                assert abs(spectra._dct_floor(spec, [size]) - expected[0]) <= 1e-12 * scale, (spec, size)
            report = check_bracketing(spec, sizes[0], sizes[2], neumann=self.C_KIND)
            assert report.floor_nn == spectra._dct_floor(spec, sizes[::2]) >= 0.0

    def test_adjacent_points_give_the_full_grid_minimum(self):
        # Bit for bit: log g is concave between zeros, so only the grid
        # points next to a zero can hold the minimum.
        local = np.random.default_rng(3220)
        for spec in real_symbols(3221, 300):
            size = int(local.integers(2 * spec.degree + 1, 4097))
            full = evaluate_symbol(spec, np.pi * np.arange(size) / size).min()
            assert spectra._dct_floor(spec, [size]) == full, (spec, size)

    def test_floor_of_several_sizes_is_the_full_grids(self):
        # Bit for bit the full-grid minimum for L <= 4096, one size at a
        # time and all together, as a certificate passes its two: the
        # smallest size 2N+1, the largest 4096, a power of two and seeded
        # sizes between, on symbols with conjugate pairs and zeros at 0
        # and pi, and on the benchmark's kind (pairs b and 2*pi - b).
        local = np.random.default_rng(3403)
        specs = real_symbols(3404, 100) + [
            make_symbol([(b, 1), (TWO_PI - b, 1), (math.pi, 1)]) for b in local.uniform(0.3, 2.8, 20).tolist()
        ]
        for spec in specs:
            low = 2 * spec.degree + 1
            sizes = [low, 4096, 1024, *local.integers(low, 4097, 3).tolist()]
            for size in sizes:
                assert spectra._dct_floor(spec, [size]) == dct_grid_floor(spec, [size]), (spec, size)
            assert spectra._dct_floor(spec, sizes) == dct_grid_floor(spec, sizes), spec

    def test_lower_is_the_split_differences_smallest_eigenvalue(self):
        # Oracle: whole window minus the classic halves, densely.
        local = np.random.default_rng(3230)
        simple = BoundaryKind.SIMPLE
        for spec in real_symbols(3231, 30):
            size1, size2 = random_split(local, spec.degree, 6 * spec.degree + 20)
            whole = toeplitz_finite(fourier_coefficients(spec), size1 + size2)
            halves = direct_sum(
                build_restricted(spec, size1, simple, self.C_KIND),
                build_restricted(spec, size2, self.C_KIND, simple),
            )
            expected = min(0.0, np.linalg.eigvalsh((whole - halves).entries)[0])
            report = check_bracketing(spec, size1, size2, neumann=self.C_KIND)
            scale = float(np.abs(fourier_coefficients(spec).a).sum())
            assert abs(report.delta_lower - expected) <= 1e-12 * scale, (spec, size1, size2)
            assert report.delta_lower == report.delta_upper == 2.0 * report.delta_nn

    def test_verdicts_and_nn_vs_0n_match_the_four_engine_windows(self, factor_calls):
        # The certificate once read all four windows through an eigen
        # engine; every verdict is that of LAPACK's smallest eigenvalues of
        # the four dense windows, with no gap solve, and nn_vs_0n is within
        # 4 * N * eps * ||H||_F of LAPACK's min(0, lambda_min(-H)).
        local = np.random.default_rng(3240)
        failing = 0
        for spec in real_symbols(3241, 100):
            split = random_split(local, spec.degree, 4 * spec.degree + 40)
            report = check_bracketing(spec, *split, neumann=self.C_KIND)
            floor1, floor2, lower, nn = (
                np.linalg.eigvalsh(dense_window(*w))[0] for w in certificate_windows(spec, *split, self.C_KIND)
            )
            parent = {"floor_nn": min(floor1, floor2), "nn_vs_0n": nn, "lower": lower, "upper": lower}
            assert report.verdicts == {k: v >= -report.abs_tol for k, v in parent.items()}, spec
            block = -np.array(_classic_corner(fourier_coefficients(spec)))
            bound = 4 * spec.degree * symbols._EPS * np.linalg.norm(block)
            assert abs(report.delta_nn - min(0.0, np.linalg.eigvalsh(block)[0])) <= bound, spec
            failing += not report.verdicts["lower"]
        assert factor_calls == [] and failing >= 90

    def test_corner_jacobi_matches_lapack_and_mpmath(self):
        # Within 4 * N * eps * ||H||_F of eigvalsh for N = 2..16, and of
        # mpmath at 30 digits for N <= 6.
        mpmath = pytest.importorskip("mpmath")
        specs = real_symbols(3301, 60)
        assert max(spec.degree for spec in specs) == 16
        for spec in specs:
            block = -np.array(_classic_corner(fourier_coefficients(spec)))
            bound = 4 * spec.degree * symbols._EPS * np.linalg.norm(block)
            value = spectra._corner_lambda_min(block.tolist())
            assert abs(value - np.linalg.eigvalsh(block)[0]) <= bound, spec
            if spec.degree <= 6:
                with mpmath.workdps(30):
                    exact = min(mpmath.eigsy(mpmath.matrix(block.tolist()), eigvals_only=True))
                assert abs(value - float(exact)) <= bound, spec

    def test_classic_0_2_nn_vs_0n_is_two_minus_root_five(self):
        # H = [[0, 1], [1, -4]]: lambda_min(-H) = 2 - sqrt(5), to 2 ulps.
        exact = float(2 - decimal.Context(prec=40).sqrt(5))
        report = check_bracketing(make_symbol([(0.0, 2)]), 7, 7, neumann=self.C_KIND)
        assert abs(report.delta_nn - exact) <= 2 * math.ulp(exact)
        assert report.delta_lower == report.delta_upper == 2.0 * report.delta_nn

    @pytest.mark.parametrize(
        "block, expected",
        [
            ([[3.5]], 3.5),
            ([[2.0, 0.0, 0.0], [0.0, -1.25, 0.0], [0.0, 0.0, 5.0]], -1.25),
            (np.ones((3, 3)) + np.eye(3), 1.0),  # eigenvalues 1, 1, 4
            (np.ones((4, 4)) - 2.0 * np.eye(4), -2.0),  # eigenvalues -2 (three times), 2
        ],
        ids=["one_by_one", "diagonal", "tied_pair", "tied_triple"],
    )
    def test_corner_jacobi_edge_blocks(self, block, expected):
        block = np.array(block, dtype=float)
        value = spectra._corner_lambda_min(block.tolist())
        assert abs(value - expected) <= 4 * len(block) * symbols._EPS * np.linalg.norm(block)
        if np.count_nonzero(block - np.diag(np.diag(block))) == 0:
            assert value == expected  # nothing to rotate: the diagonal itself

    def test_laplacian_nn_vs_0n_stays_plus_zero(self):
        # N = 1: -H = [[1]], so min(0, 1) is 0.0, never -0.0, and so are
        # lower and upper.
        report = check_bracketing(make_symbol([(0.0, 1)]), 5, 6, neumann=self.C_KIND)
        for margin in (report.delta_nn, report.delta_lower, report.delta_upper):
            assert margin == 0.0 and math.copysign(1.0, margin) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_corner_jacobi_refuses_a_non_finite_block_at_once(self, monkeypatch, bad):
        # Raised before any sweep: with a budget of 10**6 sweeps, a loop
        # would take seconds.
        monkeypatch.setattr(spectra, "_MAX_SWEEPS", 10**6)
        start = time.process_time()
        with pytest.raises(NoConvergenceError, match="non-finite"):
            spectra._corner_lambda_min([[1.0, bad], [bad, 2.0]])
        assert time.process_time() - start < 0.1

    def test_corner_jacobi_raises_past_its_sweep_budget(self, monkeypatch):
        monkeypatch.setattr(spectra, "_MAX_SWEEPS", 1)
        block = [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]
        with pytest.raises(NoConvergenceError, match="after 1 sweeps"):
            spectra._corner_lambda_min(block)


def _nn_bottom(spec):
    """The modified Neumann bottom corner of spec, as a window takes it."""
    return _window_corners(N_KIND, N_KIND, _row_and_stencil(spec))[1]


@pytest.fixture
def builds(monkeypatch):
    """Calls of the row-and-stencil pass, the corner builders and the
    generic symmetrizer ``hermitian``, in every module that binds them, and
    of the symmetrization of a corner (``_hermitian_part``, as bound in
    ``boundary``; ``banded_coefficients`` symmetrizes outside rows too)."""
    counts = {name: 0 for name in ("_row_and_stencil", "_window_corners", "_gram_corner", "_classic_corner")}
    counts.update(hermitian=0, _hermitian_part=0)
    modules = (toepbrack, symbols, matrices, boundary, spectra, cli)
    for name, original, where in (
        ("_row_and_stencil", symbols._row_and_stencil, modules),
        ("_window_corners", boundary._window_corners, modules),
        ("_gram_corner", boundary._gram_corner, modules),
        ("_classic_corner", boundary._classic_corner, modules),
        ("hermitian", matrices.hermitian, modules),
        ("_hermitian_part", symbols._hermitian_part, (boundary,)),
    ):
        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in where:
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
def test_corners_and_row_built_once_per_call(builds, call, request):
    # One pass makes the row, the stencil and the Neumann corner, which
    # serve the delta and the nn_vs_0n bound of a certificate, and the
    # corners of a gap scan; the corner is exactly
    # Hermitian as made, so nothing symmetrizes it.  A certificate reads
    # its bottom corner through the corner builder itself, a gap scan
    # through _window_corners.
    call()
    window_corners = int(request.node.callspec.id == "gap_scan")
    assert builds == {
        "_row_and_stencil": 1, "_window_corners": window_corners, "_gram_corner": 1,
        "_classic_corner": 0, "hermitian": 0, "_hermitian_part": 0,
    }


def test_classic_certificate_builds_its_row_once(builds):
    # The classic corner takes the certificate's own row, so the row is
    # made once, by the one pass, and no modified corner at all; an even
    # symbol's corner is read from the row and symmetrized by nothing.
    check_bracketing(make_symbol([(0.0, 2), (2.0, 1), (-2.0, 1)]), 10, 11, neumann=BoundaryKind.CLASSIC_NEUMANN)
    assert builds == {
        "_row_and_stencil": 1, "_window_corners": 0, "_gram_corner": 0,
        "_classic_corner": 1, "hermitian": 0, "_hermitian_part": 0,
    }


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 2)]), 20, 23),
        lambda: check_bracketing_penta(2.0, -1.5, 0.75, 6, 9),
        lambda: main(["check", "--factors", "0:1,2.0:2", "--split", "20,23"]),
    ],
    ids=["check_bracketing", "penta", "cli_check"],
)
def test_modified_certificate_runs_the_exact_pass_once(monkeypatch, call):
    # delta compares the parts it reads with the exact sums the build
    # made, so a modified certificate runs the exact Gram pass once,
    # counted in every module that binds it.
    calls = []
    original = symbols._gram_exact

    def spy(c):
        calls.append(len(c))
        return original(c)

    for module in (toepbrack, symbols, boundary, spectra, cli):
        if getattr(module, "_gram_exact", None) is original:
            monkeypatch.setattr(module, "_gram_exact", spy)
    call()
    assert len(calls) == 1, calls


def test_certificate_delta_is_that_of_a_fresh_pass(monkeypatch):
    # The sums a certificate's delta reads from its build are those a
    # fresh exact pass of the stencil makes, and its (delta, right) is
    # bitwise the pair evaluated from them, for seeded symbols at every
    # degree up to 16 and at 64.
    seen = []

    def spy(exact, a, bottom):
        seen.append((exact, a, bottom, _gram_delta(exact, a, bottom)))
        return seen[-1][-1]

    monkeypatch.setattr(spectra, "_gram_delta", spy)
    local = np.random.default_rng(3701)
    for degree in [*range(1, 17), 64]:
        count = min(degree - 1, int(local.integers(0, 4)))
        cuts = sorted(local.choice(np.arange(1, degree), count, replace=False).tolist())
        mults = np.diff([0, *cuts, degree]).tolist()
        spec = make_symbol(zip((TWO_PI * local.random(len(mults))).tolist(), mults))
        report = check_bracketing(spec, 2 * degree + 1, 2 * degree + 3)
        ((exact, a, bottom, pair),) = seen
        seen.clear()
        fresh = _gram_exact(stencil(spec))
        assert exact == fresh, spec
        assert [x.hex() for x in pair] == [x.hex() for x in _gram_delta(fresh, a, bottom)], spec
        assert report.all_hold and report.floor_nn == 0.0 - pair[0], spec


_CLASSIC = BoundaryKind.CLASSIC_NEUMANN
_REAL = make_symbol([(0.0, 2), (2.0, 1), (-2.0, 1)])


@pytest.mark.parametrize(
    "call, kinds",
    [
        (lambda: check_bracketing(_REAL, 10, 11, neumann=_CLASSIC), {"c"}),
        (lambda: classic_split_difference(fourier_coefficients(_REAL), 5, 6), {"c"}),
    ]
    + [
        (lambda pair=pair: _window(_REAL, 11, pair), set(pair) - {"0"})
        for pair in ALL_PAIRS
    ]
    + [
        (lambda bc=bc: main(["export", "--factors", "0:2,2.0:1,-2.0:1", "--size", "11", "--bc", bc]), {bc[0]})
        for bc in ("cc", "nn")
    ],
    ids=["check_classic", "classic_split_difference"]
    + ["".join(p) for p in ALL_PAIRS]
    + ["export_cc", "export_nn"],
)
def test_each_corner_kind_symmetrized_once(builds, call, kinds):
    # One pass makes the row, the stencil and the Neumann corner, which
    # the window's corners take from the caller.  Each kind's corner is
    # built once and a top block is its mirror; no corner is symmetrized:
    # a modified one is exactly Hermitian as made, and the classic corner
    # of an even symbol is read from its row, exactly symmetric.
    call()
    assert builds["_row_and_stencil"] == 1
    assert builds["_gram_corner"] + builds["_classic_corner"] == len(kinds)
    assert builds["_hermitian_part"] == 0 and builds["hermitian"] == 0


def test_min0_window_keeps_a_nan_midpoint():
    # A window with a NaN corner entry has no eigenvalue but NaN, and the
    # certificate's min(0, .) keeps it: min(0.0, nan) is 0.0, which would
    # report a NaN window as a holding zero margin.  The healthy nn_vs_0n
    # window, a zero row with corners -bottom and -top, is positive
    # definite, and its margin is +0.0.
    spec = make_symbol([(0.0, 1), (2.0, 1)])
    healthy = certificate_windows(spec, 5, 5)[3]
    healthy = spectra._min0(float(np.linalg.eigvalsh(dense_window(*healthy))[0]))
    broken = spectra._min0(math.nan)
    assert healthy == 0.0 and math.copysign(1.0, healthy) == 1.0
    assert math.isnan(broken)
    assert min(0.0, broken) == 0.0


def test_nn_vs_0n_is_positive_definite_yet_reports_zero(rng):
    # diag(-bottom, -top): each block is the Gram sum of the N independent
    # crossing placements, so the window is not singular; the margin is 0
    # only through min(0, lambda_min), which the proven bound settles.
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
    # A real negative margin must not hide behind a proof: delta reads the
    # perturbed entry of the corner, by exactly its distance from the exact
    # Gram sum, so it passes abs_tol, and floor_nn, lower and upper, -delta,
    # fail; nn_vs_0n is still proved where -bottom stays positive definite.
    # The modified corner builder is perturbed wherever it is bound, so the
    # oracle's windows carry the same corner; each margin stays a lower
    # bound of their LAPACK eigenvalues.
    exact = boundary._gram_corner

    def perturbed(bottom, kind):
        bottom = exact(bottom, kind).copy()
        bottom[0, 0] += 1e-6
        return bottom

    for module in (boundary, spectra):
        monkeypatch.setattr(module, "_gram_corner", perturbed)
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
    tol = 1e-12 * max(1.0, toeplitz_finite(fourier_coefficients(spec), 20).row_sum_norm())
    for name, value in expected.items():
        assert report.margins[name] <= value + tol, name
        assert report.margins[name] == (0.0 if name == "nn_vs_0n" and value == 0.0 else report.floor_nn), name
    assert -1.01e-6 <= report.floor_nn <= -1e-6


def _penta_row(local):
    """A seeded admissible pentadiagonal row, as the certify benchmark draws them."""
    a2, ratio = float(local.uniform(0.5, 2.0)), float(local.uniform(-4.0, 4.0))
    b = math.acos(-ratio / 4.0)
    return float(local.uniform(0.1, 1.5)) + a2 * (4.0 + 2.0 * math.cos(2.0 * b)), a2 * ratio, a2


def test_delta_bounds_what_every_window_differs_by_from_its_gram_form():
    # W - G, formed exactly for the floor windows at L = 2N+1 and 3N+2 and
    # for lower, is T_L(x) plus the corner residuals left and right on the
    # edge rows (for lower, the coupling blocks of T_2N(x) minus right and
    # left), x = a - r.  So ||W - G||_2 <= ||x||_1 + max of the corners'
    # Frobenius norms, and that, with |re| + |im| for each |x_t|, is at
    # most delta, exactly in rationals.  (Not ||W - G||_F: T_L(x) repeats
    # x on every row and both corners count, so that reads up to 2 delta.)
    # LAPACK's 2-norm of the exact W - G, rounded once, agrees within its
    # own rounding.
    local = np.random.default_rng(3101)
    specs = [random_spec(local, max_factors=3, max_mult=3) for _ in range(24)]
    specs += [make_symbol([(0.0, 3)]), make_symbol([(1.0, 2), (1.0001, 1)])]
    zero = (Fraction(0), Fraction(0))
    for spec in specs:
        n, c = spec.degree, stencil(spec)
        bottom = _nn_bottom(spec)
        delta, bound = _gram_delta(_gram_exact(c), fourier_coefficients(spec).a, bottom)
        x, right, left = exact_residual(spec)
        for window, m in (("floor", 2 * n + 1), ("floor", 3 * n + 2), ("lower", 2 * n)):
            expected = [[x[j - i + n] if abs(j - i) <= n else zero for j in range(m)] for i in range(m)]
            for i in range(n):
                for j in range(n):
                    if window == "floor":
                        expected[i][j] = tuple(map(sum, zip(expected[i][j], left[i][j])))
                        edge = expected[m - n + i][m - n + j]
                        expected[m - n + i][m - n + j] = tuple(map(sum, zip(edge, right[i][j])))
                    else:
                        expected[i][j] = (-right[i][j][0], -right[i][j][1])
                        expected[n + i][n + j] = (-left[i][j][0], -left[i][j][1])
            difference = exact_gram_difference(spec, window, m)
            assert difference == expected, (spec, window, m)
            dense = np.array([[complex(float(re), float(im)) for re, im in row] for row in difference])
            assert np.linalg.norm(dense, 2) <= delta * (1.0 + 64 * m * symbols._EPS), (spec, window, m)
        row = sum(abs(re) + abs(im) for re, im in x)
        squares = [sum(re * re + im * im for entries in block for re, im in entries) for block in (right, left)]
        assert squares[0] <= Fraction(bound) ** 2, spec
        assert row <= Fraction(delta) and max(squares) <= (Fraction(delta) - row) ** 2, spec


@pytest.mark.parametrize("alpha", [1, 2, 3, 12])
def test_integer_rows_have_zero_delta_and_print_plus_zero(capsys, alpha):
    # The row and corners of 0:alpha are integers, so every residual is
    # exactly 0 and every margin 0.0, never -0.0, in the report and on
    # stdout.
    spec = make_symbol([(0.0, alpha)])
    c = stencil(spec)
    bottom = _nn_bottom(spec)
    assert _gram_delta(_gram_exact(c), fourier_coefficients(spec).a, bottom) == (0.0, 0.0)
    split = (2 * alpha + 1, 2 * alpha + 3)
    assert main(["check", "--factors", f"0:{alpha}", "--split", "{},{}".format(*split)]) == 0
    out = capsys.readouterr().out
    for margins in (check_bracketing(spec, *split).margins, json.loads(out)["margins"]):
        assert all(m == 0.0 and math.copysign(1.0, m) == 1.0 for m in margins.values()), margins
    assert "-0.0" not in out


def test_no_modified_certificate_runs_the_engine(factor_calls):
    # 140 product certificates, ten of each degree up to 14 (ties and
    # angles 0.001 apart included), and 10 pentadiagonal ones: none calls
    # the gap's factor path, and each holds, as it did on the margins of
    # the eigen engine it replaced; neither does a classic one, 0:2, which
    # still fails lower.  The control: a gap scan's one call, with its
    # three sizes.
    calls = factor_calls
    local = np.random.default_rng(3102)
    products = [spec for k, spec in enumerate(gram_floor_symbols()) if k % 15 < 10]
    for spec in products:
        report = check_bracketing(spec, *random_split(local, spec.degree, 8 * spec.degree + 40))
        assert report.all_hold, (spec, report.margins)
    for _ in range(10):
        report, _ = check_bracketing_penta(*_penta_row(local), *random_split(local, 2, 64))
        assert report.all_hold, report.margins
    classic = check_bracketing(make_symbol([(0.0, 2)]), 7, 7, neumann=BoundaryKind.CLASSIC_NEUMANN)
    assert not classic.verdicts["lower"] and calls == []
    gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32])
    assert calls == [3]


# Product certificates that once passed their residual proof's abs_tol
# and fell back on the engine, from N = 28 on, four of which the engine
# failed, and the two CLI cases that exited 1 (N = 40 and 128): the
# rounded Gram row and corner put delta far below abs_tol.
FORMER_FALLBACKS = [
    ([(4.338468494523859, 17), (1.1359372276660105, 11)], (59, 104)),
    ([(6.203191391733828, 1), (6.047891104489918, 18), (3.5242280085734583, 4), (2.7285165860094676, 6)], (62, 115)),
    ([(6.152638671038473, 6), (0.021047906498687863, 11), (2.4610444256671187, 3), (3.5141993142003196, 9)], (86, 82)),
    ([(1.2496708429813363, 14), (4.607705661805448, 19)], (137, 133)),
    ([(0.58561028365405, 1), (1.9983723978976295, 8), (3.9956361898098707, 12), (5.640353704921672, 15)], (103, 75)),
    ([(0.8402, 24), (4.1623, 16)], (81, 81)),
    ([(1.1, 64), (4.0, 64)], (300, 300)),
]


@pytest.mark.parametrize(
    "factors,split", FORMER_FALLBACKS, ids=["n28", "n29_holds", "n29", "n33", "n36", "n40", "n128"]
)
def test_former_fallback_certificates_hold(factor_calls, factors, split):
    calls = factor_calls
    spec = make_symbol(factors)
    report = check_bracketing(spec, *split)
    coeffs, c, bottom, exact = _row_and_stencil(spec)
    delta = _gram_delta(exact, coeffs.a, bottom)[0]
    assert report.all_hold and calls == [], report.margins
    assert report.floor_nn == report.delta_lower == -delta and delta <= 1e-6 * report.abs_tol


def test_seeded_high_degree_certificates_hold(factor_calls):
    # Three seeded symbols (1-4 factors) at each of N = 64, 128, 256 and
    # one at 511, the CLI's largest degree: each holds without the engine,
    # with delta at most 2**-53 * (||a||_1 + ||bottom||_F) plus a little.
    calls = factor_calls
    local = np.random.default_rng(3601)
    for degree, count in ((64, 3), (128, 3), (256, 3), (511, 1)):
        for _ in range(count):
            cuts = sorted(local.choice(np.arange(1, degree), int(local.integers(0, 4)), replace=False).tolist())
            mults = np.diff([0, *cuts, degree]).tolist()
            spec = make_symbol(zip((TWO_PI * local.random(len(mults))).tolist(), mults))
            report = check_bracketing(spec, 2 * degree + 1, 2 * degree + 3)
            coeffs, c, bottom, exact = _row_and_stencil(spec)
            delta = _gram_delta(exact, coeffs.a, bottom)[0]
            parts = float(np.abs(coeffs.a.view(float)).sum())  # |re| + |im| of each entry
            norms = parts + np.linalg.norm(bottom / 2.0**600) * 2.0**600
            assert report.all_hold and delta <= 1e-3 * report.abs_tol, (degree, report.margins)
            assert delta <= 2.0**-53 * norms * (1 + 1e-9), degree
    assert calls == []


def test_tiny_angle_holds_through_the_proof(factor_calls, capsys):
    # The angle 1e-140 gives the stencil parts near 1e-140; every part is
    # an exact integer over one power of two, so delta counts them exactly
    # and stays tiny and finite, the certificate holds without the engine,
    # and no margin prints as -Infinity.
    calls = factor_calls
    report = check_bracketing(make_symbol([(1e-140, 1)]), 5, 5)
    assert report.all_hold and all(-1e-130 < m <= 0.0 for m in report.margins.values())
    assert main(["check", "--factors", "1e-140:1", "--split", "5,5"]) == 0
    out = capsys.readouterr().out
    assert "Infinity" not in out and json.loads(out)["margins"] == report.margins
    assert calls == []


def test_penta_delta_takes_in_the_decomposition():
    # A pentadiagonal row is scale * a(g) + shift only up to the rounding
    # of its decomposition (acos, cos, the shift); delta takes that in, so
    # each proven margin lies at or below -(scale * delta_g + ||row -
    # scale * a(g) - shift||_1), the second term formed in fractions with
    # |re| + |im| for each entry, and nonzero for most rows; the residual
    # meets it to within a few roundings.
    local = np.random.default_rng(3103)
    rounded = 0
    for _ in range(10):
        row = _penta_row(local)
        report, deco = check_bracketing_penta(*row, 9, 11)
        coeffs = fourier_coefficients(deco.spec)
        c = stencil(deco.spec)
        delta = _gram_delta(_gram_exact(c), coeffs.a, _nn_bottom(deco.spec))[0]
        scale = Fraction(deco.scale)
        exact = Fraction(0)
        for t, (mine, theirs) in enumerate(zip(penta_coefficients(*row).a, coeffs.a)):
            centre = Fraction(deco.shift) if t == 2 else Fraction(0)
            exact += abs(Fraction(mine.real) - scale * Fraction(theirs.real) - centre)
            exact += abs(Fraction(mine.imag) - scale * Fraction(theirs.imag))
        rounded += exact > 0
        bound = _affine_residual(penta_coefficients(*row).a, deco.scale, coeffs.a, deco.shift)
        assert exact <= Fraction(bound) <= exact * (1 + Fraction(1, 2**48)), row
        assert report.all_hold and report.floor_nn == report.delta_lower
        assert Fraction(-report.floor_nn) >= scale * Fraction(delta) + exact, row
    assert rounded >= 5


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


def test_gram_residual_keeps_to_quadratic_memory():
    # delta sums each corner diagonal's terms as one running prefix sum,
    # so it holds O(N**2) integers, about 2.5 MB at N = 96, where a table of
    # every entry's own terms would hold 8 N**3 / 3 of them, about 140 MB.
    spec = make_symbol([(TWO_PI * (k + 0.5) / 96, 1) for k in range(96)])
    c, a = stencil(spec), fourier_coefficients(spec).a
    bottom = _nn_bottom(spec)
    assert _peak_bytes(lambda: _gram_delta(_gram_exact(c), a, bottom)) < 16 * 2**20


def test_kernel_check_of_many_sizes_stays_small():
    # The kernel check holds one size's basis at a time, and the factor
    # path iterates the sizes' vectors in chunks of at most 2**16 entries:
    # 256 sizes up to 4096 in one block would peak near 90 MB.
    sizes = list(range(3, 4097, 16))
    assert _peak_bytes(lambda: spectra._gaps(make_symbol([(0.0, 1)]), sizes)) < 16 * 2**20


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
        def corrupted(left, right, *stencil):
            top, bottom = _window_corners(left, right, *stencil)
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

    @pytest.mark.parametrize(
        "factors,message",
        [
            ([(0.0, 2)], "kernel vector 1 has residual nan > 1.600e-08 in the softened window of size 64"),
            ([(1.0, 1), (2.5, 2)], "kernel vector 2 has residual nan > 4.346e-08 in the softened window of size 64"),
        ],
        ids=["real", "complex"],
    )
    def test_kernel_check_names_the_one_failing_size(self, monkeypatch, factors, message):
        # Every size is checked; only the largest size's last vector is
        # poisoned, and the message names that size.
        def poisoned(spec, size):
            basis = kernel_basis(spec, size)
            if size == 64:
                basis[-1] = np.full(size, np.nan, dtype=complex)
            return basis

        monkeypatch.setattr(spectra, "kernel_basis", poisoned)
        with pytest.raises(KernelMismatchError) as failure:
            gap_scan(make_symbol(factors), [8, 16, 32, 64])
        assert str(failure.value) == message

    @pytest.mark.parametrize(
        "factors,message",
        [
            ([(0.0, 2)], "kernel vector 1 has residual 5.601e-04 > 1.600e-08 in the softened window of size 8"),
            ([(1.0, 1), (2.5, 2)], "kernel vector 2 has residual 5.601e-04 > 4.346e-08 in the softened window of size 8"),
        ],
        ids=["real", "complex"],
    )
    def test_kernel_check_names_the_first_size_on_a_corrupt_corner(self, monkeypatch, factors, message):
        # The bottom corner enters on each size's own last rows: every size
        # fails, and the message names the smallest and its worst vector.
        def corrupted(left, right, *stencil):
            top, bottom = _window_corners(left, right, *stencil)
            bottom = bottom.copy()
            bottom[-1, -1] += 1e-3
            return top, bottom

        monkeypatch.setattr(spectra, "_window_corners", corrupted)
        with pytest.raises(KernelMismatchError) as failure:
            gap_scan(make_symbol(factors), [8, 16, 32, 64])
        assert str(failure.value) == message

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
        # The factor path takes no sizes; the slope fit refuses them.
        c = stencil(make_symbol([(0.0, 1)]))
        assert _factor.smallest_eigenvalues(c, [(TWO_PI, 1)], [], spectra._corner_lambda_min) == []
        for sizes in ([16], []):
            with pytest.raises(ValueError, match="two sizes"):
                gap_scan(make_symbol([(0.0, 1)]), sizes)

    def test_stop_test_stays_in_the_float_range(self):
        # sigma_min of 0:40 lies far below eps * ||c||_1, so the top Ritz
        # value mu is near 1e30 and the stop allowance reach * sqrt(mu) * mu
        # overflowed to inf (a RuntimeWarning, and a stop at the first step).
        spec = make_symbol([(0.0, 40)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gap_scan(spec, [160, 320, 640])
        for size, gap in report.records:
            assert gap >= sampled_gap_floor(spec, size), size


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

# The factor path behind every gap (``_factor.smallest_eigenvalues``):
# its gaps against LAPACK's singular values, mpmath and the exact slope,
# its pins, its step cap; and the check that no certificate or gap calls
# the dense Jacobi reference, and that no certificate solves for a gap.


class TestGapAccuracy:
    def test_gaps_match_the_factors_singular_values(self):
        # T_{L-N}(g) = C C*, so the gap is s**2 for s = sigma_min(C), which
        # LAPACK reads to about eps * ||C|| <= eps * ||c||_1; 40 seeded
        # symbols with N <= 8, angles as close as 0.001 and sizes up to 512,
        # and four even ones, whose real stencils take the real branch.
        linalg = pytest.importorskip("scipy.linalg")
        checked = 0
        even = [(spec, [2 * spec.degree + 1, 64, 256]) for spec in real_symbols(3201, 300)[1:5]]
        for spec, sizes in gap_symbols() + even:
            c = stencil(spec)
            reach = 4 * symbols._EPS * float(np.abs(c).sum())
            for size, gap in zip(sizes, spectra._gaps(spec, sizes)):
                s = linalg.svdvals(stencil_factor(c, size - spec.degree))[-1]
                assert abs(gap - s * s) <= 1e-9 * s * s + reach * s, (spec, size)
                checked += 1
        assert checked >= 150

    @pytest.mark.parametrize("factors", ["pi:1", "0.3:1,-0.3:1", "0.7:2,-0.7:2,pi:1", "1.0:1,-1.0:1"])
    def test_an_even_symbol_is_factored_in_real_arithmetic(self, monkeypatch, factors):
        # An even symbol's stencil is exactly real or exactly imaginary, so
        # the factor path gets a float64 one, whatever the rounding of the
        # mirrored angles.
        dtypes = []
        factor = _factor._factor

        def spy(c, b, blocks):
            dtypes.append(c.dtype)
            return factor(c, b, blocks)

        monkeypatch.setattr(_factor, "_factor", spy)
        spec = cli.parse_factors(factors)
        gap_scan(spec, [2 * spec.degree + 1, 32, 64])
        assert dtypes == [np.float64]

    def test_path_laplacian_gap_to_twelve_digits(self):
        # For 0:1 the gap is 4 sin**2(pi / 2L) exactly.
        mpmath = pytest.importorskip("mpmath")
        sizes = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        with mpmath.workdps(40):
            exact = [float(4 * mpmath.sin(mpmath.pi / (2 * size)) ** 2) for size in sizes]
        for size, gap, ref in zip(sizes, spectra._gaps(make_symbol([(0.0, 1)]), sizes), exact):
            assert abs(gap - ref) <= 1e-12 * ref, size

    @pytest.mark.parametrize("factors", ["0:3", "1.0:2,1.0001:1"])
    def test_no_gap_is_a_stopping_width(self, capsys, factors):
        # The multisection engine printed its stopping width 2.842e-14 as
        # the gap of these symbols at L = 1024..4096; the gaps fall like
        # L**-6 instead.
        assert main(["gap", "--factors", factors, "--sizes", "64,256,1024,2048,4096"]) == 0
        out = capsys.readouterr().out
        assert "2.842" not in out
        gaps = [r["gap"] for r in json.loads(out)["records"]]
        assert all(a > 30 * b for a, b in zip(gaps, gaps[1:]))

    def test_triple_root_slope_is_minus_six(self):
        report = gap_scan(make_symbol([(0.0, 3)]), [256, 1024, 2048, 4096])
        assert abs(report.slope + 6.0) <= 0.01

    def test_step_cap_raises_no_convergence(self, monkeypatch, capsys):
        # A scan whose top Ritz value still grows at the step cap raises,
        # and the CLI reports it as a verification failure.
        monkeypatch.setattr(_factor, "_MAX_STEPS", 1)
        with pytest.raises(NoConvergenceError, match="still grew after 1 steps"):
            gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32])
        assert main(["gap", "--factors", "0:2", "--sizes", "8,16,32"]) == 1
        assert capsys.readouterr().err.startswith("verification failure: the top Ritz value")


@pytest.mark.parametrize(
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
def test_certificates_and_gaps_never_call_jacobi(monkeypatch, call):
    # The factor path reads every gap, a modified certificate computes
    # no eigenvalue, and a classic one reads its nn_vs_0n
    # from the private corner Jacobi (spectra._corner_lambda_min); the
    # public Jacobi, eigenvalues, is a test oracle.
    calls = []
    monkeypatch.setattr(spectra, "eigenvalues", lambda *args, **kwargs: calls.append(args))
    call()
    assert calls == []


@pytest.mark.parametrize(
    "call, dtype",
    [
        (lambda: spectral_gap(make_symbol([(0.0, 1), (2.0, 2)]), 30), np.complex128),
        (lambda: gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32]), np.float64),
    ],
    ids=["spectral_gap", "gap_scan"],
)
def test_one_row_loop_per_arithmetic_kind(monkeypatch, call, dtype):
    # All sizes of a scan share one factorization of C*, also when each
    # size is iterated in its own chunk, in one arithmetic kind: real
    # where the stencil is real.
    kinds = []
    factor = _factor._factor

    def spy(c, b, blocks):
        kinds.append(c.dtype)
        return factor(c, b, blocks)

    monkeypatch.setattr(_factor, "_factor", spy)
    monkeypatch.setattr(_factor, "_ENTRIES", 1)
    call()
    assert kinds == [dtype]


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_bracketing(make_symbol([(0.0, 1), (2.0, 2)]), 20, 23),
        lambda: check_bracketing(make_symbol([(0.0, 1)]), 5, 6),
        lambda: check_bracketing_penta(2.0, -1.5, 0.75, 6, 9),
        lambda: check_bracketing(make_symbol([(0.0, 2)]), 7, 7, neumann=BoundaryKind.CLASSIC_NEUMANN),
        lambda: check_bracketing(make_symbol([(0.0, 12)]), 25, 27),
    ],
    ids=["complex", "degree1", "penta", "classic", "undecided"],
)
def test_proved_nn_vs_0n_takes_no_job(factor_calls, call):
    # A modified certificate proves all four margins and solves for no
    # eigenvalue, 0:12 too, whose nn_vs_0n bound is 5.5e-13; a classic one
    # reads its nn_vs_0n from the corner Jacobi and solves for none either.
    call()
    assert factor_calls == []


def test_proved_nn_vs_0n_windows_are_the_engines_zeros():
    # Every bound is below LAPACK's eigenvalue, and a window the bound
    # proves positive definite, which the certificate reports as 0.0, is
    # one whose LAPACK eigenvalue min(0, .) makes 0.0 too.  It proves
    # every symbol up to N = 7.
    proved = dict.fromkeys(range(1, 15), 0)
    for spec in gram_floor_symbols():
        n, c = spec.degree, stencil(spec)
        bottom = _nn_bottom(spec)
        bound = _gram_floor(c, _gram_delta(_gram_exact(c), fourier_coefficients(spec).a, bottom)[1])
        assert bound <= np.linalg.eigvalsh(-bottom)[0], spec
        if bound > 0.0:
            proved[n] += 1
            window = (BandedCoeffs(np.zeros(2 * n + 1, dtype=complex)), 2 * n, -bottom)
            assert spectra._min0(float(np.linalg.eigvalsh(dense_window(*window))[0])) == 0.0, spec
    assert [proved[n] for n in range(1, 8)] == [15] * 7


def test_undecided_nn_vs_0n_keeps_its_oracle_margin(factor_calls):
    # For 0:12 the corners reach 2.7e6 and 1/||d||_1**2 is 5.5e-13
    # (||d||_1 = C(23, 11)); the integer row and corners have residual 0,
    # so the bound still proves nn_vs_0n, every margin is 0.0, and each is
    # within the LAPACK margin's own error.
    spec = make_symbol([(0.0, 12)])
    c = stencil(spec)
    bottom = _nn_bottom(spec)
    assert _gram_delta(_gram_exact(c), fourier_coefficients(spec).a, bottom) == (0.0, 0.0)
    assert np.abs(bottom).max() > 2.7e6 and 0.0 < _gram_floor(c, 0.0) < 1e-12
    report = check_bracketing(spec, 25, 27)
    assert factor_calls == [] and report.all_hold
    floor1, floor2, lower, delta_nn = (
        np.linalg.eigvalsh(dense_window(*w))[0] for w in certificate_windows(spec, 25, 27)
    )
    expected = {
        "floor_nn": min(floor1, floor2),
        "nn_vs_0n": min(0.0, delta_nn),
        "lower": min(0.0, lower),
        "upper": min(0.0, lower),
    }
    tol = 1e-12 * max(1.0, float(np.abs(fourier_coefficients(spec).a).sum()))
    for name, value in expected.items():
        assert abs(report.margins[name] - value) <= tol, name


@pytest.mark.parametrize("corruption", ["indefinite", "nan"])
def test_corrupted_nn_vs_0n_is_never_proved(monkeypatch, factor_calls, corruption):
    # delta and the bound measure the block they are given, so a -bottom
    # that is not the Gram form proves nothing: the certificate reports
    # -delta, a lower bound of the corrupted block's eigenvalue, or NaN,
    # solves for no eigenvalue, and its nn_vs_0n margin fails.
    exact = boundary._gram_corner
    spec = make_symbol([(0.3, 2), (2.0, 1)])

    def corrupted(bottom, kind):
        gram = -exact(bottom, kind)
        if corruption == "nan":
            gram[1, 1] = math.nan
        else:
            gram -= 2.0 * np.linalg.eigvalsh(gram)[0] * np.eye(len(gram))
        return -gram

    monkeypatch.setattr(spectra, "_gram_corner", corrupted)
    report = check_bracketing(spec, 9, 11)
    assert factor_calls == []
    assert not any(report.verdicts.values())
    if corruption == "nan":
        assert all(math.isnan(m) for m in report.margins.values())
    else:
        least = np.linalg.eigvalsh(-corrupted(_nn_bottom(spec), N_KIND))[0]
        assert report.delta_nn <= least < -report.abs_tol


# Gaps of the factor path, pinned bitwise.  Each is within 1.1e-12
# relative of scipy's svdvals(C)**2, whose own error is about
# 2 * eps * ||c||_1 / sigma of itself; the engine's 0:2 and N = 10 pins
# were up to 5.6e-12 and 2e-4 off.
GAPS_0_2 = ["0x1.fb8ccbaa2f93cp-4", "0x1.f68a03b809d4bp-8", "0x1.f5124ec8ebfebp-12"]
GAP_30 = "0x1.ca2aad930e922p-10"
GAPS_N10 = ["0x1.b67d56d184efap-29", "0x1.b68061dc10b09p-35"]


def test_gap_scan_keeps_its_passes_and_values(factor_calls):
    # A scan makes one call of the factor path for all its sizes, and
    # spectral_gap one for its size; pinned bitwise.
    report = gap_scan(make_symbol([(0.0, 2)]), [8, 16, 32])
    assert factor_calls == [3]
    assert [g.hex() for _, g in report.records] == GAPS_0_2
    factor_calls.clear()
    _, gap = spectral_gap(make_symbol([(0.0, 1), (2.0, 2)]), 30)
    assert factor_calls == [1]
    assert gap.hex() == GAP_30


def test_degree_ten_scan_keeps_its_gaps():
    # N = 10 at L = 512, 1024; pinned bitwise.
    report = gap_scan(make_symbol([(0.5, 3), (2.1, 2), (3.7, 3), (5.2, 2)]), [512, 1024])
    assert [g.hex() for _, g in report.records] == GAPS_N10


class TestBandedLambdaMin:
    def test_against_lapack_on_random_symbols(self, rng):
        # Random angles give complex coefficients; N ranges over 1..6.
        for _ in range(40):
            spec = random_spec(rng, max_factors=3, max_mult=2, min_sep=0.3)
            n = spec.degree
            coeffs = fourier_coefficients(spec)
            size = int(rng.integers(2 * n + 1, 201))
            ref = np.linalg.eigvalsh(dense_toeplitz(coeffs, size - n))[0]
            tol = 1e-12 * max(1.0, float(np.abs(coeffs.a).sum()))
            assert abs(spectral_gap(spec, size)[1] - ref) <= tol, (spec.factors, size)

    @pytest.mark.parametrize("size", [512, 1024, 4096])
    def test_path_laplacian_gap_at_large_sizes(self, size):
        exact = 4.0 * math.sin(math.pi / (2 * size)) ** 2
        assert abs(spectral_gap(make_symbol([(0.0, 1)]), size)[1] - exact) <= 1e-12 * 4.0

    def test_deterministic(self):
        spec = make_symbol([(1.0, 1), (2.5, 2)])
        first = spectral_gap(spec, 100)
        assert spectral_gap(spec, 100) == first

    @pytest.mark.parametrize("factors", [[(0.0, 1)], [(0.0, 2)], [(0.4, 1), (2.0, 2), (4.1, 1)]])
    def test_smallest_window(self, factors):
        # L = 2N+1 leaves m = N+1 rows, below the size toeplitz_finite accepts.
        spec = make_symbol(factors)
        n = spec.degree
        coeffs = fourier_coefficients(spec)
        ref = np.linalg.eigvalsh(dense_toeplitz(coeffs, n + 1))[0]
        tol = 1e-12 * max(1.0, float(np.abs(coeffs.a).sum()))
        assert abs(spectral_gap(spec, 2 * n + 1)[1] - ref) <= tol

    def test_seeded_window_far_below_zero(self):
        # The classic lower window of (2 - 2cos x)**2 at 7,7 sits near
        # -0.4721; the classic certificate reads it, as twice the smallest
        # eigenvalue of its corner, to LAPACK's value.
        spec = make_symbol([(0.0, 2)])
        window = certificate_windows(spec, 7, 7, BoundaryKind.CLASSIC_NEUMANN)[2]
        ref = np.linalg.eigvalsh(dense_window(*window))[0]
        assert ref == pytest.approx(-0.4721359549995, abs=1e-12)
        tol = 1e-12 * max(1.0, float(np.abs(window[0].a).sum()))
        report = check_bracketing(spec, 7, 7, neumann=BoundaryKind.CLASSIC_NEUMANN)
        assert abs(report.delta_lower - ref) <= tol and not report.verdicts["lower"]

    def test_full_rank_min0_window_reports_zero(self):
        # nn_vs_0n of (2 - 2cos x)(2 - 2cos(x - 2)) is positive definite on
        # its 2N rows: only min(0, lambda_min) = 0 is wanted, as the proof
        # reports it, with no eigenvalue solved for.
        spec = make_symbol([(0.0, 1), (2.0, 1)])
        window = certificate_windows(spec, 7, 9)[3]
        ref = np.linalg.eigvalsh(dense_window(*window))[0]
        assert ref > 0.3 and spectra._min0(float(ref)) == 0.0
        delta = check_bracketing(spec, 7, 9).delta_nn
        assert delta == 0.0 and math.copysign(1.0, delta) == 1.0

    @staticmethod
    def seeded_specs(n):
        """A zero of order n at 0 (a real stencil), at a seeded angle, and
        n seeded simple zeros (complex stencils), with seeded sizes."""
        local = np.random.default_rng(3800 + n)
        angles = np.sort(local.uniform(0.0, TWO_PI, n)).tolist()
        factors = ([(0.0, n)], [(float(local.uniform(0.1, 3.0)), n)], [(a, 1) for a in angles])
        return [make_symbol(f) for f in factors], local

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_composition_changes_no_result(self, n):
        # Each gap of a scan is bitwise that of its size run alone
        # (spectral_gap) and of its size in a scan of other sizes: every
        # product that mixes rows runs on one block of one size.
        specs, local = self.seeded_specs(n)
        for spec in specs:
            sizes = sorted({4 * n, 8 * n, *local.integers(2 * n + 1, 300, 5).tolist()})
            alone = [spectral_gap(spec, s)[1].hex() for s in sizes]
            assert [g.hex() for _, g in gap_scan(spec, sizes).records] == alone
            others = sizes[1::2] + [int(local.integers(300, 700))]
            assert [g.hex() for g in spectra._gaps(spec, others)][:-1] == alone[1::2]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_do_not_depend_on_when_columns_leave(self, monkeypatch, n):
        # A scan iterates its sizes in chunks of at most _factor._ENTRIES
        # vector entries, and a size that stops leaves its chunk's stack.
        # Chunks of one size each, or one chunk of all, give every gap
        # bitwise as it is.
        specs, local = self.seeded_specs(n)
        for spec in specs:
            sizes = sorted({*local.integers(2 * n + 1, 1500, 10).tolist(), 2048})
            results = []
            for entries in (_factor._ENTRIES, 1, 10**9):
                monkeypatch.setattr(_factor, "_ENTRIES", entries)
                results.append([g.hex() for g in spectra._gaps(spec, sizes)])
            assert results[1] == results[0]
            assert results[2] == results[0]

    @pytest.mark.parametrize(
        "call, dtype",
        [
            (lambda: gap_scan(make_symbol([(0.3, 2), (2.0, 1)]), [20, 23, 40]), np.complex128),
            (lambda: gap_scan(make_symbol([(0.0, 2)]), [9, 12, 30]), np.float64),
            (lambda: gap_scan(make_symbol([(1.0, 1), (TWO_PI - 1.0, 2)]), [16, 24, 40]), np.complex128),
        ],
        ids=["complex", "real", "gap_scan"],
    )
    def test_windows_of_one_row_and_corner_share_read_only_arrays(self, monkeypatch, call, dtype):
        # All sizes of a scan differ only in m: every chunk of sizes, here
        # one per size, steps with the parts of one R, in the stencil's
        # arithmetic kind, which no step may write.
        seen = []
        step = _factor._step

        def spy(parts, x, ms, refine=False):
            seen.append(parts)
            return step(parts, x, ms, refine)

        monkeypatch.setattr(_factor, "_step", spy)
        monkeypatch.setattr(_factor, "_ENTRIES", 1)
        call()
        assert len(seen) >= 6 and all(parts is seen[0] for parts in seen)
        for array in seen[0][0] + seen[0][1]:
            assert array.dtype == dtype and not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0.0
