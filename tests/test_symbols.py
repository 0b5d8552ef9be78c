"""Symbol construction, coefficient expansion and pentadiagonal decomposition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from toepbrack import (
    TWO_PI,
    DuplicateAngleError,
    InvalidMultiplicityError,
    NonHermitianError,
    OutOfClassError,
    banded_coefficients,
    circular_distance,
    decompose_pentadiagonal,
    evaluate_symbol,
    fourier_coefficients,
    make_symbol,
    reduce_angle,
)
from conftest import random_spec
from oracles import row_sum_values


def product_values(spec, x):
    """Independent oracle: evaluate the defining product directly."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for e, m in spec.factors:
        out = out * (2.0 - 2.0 * np.cos(x - e)) ** m
    return out


class TestMakeSymbol:
    def test_single_factor_identity_reduction(self):
        spec = make_symbol([(TWO_PI, 1)])
        assert spec.angles == (TWO_PI,)
        assert spec.multiplicities == (1,)
        assert spec.degree == 1

    def test_zero_reduces_to_two_pi(self):
        spec = make_symbol([(0.0, 2)])
        assert spec.angles == (TWO_PI,)
        assert spec.degree == 2
        assert spec.alpha_max == 2

    def test_duplicate_after_reduction_rejected(self):
        with pytest.raises(DuplicateAngleError):
            make_symbol([(1.0, 1), (1.0 + TWO_PI, 1)])

    def test_duplicate_across_wrap_rejected(self):
        with pytest.raises(DuplicateAngleError):
            make_symbol([(TWO_PI, 1), (1e-14, 1)])

    def test_invalid_multiplicity(self):
        with pytest.raises(InvalidMultiplicityError):
            make_symbol([(1.0, 0)])
        with pytest.raises(InvalidMultiplicityError):
            make_symbol([(1.0, -2)])
        with pytest.raises(InvalidMultiplicityError):
            make_symbol([])
        # A multiplicity that int() cannot read at all.
        for mult in (None, "x"):
            with pytest.raises(InvalidMultiplicityError):
                make_symbol([(0.0, mult)])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_refused(self, angle):
        with pytest.raises(ValueError, match="not a finite number"):
            make_symbol([(angle, 1)])

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=200, derandomize=True)
    def test_reduce_angle_range_and_periodicity(self, x):
        r = reduce_angle(x)
        assert 0.0 < r <= TWO_PI
        # Adding a period may land on the other side of the 0/2*pi seam,
        # so periodicity is a circular statement.
        assert circular_distance(reduce_angle(x + TWO_PI), r) < 1e-9


class TestFourierCoefficients:
    def test_laplacian_row(self):
        coeffs = fourier_coefficients(make_symbol([(TWO_PI, 1)]))
        assert_allclose(coeffs.a, [-1.0, 2.0, -1.0], atol=0)

    def test_laplacian_squared_row(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        assert_allclose(coeffs.a, [1.0, -4.0, 6.0, -4.0, 1.0], atol=0)

    def test_two_factor_row(self):
        e = 2.0
        coeffs = fourier_coefficients(make_symbol([(0.0, 1), (e, 1)]))
        expected = [
            np.exp(-1j * e),
            -2.0 - 2.0 * np.exp(-1j * e),
            4.0 + np.exp(-1j * e) + np.exp(1j * e),
            -2.0 - 2.0 * np.exp(1j * e),
            np.exp(1j * e),
        ]
        assert_allclose(coeffs.a, expected, atol=1e-15)

    def test_hermitian_symmetry_exact(self, rng):
        for _ in range(25):
            spec = random_spec(rng, max_factors=3, max_mult=3)
            a = fourier_coefficients(spec).a
            assert np.array_equal(a, np.conj(a[::-1]))
            assert a[-1] != 0

    def test_band_is_tight(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            coeffs = fourier_coefficients(spec)
            assert len(coeffs.a) == 2 * spec.degree + 1
            assert abs(coeffs[spec.degree]) > 0.5  # unimodular leading coefficient

    def test_index_access(self):
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        assert coeffs[0] == 6.0
        assert coeffs[-2] == 1.0
        with pytest.raises(IndexError):
            coeffs[3]


class TestEvaluateSymbol:
    def test_laplacian_squared_at_pi(self):
        value = evaluate_symbol(make_symbol([(0.0, 2)]), math.pi)
        assert type(value) is float
        assert_allclose(value, 16.0, atol=1e-12)

    def test_array_keeps_its_shape(self):
        xs = np.linspace(0.0, TWO_PI, 12).reshape(3, 4)
        vals = evaluate_symbol(make_symbol([(0.0, 1), (2.0, 1)]), xs)
        assert vals.shape == (3, 4)

    def test_zero_at_factor_angles(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            for e in spec.angles:
                value = evaluate_symbol(spec, e)
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
            assert evaluate_symbol(spec, np.array(spec.angles)).tolist() == [0.0] * len(spec.angles)

    def test_product_evaluation(self):
        e = math.pi / 2
        assert_allclose(evaluate_symbol(make_symbol([(0.0, 1), (e, 1)]), math.pi), 8.0, atol=1e-12)

    @pytest.mark.parametrize(
        "factors, x",
        [([(0.0, 3)], 0.001), ([(0.3, 3), (2.0, 3)], 0.3001), ([(0.0, 1), (2.0, 1)], 2.0 + 1e-9)],
    )
    def test_relative_accuracy_near_a_zero(self, factors, x):
        # The sum over the coefficient row gives 1.11e-16 and 4.88e-15 at the
        # first two points, where g is 1.0e-18 and 1.15e-23.
        mpmath = pytest.importorskip("mpmath")
        spec = make_symbol(factors)
        with mpmath.workdps(50):
            exact = mpmath.mpf(1)
            for e, m in spec.factors:
                exact *= (2 - 2 * mpmath.cos(mpmath.mpf(x) - mpmath.mpf(e))) ** m
            exact = float(exact)
        assert abs(evaluate_symbol(spec, x) - exact) <= 1e-10 * exact

    def test_matches_product_oracle_and_nonnegative(self, rng):
        # Two references: the defining product in cosine form, and the sum
        # over the row of fourier_coefficients, which this also checks.
        xs = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
        for _ in range(10):
            spec = random_spec(rng, max_mult=3)
            vals = evaluate_symbol(spec, xs)
            ref = product_values(spec, xs)
            atol = 1e-10 * max(1.0, ref.max())
            assert vals.min() >= 0.0
            assert_allclose(vals, ref, rtol=1e-10, atol=atol)
            assert_allclose(row_sum_values(fourier_coefficients(spec), xs), vals, rtol=1e-10, atol=atol)

    def test_banded_coefficients_validation(self):
        with pytest.raises(NonHermitianError):
            banded_coefficients([1.0, 2.0, 1.5])
        with pytest.raises(ValueError):
            banded_coefficients([0.0, 2.0, 0.0])
        with pytest.raises(ValueError):
            banded_coefficients([1.0, 2.0])

    @pytest.mark.parametrize(
        "row",
        [[1.0, math.nan, 1.0], [math.nan, 2.0, math.nan], [1.0, math.inf, 1.0], [math.inf, 2.0, math.inf],
         [1.0, complex(2.0, math.nan), 1.0]],
    )
    def test_banded_coefficients_refuse_non_finite(self, row):
        with pytest.raises(NonHermitianError, match="Hermitian deviation"):
            banded_coefficients(row)


class TestPentaDecomposition:
    def test_laplacian_squared_branch(self):
        deco = decompose_pentadiagonal(6.0, -4.0, 1.0)
        assert deco.spec.factors == ((TWO_PI, 2),)
        assert deco.scale == 1.0
        assert abs(deco.shift) < 1e-12

    def test_two_angle_branch(self):
        b0 = math.pi / 3
        deco = decompose_pentadiagonal(4.0 + 2.0 * math.cos(2 * b0), -4.0 * math.cos(b0), 1.0)
        assert_allclose(sorted(deco.spec.angles), [b0, TWO_PI - b0], atol=1e-12)
        assert deco.spec.multiplicities == (1, 1)
        assert abs(deco.shift) < 1e-12

    def test_pi_endpoint_collapses(self):
        deco = decompose_pentadiagonal(6.0, 4.0, 1.0)
        assert deco.spec.factors == ((math.pi, 2),)

    @pytest.mark.parametrize(
        "row", [(math.nan, 1.0, 1.0), (math.inf, -4.0, 1.0), (6.0, math.nan, 1.0), (6.0, -4.0, math.inf)]
    )
    def test_non_finite_row_is_refused(self, row):
        with pytest.raises(ValueError, match="not all finite"):
            decompose_pentadiagonal(*row)

    def test_out_of_class(self):
        with pytest.raises(OutOfClassError):
            decompose_pentadiagonal(0.0, 0.0, -1.0)
        with pytest.raises(OutOfClassError):
            decompose_pentadiagonal(1.0, 4.5, 1.0)

    @given(
        a2=st.floats(min_value=0.01, max_value=10.0),
        ratio=st.floats(min_value=-4.0, max_value=4.0),
        a0=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=1000, derandomize=True, deadline=None)
    def test_round_trip(self, a2, ratio, a0):
        a1 = ratio * a2
        deco = decompose_pentadiagonal(a0, a1, a2)
        rebuilt = deco.scale * fourier_coefficients(deco.spec).a
        rebuilt[deco.spec.degree] += deco.shift
        scale = max(1.0, abs(a0), abs(a1), abs(a2))
        assert_allclose(rebuilt, [a2, a1, a0, a1, a2], atol=1e-12 * scale)

    def test_shift_is_symbol_infimum(self, rng):
        xs = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        for _ in range(20):
            a2 = float(rng.uniform(0.05, 3.0))
            a1 = float(rng.uniform(-4.0, 4.0)) * a2
            a0 = float(rng.uniform(-5.0, 5.0))
            deco = decompose_pentadiagonal(a0, a1, a2)
            h = a2 * np.exp(-2j * xs) + a1 * np.exp(-1j * xs) + a0 + a1 * np.exp(1j * xs) + a2 * np.exp(2j * xs)
            assert h.real.min() >= deco.shift - 1e-9
            # The infimum is attained (at the factor angles of the product part),
            # so a fine sampling should get close to it from above.
            assert h.real.min() - deco.shift <= 1e-2 * max(1.0, a2)
