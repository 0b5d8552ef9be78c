"""Command-line surface: parsing, report schemas, exit codes, exports."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from toepbrack import (
    BoundaryKind,
    HermitianMatrix,
    banded_coefficients,
    build_restricted,
    check_bracketing,
    check_bracketing_penta,
    circulant_periodic,
    classic_split_difference,
    decompose_pentadiagonal,
    fourier_coefficients,
    make_symbol,
    penta_coefficients,
    toeplitz_finite,
)
from toepbrack import _factor, boundary, cli, errors, matrices, spectra
from toepbrack.boundary import _window, _window_corners
from toepbrack.symbols import _row_and_stencil
from toepbrack.cli import (
    CliUsageError,
    main,
    parse_angle,
    parse_factors,
    parse_int_list,
    parse_penta,
)
from oracles import ALL_PAIRS, _window_specs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CELL_RE = __import__("re").compile(
    r"^(?P<re>[+-]?\d*\.?\d+(?:[eE][+-]?\d+)?)(?P<im>[+-]\d*\.?\d+(?:[eE][+-]?\d+)?)i$"
)


def parse_matrix_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# dim=")
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            m = _CELL_RE.match(cell)
            assert m, cell
            row.append(complex(float(m.group("re")), float(m.group("im"))))
        rows.append(row)
    return lines[0], np.array(rows)


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1.5", 1.5),
            ("pi", math.pi),
            ("2pi", 2 * math.pi),
            ("pi/3", math.pi / 3),
            ("2pi/3", 2 * math.pi / 3),
            ("0.5pi", 0.5 * math.pi),
            ("-pi/4", -math.pi / 4),
            ("2*pi", 2 * math.pi),
            ("1e-2", 0.01),
        ],
    )
    def test_valid(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=0)

    @pytest.mark.parametrize("text", ["", "abc", "pi/", "/3", "--"])
    def test_invalid(self, text):
        with pytest.raises(CliUsageError):
            parse_angle(text)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "1e308pi", "1e308*pi/0.5", "pi/0", "0/0"])
    def test_non_finite_refused(self, text):
        with pytest.raises(CliUsageError):
            parse_angle(text)

    @given(
        text=st.one_of(
            st.text(),
            st.text(alphabet="0123456789.eE+-*/pi ", max_size=24),
            st.from_regex(
                r"[+-]?\d{1,4}(\.\d*)?([eE][+-]?\d{1,3})?\*?(pi)?(/\d{1,4}\.?\d*)?", fullmatch=True
            ),
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_any_text_is_finite_or_refused(self, text):
        try:
            value = parse_angle(text)
        except CliUsageError:
            return
        assert math.isfinite(value)

    @pytest.mark.parametrize(
        "argv",
        [["coeffs", "--factors", "0:1", "--eval", "1e400"], ["coeffs", "--factors", "1e400:1"]],
    )
    def test_non_finite_angle_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not a finite number" in err


class TestPentaParsing:
    def test_valid(self):
        assert parse_penta("6,-4,1") == (6.0, -4.0, 1.0)
        assert parse_penta(" 7.5 ,-3.25,1e-3") == (7.5, -3.25, 1e-3)

    @pytest.mark.parametrize("text", ["6,-4", "6,-4,1,0", "a,b,c", "6,,1", ""])
    def test_invalid(self, text):
        with pytest.raises(CliUsageError):
            parse_penta(text)

    @pytest.mark.parametrize(
        "text", ["nan,1,1", "1,inf,1", "1,1,-inf", "1e400,1,1", "1,-1e999,1", "NaN,Infinity,nan"]
    )
    def test_non_finite_refused(self, text):
        with pytest.raises(CliUsageError):
            parse_penta(text)

    @given(
        text=st.one_of(
            st.text(),
            st.text(alphabet="0123456789.eE+-,nainfNIF ", max_size=30),
            st.tuples(st.floats(), st.floats(), st.floats()).map(
                lambda values: ",".join(repr(v) for v in values)
            ),
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_any_text_is_three_finite_floats_or_refused(self, text):
        try:
            values = parse_penta(text)
        except CliUsageError:
            return
        assert len(values) == 3
        assert all(isinstance(v, float) and math.isfinite(v) for v in values)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--penta", "nan,1,1", "--split", "8,8"],
            ["export", "--penta", "nan,1,1", "--size", "8", "--bc", "nn"],
            ["coeffs", "--penta", "1e400,1,1"],
        ],
    )
    def test_non_finite_penta_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "not all finite" in err


class TestFactorParsing:
    @given(
        text=st.one_of(
            st.text(),
            st.text(alphabet="0123456789.eE+-*/pi:, ", max_size=30),
            st.lists(
                st.tuples(
                    st.sampled_from(["0", "pi", "2.0", "-1", "pi/3", "2pi", "1e400", "x", ""]),
                    st.integers(-2, 600),
                ),
                min_size=1,
                max_size=3,
            ).map(lambda factors: ",".join(f"{e}:{m}" for e, m in factors)),
        )
    )
    @example("0:29,pi:2")
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_any_text_is_a_finite_symbol_or_refused(self, text):
        try:
            spec = parse_factors(text)
        except (CliUsageError, errors.DuplicateAngleError, errors.InvalidMultiplicityError):
            return
        assert np.all(np.isfinite(fourier_coefficients(spec).a))

    @given(
        text=st.one_of(
            st.text(),
            st.text(alphabet="0123456789+-, _", max_size=30),
            st.lists(st.integers(-10, 10**6), min_size=1, max_size=6).map(
                lambda sizes: ",".join(map(str, sizes))
            ),
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_any_sizes_text_parses_or_is_refused(self, text):
        try:
            sizes = parse_int_list(text, "sizes")
        except CliUsageError:
            return
        assert sizes and all(isinstance(size, int) for size in sizes)
        assert len(sizes) == text.count(",") + 1


class TestCoefficientRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--penta", "1e308,1,1"],
            ["export", "--penta", "1e308,-1e308,1e308", "--size", "6", "--bc", "nn"],
            ["check", "--penta", "1e308,-1e308,1e308", "--split", "8,8"],
            ["coeffs", "--factors", "0:520"],
            ["coeffs", "--factors", "0:300,1.0:212"],
            ["coeffs", "--factors", "0:100000"],
        ],
    )
    def test_out_of_range_row_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "float64 range" in err

    @pytest.mark.parametrize(
        "argv",
        [["coeffs", "--penta", "1e307,1,1"], ["coeffs", "--factors", "0:511"]],
    )
    def test_edge_of_range_still_works(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert np.all(np.isfinite(json.loads(out)["coefficients"]))


class TestSizeArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--factors", "0:1", "--split", "4,4,4"],
            ["check", "--factors", "0:1", "--split", "8"],
            ["export", "--factors", "0:2", "--matrix", "lap2-diff", "--split", "4,4,4"],
            ["export", "--factors", "0:2", "--matrix", "lap2-diff", "--split", "8"],
        ],
    )
    def test_split_needs_two_sizes(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --split needs exactly two sizes L1,L2\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "--factors", "0:1", "--size", "0"],
            ["export", "--factors", "0:1", "--size", "0", "--bc", "nn"],
            ["export", "--factors", "0:1", "--size", "0", "--matrix", "circulant"],
            ["export", "--factors", "0:1", "--size", "-3"],
        ],
    )
    def test_size_below_minimum_is_reported_as_such(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "below the minimum" in err

    def test_missing_size(self, capsys):
        code, _, err = run_cli(capsys, "export", "--factors", "0:1", "--bc", "nn")
        assert code == 2
        assert err == "error: --matrix restricted needs --size\n"


class TestCoeffs:
    def test_factors_row(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--factors", "0:2")
        assert code == 0
        payload = json.loads(out)
        values = [complex(re, im) for re, im in payload["coefficients"]]
        assert_allclose(values, [1, -4, 6, -4, 1], atol=1e-14)
        assert payload["half_bandwidth"] == 2

    def test_even_symbol_row_is_exactly_real(self, capsys):
        # exp(-i*pi) rounds to -1 - 1.2e-16i; the build drops that rounding.
        code, out, _ = run_cli(capsys, "coeffs", "--factors", "pi:1")
        assert code == 0
        assert json.loads(out)["coefficients"] == [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]

    def test_penta_includes_decomposition(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--penta", "6,-4,1")
        assert code == 0
        payload = json.loads(out)
        values = [complex(re, im) for re, im in payload["coefficients"]]
        assert_allclose(values, [1, -4, 6, -4, 1], atol=0)
        deco = payload["decomposition"]
        assert deco["scale"] == 1.0
        assert abs(deco["shift"]) < 1e-12
        assert deco["factors"] == [[2 * math.pi, 2]]

    def test_eval_option(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--factors", "0:1", "--eval", "3.14159")
        payload = json.loads(out)
        assert code == 0
        assert payload["eval"]["value"] == pytest.approx(4.0, abs=1e-8)

    @pytest.mark.parametrize(
        "symbol, x",
        [
            (("--factors", "0.3:3,2.0:3"), "0.3001"),
            (("--factors", "0:3"), "0.001"),
            (("--factors", "0:2"), "1e-4"),
            (("--penta", "6,-4,1"), "1e-4"),
        ],
    )
    def test_eval_near_a_zero_of_g(self, capsys, symbol, x):
        # The sum over the coefficient row cancels there: it gives 4.88e-15,
        # 1.11e-16, 0.0 and 0.0 at these points.
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run_cli(capsys, "coeffs", *symbol, "--eval", x)
        value = json.loads(out)["eval"]["value"]
        with mpmath.workdps(50):
            t = mpmath.mpf(float(x))
            if symbol[0] == "--factors":
                exact = mpmath.mpf(1)
                for e, m in parse_factors(symbol[1]).factors:
                    exact *= (2 - 2 * mpmath.cos(t - mpmath.mpf(e))) ** m
            else:
                a0, a1, a2 = (mpmath.mpf(v) for v in parse_penta(symbol[1]))
                exact = a0 + 2 * a1 * mpmath.cos(t) + 2 * a2 * mpmath.cos(2 * t)
            exact = float(exact)
        assert code == 0
        assert abs(value - exact) <= 1e-10 * exact

    def test_pi_token_in_factor(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--factors", "pi:1")
        payload = json.loads(out)
        values = [complex(re, im) for re, im in payload["coefficients"]]
        assert code == 0
        assert_allclose(values, [1, 2, 1], atol=1e-15)

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--factors=-0.5:1"],
            ["coeffs", "--penta=-1,-4,1"],
            ["coeffs", "--factors", "0:1", "--eval=-pi/3"],
        ],
    )
    def test_negative_leading_value_joined_by_equals(self, capsys, argv):
        # argparse reads a separate "-0.5:1" as an option; joined by "=" it
        # is the option's value, and an angle is reduced as any other.
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if argv[1].startswith("--factors="):
            assert out == run_cli(capsys, "coeffs", "--factors", "5.783185307179586:1")[1]

    def test_byte_stability(self, capsys):
        _, first, _ = run_cli(capsys, "coeffs", "--factors", "0:1,2.0:1")
        _, second, _ = run_cli(capsys, "coeffs", "--factors", "0:1,2.0:1")
        assert first == second

    def test_requires_exactly_one_symbol_form(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--factors", "0:1", "--penta", "6,-4,1")
        assert code == 2
        assert "error" in err
        code, _, _ = run_cli(capsys, "coeffs")
        assert code == 2


class TestCheck:
    def test_all_verdicts_true(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--factors", "0:2", "--split", "7,7")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "check"
        assert payload["sizes"] == [7, 7]
        assert set(payload["margins"]) == {"floor_nn", "nn_vs_0n", "lower", "upper"}
        assert all(payload["verdicts"].values())
        assert payload["tol"] == 1e-9
        assert payload["version"]

    def test_classic_neumann_fails_with_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--factors", "0:2", "--split", "7,7", "--classic-neumann"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdicts"]["lower"] is False

    def test_real_symbol_of_degree_nine_is_not_refused(self, capsys):
        # Conjugate pairs plus pi: the row's imaginary rounding, 4.7e-14,
        # exceeds the tolerance for outside rows, 2.9e-14, which refused it
        # before the symbol decided.
        factors = "2.1395283511629204:2,4.143656956016666:2,0.709480123183981:2,5.573705183995605:2,3.141592653589793:1"
        code, out, err = run_cli(capsys, "check", "--factors", factors, "--split", "30,30", "--classic-neumann")
        assert (code, err) == (1, "")
        assert not json.loads(out)["verdicts"]["lower"]
        for tail in (["--size", "30", "--bc", "cc"], ["--matrix", "lap2-diff", "--split", "15,15"]):
            code, out, err = run_cli(capsys, "export", "--factors", factors, *tail)
            assert (code, err) == (0, "")
            assert len(out.splitlines()) == 31

    def test_classic_floor_takes_no_time_or_memory_in_the_size(self, capsys):
        # The floors are g at O(#factors) points of the DCT-II grid and
        # nn_vs_0n is lambda_min of the N x N corner, so a split of 2 * 10**8
        # is as quick as 7,7; the engine ran 5 * 10**7 rows a pass on it once.
        argv = ["check", "--factors", "0:2", "--split", "100000000,100000001", "--classic-neumann"]
        tracemalloc.start()
        try:
            start = time.process_time()
            code = main(argv)
            seconds = time.process_time() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert seconds < 1.0 and peak < 2**20, (seconds, peak)
        assert json.loads(capsys.readouterr().out)["margins"]["lower"] == -0.4721359549995794

    def test_penta_with_shifted_floor(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--penta", "6,-4,1", "--split", "8,8")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["verdicts"].values())
        assert payload["symbol_floor"] == pytest.approx(0.0, abs=1e-12)

    def test_classic_neumann_needs_factors(self, capsys):
        code, out, err = run_cli(
            capsys, "check", "--penta", "6,-4,1", "--split", "8,8", "--classic-neumann"
        )
        assert (code, out, err) == (2, "", "error: --classic-neumann is only supported with --factors\n")

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1e-9", "0.1"])
    def test_bad_tol_refused_before_any_build(self, capsys, monkeypatch, tol):
        # The threshold is fixed, so no --tol can loosen the failing classic
        # chain into exit 0: every one is a usage error.
        def reached(*args, **kwargs):
            pytest.fail("a certificate was started")

        monkeypatch.setattr(spectra, "check_bracketing", reached)
        monkeypatch.setattr(spectra, "check_bracketing_penta", reached)
        argv = ["check", "--factors", "0:2", "--split", "7,7", "--classic-neumann", f"--tol={tol}"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--factors", "1.0:1", "--split", "8,8", "--classic-neumann"],
            ["export", "--factors", "1.0:1", "--size", "8", "--bc", "cc"],
            ["export", "--factors", "1.0:1", "--matrix", "lap2-diff", "--split", "4,4"],
        ],
    )
    def test_classic_corner_of_complex_symbol_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: classic Neumann needs a real coefficient row")

    def test_degree_seven_symbol_holds(self, capsys):
        # Its convolved row is further from Hermitian than the tolerance for
        # outside rows allows; a product symbol's row skips that test.
        argv = ["check", "--factors", "4.48:2,3.19:1,1.72:2,6.09:2", "--split", "20,23"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert all(json.loads(out)["verdicts"].values())

    def test_certificate_past_its_proof_exits_one(self, capsys, monkeypatch):
        # A corner off its correctly rounded Gram sum by 1e-6 puts delta past
        # abs_tol: the certificate reports -delta, solves for no gap,
        # and floor_nn, lower and upper fail.
        calls = []
        exact = spectra._gram_corner

        def corrupted(bottom, kind):
            out = exact(bottom, kind).copy()
            out[0, 0] += 1e-6
            return out

        monkeypatch.setattr(spectra, "_gram_corner", corrupted)
        monkeypatch.setattr(_factor, "smallest_eigenvalues", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, "check", "--factors", "0:1,2.0:1", "--split", "7,9")
        assert code == 1 and err == "" and calls == []
        verdicts = json.loads(out)["verdicts"]
        assert verdicts == {"floor_nn": False, "nn_vs_0n": True, "lower": False, "upper": False}

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--factors", "0.8402:24,4.1623:16", "--split", "81,81"],
            ["check", "--factors", "1.1:64,4.0:64", "--split", "300,300"],
            ["gap", "--factors", "0.8402:24,4.1623:16", "--sizes", "128,160,256"],
        ],
        ids=["check_n40", "check_n128", "gap_n40"],
    )
    def test_high_degree_symbol_exits_zero(self, capsys, argv):
        # Valid symbols of degree 40 and 128 that exited 1 while the row was
        # convolved from triples: the certificate holds with no gap solve,
        # and the gap's kernels pass their check (160 = 4N is there for the
        # slope fit, which needs two sizes >= 4N).  Double precision does
        # not resolve the N = 40 gaps; each is a Rayleigh quotient, at or
        # above its floor, and none is the eigen engine's 1.026023963409079.
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        if argv[0] == "check":
            assert all(json.loads(out)["verdicts"].values())
        else:
            for record in json.loads(out)["records"]:
                assert record["floor"] <= record["gap"] != 1.026023963409079, record

    def test_size_too_small_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--factors", "0:2", "--split", "4,7")
        assert code == 2
        assert "error" in err


_LIBRARY_ERRORS = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.ToepbrackError)
]
_VERIFICATION_FAILURES = (errors.KernelMismatchError, errors.NoConvergenceError)


class TestExitCodes:
    def test_library_errors_are_found(self):
        assert set(_VERIFICATION_FAILURES) < set(_LIBRARY_ERRORS)
        assert errors.ToepbrackError in _LIBRARY_ERRORS

    @pytest.mark.parametrize(
        "error", [*_LIBRARY_ERRORS, ValueError, CliUsageError], ids=lambda cls: cls.__name__
    )
    def test_each_error_maps_to_one_status(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(spectra, "check_bracketing", fail)
        code, out, err = run_cli(capsys, "check", "--factors", "0:1", "--split", "7,9")
        assert out == ""
        if error in _VERIFICATION_FAILURES:
            assert (code, err) == (1, "verification failure: boom\n")
        else:
            assert (code, err) == (2, "error: boom\n")


class TestGap:
    def test_path_laplacian_scan(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--factors", "0:1", "--sizes", "8,16,32,64")
        assert code == 0
        payload = json.loads(out)
        assert payload["slope"] == pytest.approx(-2.0, abs=0.15)
        assert payload["kernel_dim"] == 1
        assert payload["c_empirical"] > 0
        for record in payload["records"]:
            assert record["gap"] >= record["floor"] - 1e-9

    def test_triple_root_floor_in_product_form(self, capsys):
        # Summed from the coefficient row, floor * L**6 would read 961.5,
        # 2048, 131072 and 0.0; the product form keeps it near the exact
        # (4 sin^2(pi/2L))**3 * L**6 at every size.
        code, out, _ = run_cli(capsys, "gap", "--factors", "0:3", "--sizes", "256,1024,2048,4096")
        assert code == 0
        for record in json.loads(out)["records"]:
            size = record["size"]
            exact = (4.0 * math.sin(math.pi / (2 * size)) ** 2) ** 3 * size**6
            assert record["floor"] * size**6 == pytest.approx(exact, rel=1e-10), size

    def test_floor_at_a_size_where_the_grid_shift_rounds_to_its_bound(self, capsys):
        # At L = 4096 the grid-shift induction leaves the first angle within
        # rounding of its distance bound; the floor is still computed.
        code, out, err = run_cli(
            capsys, "gap", "--factors", "5.218071545681226:1,3.133915468240826:1", "--sizes", "64,4096"
        )
        assert (code, err) == (0, "")
        for record in json.loads(out)["records"]:
            assert 0.0 < record["floor"] <= record["gap"]

    def test_two_factor_kernel_dim(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--factors", "0:1,2.0:1", "--sizes", "16,32,64"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_dim"] == 2
        assert len(payload["records"]) == 3

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        out_path = tmp_path / "gap.json"
        argv = ["gap", "--factors", "0:1", "--sizes", "8,16,32"]
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert (code, out) == (0, "")
        assert out_path.read_bytes() == run_cli(capsys, *argv)[1].encode()

    def test_seed_is_refused_before_any_scan(self, capsys, monkeypatch):
        # The floors are sampled with the fixed seed 0 that the report prints.
        def reached(*args, **kwargs):
            pytest.fail("a scan was started")

        monkeypatch.setattr(spectra, "gap_scan", reached)
        monkeypatch.setattr(spectra, "sampled_gap_floor", reached)
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--factors", "0:1", "--sizes", "8,16", "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed" in captured.err

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_floors_are_computed_only_for_the_json_report(
        self, capsys, monkeypatch, tmp_path, suffix
    ):
        # The JSON report is the only report: whatever the --out file is
        # called, every gap samples one floor per size and reports it.
        sampled = []

        def floor(spec, size, seed):
            sampled.append(size)
            return 0.0

        monkeypatch.setattr(spectra, "sampled_gap_floor", floor)
        out_path = tmp_path / f"gap.{suffix}"
        code, out, _ = run_cli(
            capsys, "gap", "--factors", "0:1", "--sizes", "8,16,32", "--out", str(out_path)
        )
        assert (code, out) == (0, "")
        assert sampled == [8, 16, 32]
        records = json.loads(out_path.read_text())["records"]
        assert [record["floor"] for record in records] == [0.0] * 3

    def test_penta_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--penta", "6,-4,1", "--sizes", "8,16")
        assert code == 2
        assert "factors" in err

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_observed_constant_past_float_range_is_usage_error(self, capsys, tmp_path, suffix):
        # 500**240 has no float64 value, and a power k**119 of the kernel
        # basis would not either before it is normalized.
        out_path = tmp_path / f"gap.{suffix}"
        argv = ["gap", "--factors", "0:120", "--sizes", "480,500", "--out", str(out_path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert not out_path.exists()
        assert err.startswith("error: c_empirical") and err.count("\n") == 1
        assert not any(word in err.lower() for word in ("traceback", "nan", "inf"))


class TestDenseSizeGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--factors", "0:1", "--sizes", "8,4097"],
            ["gap", "--factors", "0:1,2.0:1", "--sizes", "100000"],
            ["export", "--factors", "0:1", "--matrix", "lap2-diff", "--split", "4000,100"],
            ["export", "--penta", "6,-4,1", "--matrix", "lap2-diff", "--split", "5000,10"],
            ["export", "--factors", "0:1", "--size", "4097", "--bc", "nn"],
            ["export", "--factors", "0:1", "--size", "50000"],
            ["export", "--factors", "0:2", "--size", "5000", "--matrix", "circulant"],
            ["export", "--factors", "0:2", "--matrix", "lap2-diff", "--split", "3000,3000"],
            ["export", "--penta", "6,-4,1", "--size", "4097", "--bc", "dd"],
            ["export", "--penta", "6,-4,1", "--size", "5000", "--matrix", "toeplitz"],
        ],
    )
    def test_refused_before_any_dense_build(self, capsys, monkeypatch, argv):
        def reached(*args, **kwargs):
            pytest.fail("a dense window was requested")

        for module, name in (
            (spectra, "gap_scan"), (boundary, "_window"), (boundary, "_window_corners"),
            (spectra, "check_bracketing"), (spectra, "check_bracketing_penta"),
            (matrices, "circulant_periodic"), (boundary, "classic_split_difference"),
            (boundary, "_split_block"),
        ):
            monkeypatch.setattr(module, name, reached)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "exceeds the size cap 4096" in err
        assert "Traceback" not in err

    def test_limit_itself_is_accepted(self, capsys, monkeypatch):
        seen = []

        window_lines = cli._window_lines

        def small_window(size, model):
            seen.append(size)
            return window_lines(8, model)

        monkeypatch.setattr(cli, "_window_lines", small_window)
        code, _, _ = run_cli(capsys, "export", "--factors", "0:1", "--size", "4096")
        assert code == 0
        assert seen == [4096]

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--factors", "0:1", "--split", "4000,100"],
            ["check", "--penta", "6,-4,1", "--split", "5000,10"],
            ["check", "--factors", "0:1,2.0:1", "--split", "2048,2049"],
        ],
    )
    def test_check_is_not_capped(self, capsys, argv):
        # check builds no window, so the size cap of export does not bind it.
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        size1, size2 = (int(v) for v in argv[-1].split(","))
        if argv[1] == "--factors":
            report = check_bracketing(parse_factors(argv[2]), size1, size2)
        else:
            report, _ = check_bracketing_penta(*parse_penta(argv[2]), size1, size2)
        assert json.loads(out)["margins"] == report.margins


class TestExport:
    def test_restricted_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--factors", "0:1,2.0:1", "--size", "6", "--bc", "nn"
        )
        assert code == 0
        header, matrix = parse_matrix_csv(out)
        assert "dim=6" in header and "bc=nn" in header
        spec = make_symbol([(0.0, 1), (2.0, 1)])
        expected = build_restricted(
            spec, 6, BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.MODIFIED_NEUMANN
        )
        assert_allclose(matrix, expected.entries, atol=1e-15)

    def test_even_symbol_export_is_exactly_real(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--factors", "pi:1", "--size", "5", "--bc", "cc")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [rows[i][i + 1] for i in range(4)] + [rows[i + 1][i] for i in range(4)] == ["1+0i"] * 8

    def test_lap2_difference_contains_pattern(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "export", "--factors", "0:2", "--size", "8",
            "--matrix", "lap2-diff", "--split", "4,4",
        )
        assert code == 0
        _, matrix = parse_matrix_csv(out)
        coeffs = fourier_coefficients(make_symbol([(0.0, 2)]))
        assert_allclose(matrix, classic_split_difference(coeffs, 4, 4).entries, atol=0)
        assert_allclose(
            matrix[2:6, 2:6].real,
            [[0, -1, 1, 0], [-1, 4, -4, 1], [1, -4, 4, -1], [0, 1, -1, 0]],
            atol=0,
        )

    def test_circulant(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "4", "--matrix", "circulant"
        )
        assert code == 0
        _, matrix = parse_matrix_csv(out)
        coeffs = fourier_coefficients(make_symbol([(0.0, 1)]))
        assert_allclose(matrix, circulant_periodic(coeffs, 4).entries, atol=0)

    def test_default_is_plain_toeplitz(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--factors", "0:1", "--size", "5")
        assert code == 0
        header, matrix = parse_matrix_csv(out)
        assert "bc=00" in header
        coeffs = fourier_coefficients(make_symbol([(0.0, 1)]))
        assert_allclose(matrix, toeplitz_finite(coeffs, 5).entries, atol=0)

    def test_penta_restricted_affine(self, capsys):
        code, out, _ = run_cli(
            capsys, "export", "--penta", "7,-4,1", "--size", "6", "--bc", "nn"
        )
        assert code == 0
        _, matrix = parse_matrix_csv(out)
        spec = make_symbol([(0.0, 2)])
        base = build_restricted(
            spec, 6, BoundaryKind.MODIFIED_NEUMANN, BoundaryKind.MODIFIED_NEUMANN
        )
        assert_allclose(matrix, base.entries + np.eye(6), atol=1e-12)
        # Rows with two distinct angles: the row's own band plus scale times
        # the corners of g equals scale * W_g + shift * I up to rounding.
        for row in ((5.3, -2.7, 0.9), (1.5, 0.3, 0.8)):
            deco = decompose_pentadiagonal(*row)
            tol = 4 * np.finfo(float).eps * (abs(row[0]) + 2 * abs(row[1]) + 2 * abs(row[2]))
            for pair in ALL_PAIRS:
                left, right = (BoundaryKind.from_code(code) for code in pair)
                code, out, _ = run_cli(
                    capsys, "export", "--penta", ",".join(map(str, row)),
                    "--size", "9", "--bc", "".join(pair),
                )
                assert code == 0
                _, matrix = parse_matrix_csv(out)
                assert np.array_equal(matrix, matrix.conj().T), pair
                affine = build_restricted(deco.spec, 9, left, right).scaled(deco.scale)
                assert_allclose(matrix, affine.shifted(deco.shift).entries, rtol=0, atol=tol)

    @pytest.mark.parametrize("row", ["5.3,-2.7,0.9", "1.5,0.3,0.8", "7,-4,1", "1,5,1"])
    def test_penta_simple_edges_equal_the_toeplitz_window(self, capsys, row):
        # Both are the row's own band, so the two exports agree byte for byte,
        # also for 1,5,1, outside the pentadiagonal class: no edge reads g.
        plain = run_cli(capsys, "export", "--penta", row, "--size", "9", "--matrix", "toeplitz")
        restricted = run_cli(capsys, "export", "--penta", row, "--size", "9", "--bc", "00")
        assert plain[0] == 0
        assert restricted == plain

    def test_factors_toeplitz_equals_simple_edges(self, capsys):
        rng = np.random.default_rng(15)
        for _ in range(6):
            count = int(rng.integers(1, 4))
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, count))
            factors = ",".join(f"{float(e)!r}:{int(rng.integers(1, 3))}" for e in angles)
            size = str(int(rng.integers(13, 24)))
            plain = run_cli(capsys, "export", "--factors", factors, "--size", size, "--matrix", "toeplitz")
            restricted = run_cli(capsys, "export", "--factors", factors, "--size", size, "--bc", "00")
            assert plain[0] == 0, factors
            assert restricted == plain

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "m.csv"
        code, out, _ = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "4",
            "--matrix", "circulant", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("# dim=4")

    def test_unwritable_path_reports_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "4",
            "--out", "/nonexistent-dir/m.csv",
        )
        assert code == 2
        assert "/nonexistent-dir/m.csv" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_format_is_not_an_export_option(self, capsys, monkeypatch, fmt):
        # Nor an option of any command: export always writes CSV and the
        # others their one JSON report, so each is refused before it reads
        # the symbol or starts a certificate, scan or floor.
        def reached(*args, **kwargs):
            pytest.fail("a command was started")

        monkeypatch.setattr(cli, "_resolve_symbol", reached)
        for name in ("check_bracketing", "check_bracketing_penta", "gap_scan", "sampled_gap_floor"):
            monkeypatch.setattr(spectra, name, reached)
        for argv in (
            ["coeffs", "--factors", "0:1"],
            ["check", "--factors", "0:1", "--split", "7,9"],
            ["gap", "--factors", "0:1", "--sizes", "8,16"],
            ["export", "--factors", "0:1", "--size", "5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--format", fmt])
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --format" in captured.err

    @pytest.mark.parametrize("symbol", [["--factors", "1.0:1,2.5:2"], ["--penta", "5.3,-2.7,0.9"]])
    def test_size_is_checked_before_the_corners(self, capsys, symbol):
        # The size is refused before any corner is built; for the complex
        # symbol a classic corner would fail with another message.
        code, out, err = run_cli(capsys, "export", *symbol, "--size", "4", "--bc", "cc")
        assert code == 2
        assert out == ""
        assert err.startswith("error: window size 4 is below the minimum")

    def test_bad_bc_code(self, capsys):
        code, _, err = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "5", "--bc", "xz"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--bc", "n", "--size", "5"], "--bc needs two side codes from {0,n,d,c}, e.g. nn or 0d"),
            (["--bc", "nnn", "--size", "5"], "--bc needs two side codes from {0,n,d,c}, e.g. nn or 0d"),
            (["--matrix", "lap2-diff", "--size", "8"], "--matrix lap2-diff needs --split L1,L2"),
        ],
        ids=["bc-n", "bc-nnn", "lap2-diff-without-split"],
    )
    def test_malformed_export_is_refused_with_its_message(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "export", "--factors", "0:2", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("matrix", ["toeplitz", "circulant", "lap2-diff"])
    def test_bc_needs_the_restricted_matrix(self, capsys, matrix):
        # A boundary code on another kind would be dropped without a word.
        code, out, err = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "5", "--split", "4,4",
            "--matrix", matrix, "--bc", "nn",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --bc applies only to --matrix restricted, not {matrix}\n"

    @pytest.mark.parametrize("extra", [["--matrix", "toeplitz"], ["--bc", "nn"], []])
    def test_split_needs_the_lap2_diff_matrix(self, capsys, extra):
        code, out, err = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "5", "--split", "4,4", *extra
        )
        kind = "restricted" if "--bc" in extra else "toeplitz"
        assert code == 2
        assert out == ""
        assert err == f"error: --split applies only to --matrix lap2-diff, not {kind}\n"

    def test_lap2_diff_refuses_a_size_other_than_the_split_total(self, capsys):
        # Writing the dim=4 split difference would drop --size without a word.
        code, out, err = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "6",
            "--matrix", "lap2-diff", "--split", "2,2",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --size 6 differs from L1+L2 = 4 of --split\n"

    def test_lap2_diff_takes_the_split_total_as_size(self, capsys):
        argv = ["export", "--factors", "0:1", "--matrix", "lap2-diff", "--split", "2,2"]
        code, without, _ = run_cli(capsys, *argv)
        assert code == 0
        assert without.startswith("# dim=4 ")
        assert run_cli(capsys, *argv, "--size", "4") == (0, without, "")


class TestStreamedExport:
    def test_no_dense_builder_is_asked_for_the_export_size(self, capsys, monkeypatch):
        asked = []
        for name in ("_toeplitz_body", "_window", "circulant_periodic", "classic_split_difference"):
            for module in (boundary, matrices, cli):
                original = getattr(module, name, None)
                if original is None:
                    continue

                def spy(coeffs, size, *rest, _original=original, _name=name):
                    total = size + rest[0] if _name == "classic_split_difference" else size
                    asked.append((_name, total))
                    return _original(coeffs, size, *rest)

                monkeypatch.setattr(module, name, spy)
        for argv in (
            ["--factors", "0:1,2.0:1", "--size", "40"],
            ["--factors", "0:1,2.0:1", "--size", "40", "--bc", "nn"],
            ["--factors", "0:2", "--size", "40", "--bc", "cd"],
            ["--penta", "7.5,-3.25,1", "--size", "40", "--bc", "dn"],
            ["--factors", "0:1,2.0:1", "--size", "40", "--matrix", "circulant"],
            ["--factors", "0:2", "--matrix", "lap2-diff", "--split", "18,22"],
        ):
            code, _, err = run_cli(capsys, "export", *argv)
            assert (code, err) == (0, ""), argv
        assert asked
        assert all(size < 40 for _, size in asked), asked

    def test_export_at_the_cap_peaks_far_below_a_dense_window(self):
        # RUSAGE_CHILDREN keeps the largest peak of any waited-for child, so
        # the export runs as the only child of a fresh wrapper.
        pytest.importorskip("resource")
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'toepbrack', *sys.argv[1:]],"
            " stdout=subprocess.DEVNULL, check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        argv = ["export", "--factors", "0:1,2.0:1", "--size", "4096", "--bc", "nn"]
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), check=True,
        )
        # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
        peak = int(proc.stdout) * (1 if sys.platform == "darwin" else 1024)
        assert peak < 100e6


    def test_reader_closing_the_pipe_early_ends_the_export_quietly(self):
        # As when the whole text was written at once: a reader that stops
        # after the first bytes (``| head``) gets exit 0 and no traceback.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        argv = ["export", "--factors", "0:1", "--size", "4096"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "toepbrack", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.read(10) == b"# dim=4096"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""


def _per_cell_csv(matrix, symbol_token, bc_token):
    """Reference formatter: every cell of every row goes through ``_cell``."""
    lines = [f"# dim={matrix.dim} symbol={symbol_token} bc={bc_token}"]
    for row in matrix.entries:
        lines.append(",".join(cli._cell(z) for z in row))
    return "\n".join(lines) + "\n"


def _factors_token(spec):
    return "factors=" + ",".join(f"{format(e, '.17g')}:{m}" for e, m in spec.factors)


def _export_text(capsys, symbol_argv, *argv):
    code, out, err = run_cli(capsys, "export", *symbol_argv, *argv)
    assert (code, err) == (0, "")
    return out


def _factors_argv(spec):
    return ["--factors", ",".join(f"{e!r}:{m}" for e, m in spec.factors)]


def _rows_text(lines):
    return "".join(f"{line}\n" for line in lines)


class TestMatrixCsv:
    """``export`` writes each row from the band; the dense builders and a
    per-cell formatter are the oracle, byte for byte."""

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids="".join)
    def test_boundary_windows_match_per_cell_oracle(self, capsys, pair):
        left, right = (BoundaryKind.from_code(code) for code in pair)
        token = "".join(pair)
        for spec in _window_specs(pair):
            for size in (2 * spec.degree + 1, 40):
                matrix = build_restricted(spec, size, left, right)
                out = _export_text(capsys, _factors_argv(spec), "--size", str(size), "--bc", token)
                assert out == _per_cell_csv(matrix, _factors_token(spec), token), (spec, size)

    def test_plain_and_difference_matrices_match_per_cell_oracle(self, capsys):
        spec = make_symbol([(1.0, 1), (2.5, 2)])
        coeffs = fourier_coefficients(spec)
        for size in (2 * spec.degree + 1, 33, 40):
            for kind, token, matrix in (
                ("toeplitz", "00", toeplitz_finite(coeffs, size)),
                ("circulant", "per", circulant_periodic(coeffs, size)),
            ):
                out = _export_text(capsys, _factors_argv(spec), "--size", str(size), "--matrix", kind)
                assert out == _per_cell_csv(matrix, _factors_token(spec), token), (kind, size)
        for lap2 in (make_symbol([(0.0, 2)]), make_symbol([(0.0, 1), (np.pi, 1)])):
            n = lap2.degree
            for size1, size2 in ((n + 1, n + 1), (9, 11), (20, 20)):
                matrix = classic_split_difference(fourier_coefficients(lap2), size1, size2)
                argv = ("--matrix", "lap2-diff", "--split", f"{size1},{size2}")
                out = _export_text(capsys, _factors_argv(lap2), *argv)
                assert out == _per_cell_csv(matrix, _factors_token(lap2), "lap2-diff"), (size1, size2)

    def test_scaled_shifted_penta_window_matches_per_cell_oracle(self, capsys):
        # The row's own band, its shift on the diagonal, plus scale times
        # the corners of its product symbol, built densely.
        row = (7.5, -3.25, 1.0)
        deco = decompose_pentadiagonal(*row)
        coeffs = penta_coefficients(*row)
        for pair in ("nn", "0d", "dn"):
            left, right = (BoundaryKind.from_code(code) for code in pair)
            corners = _window_corners(left, right, _row_and_stencil(deco.spec))
            top, bottom = (None if b is None else deco.scale * b for b in corners)
            for size in (5, 30, 40):
                matrix = HermitianMatrix(_window(coeffs, size, top, bottom).entries)
                out = _export_text(capsys, ["--penta", "7.5,-3.25,1"], "--size", str(size), "--bc", pair)
                assert out == _per_cell_csv(matrix, "penta=7.5,-3.25,1", pair), (pair, size)

    def test_signed_zeros_keep_their_sign(self):
        # No symbol of the CLI yields a signed zero, so the row writers get
        # them directly: in the band, in the corners, in the wrap of a
        # circulant model and in a split block.
        entries = np.array(
            [
                [complex(-0.0, 0.0), complex(0.0, -0.0), 0, complex(-0.0, -0.0)],
                [complex(0.0, 0.0), 2, complex(-0.0, 1.0), 0],
                [0, complex(-0.0, -1.0), 2, complex(0.0, -0.0)],
                [complex(-0.0, 0.0), 0, complex(-0.0, 0.0), 1],
            ]
        )
        matrix = HermitianMatrix(entries)
        text = _rows_text(cli._split_lines(entries, 2, 2))
        assert text == _per_cell_csv(matrix, "s", "x").split("\n", 1)[1]
        first = text.splitlines()[0]
        assert first == "-0+0i,0-0i,0+0i,-0-0i"

        coeffs = banded_coefficients([1, complex(-0.0, 0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), 1])
        corner = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(0.0, 0.0), complex(-0.0, 0.0)]])
        for top, bottom in ((None, corner), (corner, None), (corner, corner)):
            model = _window(coeffs, 5, top, bottom)
            for size in (5, 9):
                dense = _window(coeffs, size, top, bottom)
                rows = _rows_text(cli._window_lines(size, model))
                assert rows == _per_cell_csv(dense, "s", "x").split("\n", 1)[1]
                assert "-0+0i" in rows
        model = circulant_periodic(coeffs, 5)
        for size in (5, 9):
            rows = _rows_text(cli._window_lines(size, model))
            assert rows == _per_cell_csv(circulant_periodic(coeffs, size), "s", "x").split("\n", 1)[1]
            assert "-0+0i" in rows and ",0-0i" in rows
        padded = np.zeros((9, 9), dtype=complex)
        padded[2:6, 2:6] = entries
        rows = _rows_text(cli._split_lines(entries, 4, 5))
        assert rows == _per_cell_csv(HermitianMatrix(padded), "s", "x").split("\n", 1)[1]

    def test_export_at_the_dense_cap(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--factors", "0:1", "--size", "4096", "--bc", "nn")
        assert code == 0
        lines = out.splitlines()
        del out
        assert lines[0].startswith("# dim=4096 ")
        assert len(lines) == 4097
        assert all(line.count(",") == 4095 for line in lines[1:])
        assert lines[1].startswith("1+0i,-1+0i,0+0i,")
