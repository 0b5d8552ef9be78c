"""Command-line surface: parsing, report schemas, exit codes, exports."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from toepbrack import (
    BoundaryKind,
    HermitianMatrix,
    build_restricted,
    check_bracketing,
    check_bracketing_penta,
    circulant_periodic,
    classic_split_difference,
    decompose_pentadiagonal,
    fourier_coefficients,
    make_symbol,
    toeplitz_finite,
)
from toepbrack import cli
from toepbrack.cli import (
    CliUsageError,
    main,
    parse_angle,
    parse_factors,
    parse_int_list,
    parse_penta,
)
from test_boundary import ALL_PAIRS, _window_specs


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
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_any_text_is_a_finite_symbol_or_refused(self, text):
        try:
            spec = parse_factors(text)
        except (CliUsageError, *cli._USAGE_ERRORS):
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

    def test_pi_token_in_factor(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--factors", "pi:1")
        payload = json.loads(out)
        values = [complex(re, im) for re, im in payload["coefficients"]]
        assert code == 0
        assert_allclose(values, [1, 2, 1], atol=1e-15)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--factors", "0:1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "k,re,im"
        assert lines[2].startswith("-1,")

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

    def test_penta_with_shifted_floor(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--penta", "6,-4,1", "--split", "8,8")
        assert code == 0
        payload = json.loads(out)
        assert all(payload["verdicts"].values())
        assert payload["symbol_floor"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1e-9"])
    def test_bad_tol_refused_before_any_build(self, capsys, monkeypatch, tol):
        def reached(*args, **kwargs):
            pytest.fail("a certificate was started")

        monkeypatch.setattr(cli, "check_bracketing", reached)
        monkeypatch.setattr(cli, "check_bracketing_penta", reached)
        argv = ["check", "--factors", "0:2", "--split", "7,7", "--classic-neumann", f"--tol={tol}"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tol must be a finite positive number")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--factors", "1.0:1", "--split", "8,8", "--classic-neumann"],
            ["export", "--factors", "1.0:1", "--size", "8", "--bc", "cc"],
        ],
    )
    def test_classic_corner_of_complex_symbol_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: Hermitian deviation")

    def test_size_too_small_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "--factors", "0:2", "--split", "4,7")
        assert code == 2
        assert "error" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--factors", "0:2", "--split", "7,7", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "inequality,margin,verdict"
        assert len(lines) == 6


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

    def test_two_factor_kernel_dim(self, capsys):
        code, out, _ = run_cli(
            capsys, "gap", "--factors", "0:1,2.0:1", "--sizes", "16,32,64"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kernel_dim"] == 2
        assert len(payload["records"]) == 3

    def test_csv_rows(self, capsys, tmp_path):
        out_path = tmp_path / "gap.csv"
        code, _, _ = run_cli(
            capsys,
            "gap", "--factors", "0:1", "--sizes", "8,16,32",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[2] == "size,gap"
        assert [row.split(",")[0] for row in lines[3:]] == ["8", "16", "32"]

    def test_penta_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gap", "--penta", "6,-4,1", "--sizes", "8,16")
        assert code == 2
        assert "factors" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_observed_constant_past_float_range_is_usage_error(self, capsys, fmt):
        # 500**240 has no float64 value, and a power k**119 of the kernel
        # basis would not either before it is normalized.
        argv = ["gap", "--factors", "0:120", "--sizes", "480,500", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
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
        ],
    )
    def test_refused_before_any_dense_build(self, capsys, monkeypatch, argv):
        def reached(*args, **kwargs):
            pytest.fail("a dense window was requested")

        for name in (
            "gap_scan", "build_restricted", "check_bracketing", "check_bracketing_penta",
            "toeplitz_finite", "circulant_periodic", "classic_split_difference",
        ):
            monkeypatch.setattr(cli, name, reached)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "dense limit 4096" in err
        assert "Traceback" not in err

    def test_limit_itself_is_accepted(self, capsys, monkeypatch):
        seen = []

        def small_window(coeffs, size):
            seen.append(size)
            return toeplitz_finite(coeffs, 8)

        monkeypatch.setattr(cli, "toeplitz_finite", small_window)
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
        # check builds no window, so the dense limit of export does not bind it.
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

    def test_bad_bc_code(self, capsys):
        code, _, err = run_cli(
            capsys, "export", "--factors", "0:1", "--size", "5", "--bc", "xz"
        )
        assert code == 2
        assert "error" in err


def _per_cell_csv(matrix, symbol_token, bc_token):
    """Reference formatter: every cell of every row goes through ``_cell``."""
    lines = [f"# dim={matrix.dim} symbol={symbol_token} bc={bc_token}"]
    for row in matrix.entries:
        lines.append(",".join(cli._cell(z) for z in row))
    return "\n".join(lines) + "\n"


class TestMatrixCsv:
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids="".join)
    def test_boundary_windows_match_per_cell_oracle(self, pair):
        left, right = (BoundaryKind.from_code(code) for code in pair)
        for spec in _window_specs(pair):
            for size in (2 * spec.degree + 1, 40):
                matrix = build_restricted(spec, size, left, right)
                token = "".join(pair)
                assert cli._matrix_csv(matrix, "s", token) == _per_cell_csv(matrix, "s", token)

    def test_plain_and_difference_matrices_match_per_cell_oracle(self):
        coeffs = fourier_coefficients(make_symbol([(1.0, 1), (2.5, 2)]))
        lap2 = fourier_coefficients(make_symbol([(0.0, 2)]))
        for matrix in (
            toeplitz_finite(coeffs, 33),
            circulant_periodic(coeffs, 33),
            classic_split_difference(lap2, 9, 11),
        ):
            assert cli._matrix_csv(matrix, "s", "x") == _per_cell_csv(matrix, "s", "x")

    def test_scaled_shifted_penta_window_matches_per_cell_oracle(self):
        deco = decompose_pentadiagonal(7.5, -3.25, 1.0)
        kind = BoundaryKind.MODIFIED_NEUMANN
        matrix = build_restricted(deco.spec, 30, kind, kind).scaled(deco.scale).shifted(deco.shift)
        assert cli._matrix_csv(matrix, "s", "nn") == _per_cell_csv(matrix, "s", "nn")

    def test_signed_zeros_keep_their_sign(self):
        entries = np.array(
            [
                [complex(-0.0, 0.0), complex(0.0, -0.0), 0, complex(-0.0, -0.0)],
                [complex(0.0, 0.0), 2, complex(-0.0, 1.0), 0],
                [0, complex(-0.0, -1.0), 2, complex(0.0, -0.0)],
                [complex(-0.0, 0.0), 0, complex(-0.0, 0.0), 1],
            ]
        )
        matrix = HermitianMatrix(entries)
        text = cli._matrix_csv(matrix, "s", "x")
        assert text == _per_cell_csv(matrix, "s", "x")
        first = text.splitlines()[1]
        assert first == "-0+0i,0-0i,0+0i,-0-0i"

    def test_export_at_the_dense_cap(self, capsys):
        code, out, _ = run_cli(capsys, "export", "--factors", "0:1", "--size", "4096", "--bc", "nn")
        assert code == 0
        lines = out.splitlines()
        del out
        assert lines[0].startswith("# dim=4096 ")
        assert len(lines) == 4097
        assert all(line.count(",") == 4095 for line in lines[1:])
        assert lines[1].startswith("1+0i,-1+0i,0+0i,")
