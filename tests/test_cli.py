"""Command-line surface: parsing, report schemas, exit codes, exports."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from toepbrack import (
    BoundaryKind,
    build_restricted,
    circulant_periodic,
    classic_split_difference,
    fourier_coefficients,
    make_symbol,
    toeplitz_finite,
)
from toepbrack import cli
from toepbrack.cli import main, parse_angle


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
        from toepbrack.cli import CliUsageError

        with pytest.raises(CliUsageError):
            parse_angle(text)


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


class TestDenseSizeGuard:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "--factors", "0:1", "--sizes", "8,4097"],
            ["gap", "--factors", "0:1,2.0:1", "--sizes", "100000"],
            ["check", "--factors", "0:1", "--split", "4000,100"],
            ["check", "--penta", "6,-4,1", "--split", "5000,10"],
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
