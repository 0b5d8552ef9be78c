"""Command-line front end.

Subcommands
-----------
coeffs   print the banded coefficient row of a symbol, optionally sampled
check    certify the four-inequality bracketing chain at one split
gap      scan the spectral gap over window sizes and fit its decay
export   write a constructed matrix as CSV

Usage examples::

    toepbrack coeffs --factors 0:2
    toepbrack coeffs --penta 6,-4,1
    toepbrack check --factors 0:1,2.0:1 --split 7,9
    toepbrack check --factors 0:2 --split 7,7 --classic-neumann
    toepbrack gap --factors 0:1 --sizes 8,16,32,64,128
    toepbrack export --factors 0:2 --size 8 --matrix lap2-diff --split 4,4

Angles are radians; the token ``pi`` is accepted with an optional
coefficient and divisor (``pi``, ``2pi``, ``pi/3``, ``0.5pi``).  Exit
status is 0 on success with all verdicts true, 1 on a verification
failure, 2 on usage errors.  Windows are stored densely, so a size above
4096 (for ``--split`` the sum L1+L2) is a usage error, refused before
anything is built.  Output is byte-stable for fixed inputs: JSON
uses shortest round-trip floats, CSV cells carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .boundary import BoundaryKind, build_restricted, classic_split_difference
from .errors import (
    DimensionMismatchError,
    DuplicateAngleError,
    DuplicateNodeError,
    InvalidMultiplicityError,
    KernelMismatchError,
    NoConvergenceError,
    NonHermitianError,
    NonRealSymbolError,
    OutOfClassError,
    SizeTooSmallError,
    ToepbrackError,
)
from .matrices import HermitianMatrix, circulant_periodic, toeplitz_finite
from .spectra import check_bracketing, check_bracketing_penta, gap_scan, sampled_gap_floor
from .symbols import (
    SymbolSpec,
    decompose_pentadiagonal,
    evaluate_symbol,
    fourier_coefficients,
    make_symbol,
    penta_coefficients,
)

_USAGE_ERRORS = (
    DuplicateAngleError,
    InvalidMultiplicityError,
    NonRealSymbolError,
    NonHermitianError,
    OutOfClassError,
    SizeTooSmallError,
    DimensionMismatchError,
    DuplicateNodeError,
)


class CliUsageError(Exception):
    pass


#: Largest window size accepted; building a dense window of size L peaks
#: near 64 * L**2 bytes, about 1 GB at this limit.
_MAX_DENSE_SIZE = 4096


def _require_dense(size: int, source: str) -> None:
    if size > _MAX_DENSE_SIZE:
        raise CliUsageError(
            f"window size {size} from {source} exceeds the dense limit {_MAX_DENSE_SIZE}"
        )


_ANGLE_RE = re.compile(
    r"^\s*(?P<coef>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-])?"
    r"\s*\*?\s*(?P<pi>pi)?\s*(?:/\s*(?P<div>\d+\.?\d*))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse a radian literal, optionally using the token ``pi``."""
    m = _ANGLE_RE.match(text)
    if m is None:
        raise CliUsageError(f"cannot parse angle {text!r}")
    coef_s, pi_s, div_s = m.group("coef"), m.group("pi"), m.group("div")
    if coef_s in (None, "") and pi_s is None:
        raise CliUsageError(f"cannot parse angle {text!r}")
    if coef_s in (None, ""):
        coef = 1.0
    elif coef_s in ("+", "-"):
        if pi_s is None:
            raise CliUsageError(f"cannot parse angle {text!r}")
        coef = 1.0 if coef_s == "+" else -1.0
    else:
        coef = float(coef_s)
    value = coef * (math.pi if pi_s else 1.0)
    if div_s:
        value /= float(div_s)
    return value


def parse_factors(text: str) -> SymbolSpec:
    factors = []
    for item in text.split(","):
        if ":" not in item:
            raise CliUsageError(f"factor {item!r} must look like ANGLE:MULTIPLICITY")
        angle_s, mult_s = item.rsplit(":", 1)
        try:
            mult = int(mult_s)
        except ValueError as exc:
            raise CliUsageError(f"bad multiplicity in {item!r}") from exc
        factors.append((parse_angle(angle_s), mult))
    return make_symbol(factors)


def parse_penta(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliUsageError("--penta needs three comma-separated values a0,a1,a2")
    try:
        a0, a1, a2 = (float(p) for p in parts)
    except ValueError as exc:
        raise CliUsageError(f"bad pentadiagonal values {text!r}") from exc
    return a0, a1, a2


def parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"bad {what} list {text!r}") from exc
    if not values:
        raise CliUsageError(f"empty {what} list")
    return values


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell(z: complex) -> str:
    return f"{format(z.real, '.17g')}{format(z.imag, '+.17g')}i"


def _symbol_token(args) -> str:
    if args.factors is not None:
        spec = args.parsed_spec
        return "factors=" + ",".join(f"{_fmt(e)}:{m}" for e, m in spec.factors)
    return "penta=" + ",".join(_fmt(v) for v in args.parsed_penta)


def _symbol_json(args) -> dict:
    if args.factors is not None:
        return {"factors": [[e, m] for e, m in args.parsed_spec.factors]}
    return {"penta": list(args.parsed_penta)}


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliUsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _matrix_csv(matrix: HermitianMatrix, symbol_token: str, bc_token: str) -> str:
    lines = [f"# dim={matrix.dim} symbol={symbol_token} bc={bc_token}"]
    for row in matrix.entries:
        lines.append(",".join(_cell(z) for z in row))
    return "\n".join(lines) + "\n"


def _resolve_symbol(args) -> None:
    if (args.factors is None) == (args.penta is None):
        raise CliUsageError("provide exactly one of --factors or --penta")
    args.parsed_spec = parse_factors(args.factors) if args.factors is not None else None
    args.parsed_penta = parse_penta(args.penta) if args.penta is not None else None


def cmd_coeffs(args) -> int:
    _resolve_symbol(args)
    decomposition = None
    if args.parsed_spec is not None:
        coeffs = fourier_coefficients(args.parsed_spec)
    else:
        a0, a1, a2 = args.parsed_penta
        coeffs = penta_coefficients(a0, a1, a2)
        deco = decompose_pentadiagonal(a0, a1, a2)
        decomposition = {
            "scale": deco.scale,
            "shift": deco.shift,
            "factors": [[e, m] for e, m in deco.spec.factors],
        }
    report = {
        "command": "coeffs",
        "symbol": _symbol_json(args),
        "half_bandwidth": coeffs.half_bandwidth,
        "coefficients": [[z.real, z.imag] for z in coeffs.a],
    }
    if decomposition is not None:
        report["decomposition"] = decomposition
    if args.eval is not None:
        x = parse_angle(args.eval)
        report["eval"] = {"x": x, "value": evaluate_symbol(coeffs, x)}
    if args.format == "csv":
        n = coeffs.half_bandwidth
        lines = [f"# command=coeffs symbol={_symbol_token(args)}", "k,re,im"]
        for k in range(-n, n + 1):
            z = coeffs[k]
            lines.append(f"{k},{_fmt(z.real)},{_fmt(z.imag)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def cmd_check(args) -> int:
    _resolve_symbol(args)
    split = parse_int_list(args.split, "split")
    if len(split) != 2:
        raise CliUsageError("--split needs exactly two sizes L1,L2")
    size1, size2 = split
    _require_dense(size1 + size2, "--split")
    if args.parsed_spec is not None:
        neumann = (
            BoundaryKind.CLASSIC_NEUMANN if args.classic_neumann else BoundaryKind.MODIFIED_NEUMANN
        )
        report = check_bracketing(args.parsed_spec, size1, size2, tol=args.tol, neumann=neumann)
    else:
        if args.classic_neumann:
            raise CliUsageError("--classic-neumann is only supported with --factors")
        report, _ = check_bracketing_penta(*args.parsed_penta, size1, size2, tol=args.tol)
    payload = {
        "command": "check",
        "symbol": _symbol_json(args),
        "sizes": [report.size1, report.size2],
        "margins": report.margins,
        "verdicts": report.verdicts,
        "symbol_floor": report.symbol_floor,
        "tol": report.rel_tol,
        "version": __version__,
    }
    if args.format == "csv":
        lines = [f"# command=check symbol={_symbol_token(args)} sizes={report.size1},{report.size2}"]
        lines.append("inequality,margin,verdict")
        for name in ("floor_nn", "nn_vs_0n", "lower", "upper"):
            lines.append(f"{name},{_fmt(report.margins[name])},{report.verdicts[name]}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if report.all_hold else 1


def cmd_gap(args) -> int:
    _resolve_symbol(args)
    if args.parsed_spec is None:
        raise CliUsageError("gap scans need --factors (a product symbol)")
    sizes = parse_int_list(args.sizes, "sizes")
    for size in sizes:
        _require_dense(size, "--sizes")
    spec = args.parsed_spec
    report = gap_scan(spec, sizes)
    floors = {s: sampled_gap_floor(spec, s, seed=args.seed) for s, _ in report.records}
    payload = {
        "command": "gap",
        "symbol": _symbol_json(args),
        "sizes": [s for s, _ in report.records],
        "records": [
            {"size": s, "gap": g, "floor": floors[s]} for s, g in report.records
        ],
        "slope": report.slope,
        "intercept": report.intercept,
        "c_empirical": report.c_empirical,
        "alpha_max": report.alpha_max,
        "kernel_dim": spec.degree,
        "seed": args.seed,
        "version": __version__,
    }
    if args.format == "csv":
        lines = [
            f"# command=gap symbol={_symbol_token(args)} alpha_max={report.alpha_max}",
            f"# slope={_fmt(report.slope)} intercept={_fmt(report.intercept)}"
            f" c_empirical={_fmt(report.c_empirical)}",
            "size,gap",
        ]
        for s, g in report.records:
            lines.append(f"{s},{_fmt(g)}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_export(args) -> int:
    _resolve_symbol(args)
    kind = args.matrix or ("restricted" if args.bc else "toeplitz")
    if args.parsed_spec is not None:
        coeffs = fourier_coefficients(args.parsed_spec)
    else:
        coeffs = penta_coefficients(*args.parsed_penta)

    if kind == "lap2-diff":
        if not args.split:
            raise CliUsageError("--matrix lap2-diff needs --split L1,L2")
        size1, size2 = parse_int_list(args.split, "split")
        _require_dense(size1 + size2, "--split")
        matrix = classic_split_difference(coeffs, size1, size2)
        bc_token = "lap2-diff"
    else:
        if not args.size:
            raise CliUsageError(f"--matrix {kind} needs --size")
        _require_dense(args.size, "--size")
        if kind == "toeplitz":
            matrix = toeplitz_finite(coeffs, args.size)
            bc_token = "00"
        elif kind == "circulant":
            matrix = circulant_periodic(coeffs, args.size)
            bc_token = "per"
        elif kind == "restricted":
            code = args.bc or "nn"
            if len(code) != 2:
                raise CliUsageError("--bc needs two side codes from {0,n,d,c}, e.g. nn or 0d")
            left = BoundaryKind.from_code(code[0])
            right = BoundaryKind.from_code(code[1])
            if args.parsed_spec is not None:
                matrix = build_restricted(args.parsed_spec, args.size, left, right)
            else:
                deco = decompose_pentadiagonal(*args.parsed_penta)
                base = build_restricted(deco.spec, args.size, left, right)
                matrix = base.scaled(deco.scale).shifted(deco.shift)
            bc_token = code
        else:
            raise CliUsageError(f"unknown matrix kind {kind!r}")
    _emit(_matrix_csv(matrix, _symbol_token(args), bc_token), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepbrack",
        description="banded Toeplitz boundary conditions, bracketing certificates and gap scans",
    )
    parser.add_argument("--version", action="version", version=f"toepbrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_symbol_opts(p):
        p.add_argument("--factors", help="comma list of ANGLE:MULTIPLICITY, angles in radians (pi token allowed)")
        p.add_argument("--penta", help="pentadiagonal coefficients a0,a1,a2")

    def add_io_opts(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("coeffs", help="coefficient row of a symbol")
    add_symbol_opts(p)
    p.add_argument("--eval", help="also evaluate the symbol at this angle")
    add_io_opts(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("check", help="certify the bracketing inequality chain")
    add_symbol_opts(p)
    p.add_argument("--split", required=True, help="window sizes L1,L2")
    p.add_argument("--tol", type=float, default=1e-9, help="relative margin tolerance")
    p.add_argument(
        "--classic-neumann",
        action="store_true",
        help="substitute the classic Toeplitz-plus-Hankel condition (brackets only the plain Laplacian 0:1)",
    )
    add_io_opts(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gap", help="spectral-gap scan over window sizes")
    add_symbol_opts(p)
    p.add_argument("--sizes", required=True, help="comma list of window sizes")
    p.add_argument("--seed", type=int, default=0, help="seed for the sampled gap-floor cross-check")
    add_io_opts(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("export", help="write a constructed matrix as CSV")
    add_symbol_opts(p)
    p.add_argument("--size", type=int, help="window size L")
    p.add_argument("--split", help="sizes L1,L2 (for --matrix lap2-diff)")
    p.add_argument(
        "--matrix",
        choices=("toeplitz", "circulant", "restricted", "lap2-diff"),
        help="matrix kind; defaults to restricted when --bc is given, else toeplitz",
    )
    p.add_argument("--bc", help="two boundary codes from {0,n,d,c}, e.g. nn, 0d, n0")
    add_io_opts(p)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliUsageError, ValueError, *_USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KernelMismatchError, NoConvergenceError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ToepbrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
