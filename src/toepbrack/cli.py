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
coefficient and divisor (``pi``, ``2pi``, ``pi/3``, ``0.5pi``) and must be
finite; ``--tol`` must be finite and positive.  Exit status is 0 on
success with all verdicts true, 1 on a verification failure, 2 on usage
errors.  ``export`` writes a dense window, so there a size above 4096 (for
``--split`` the sum L1+L2) is a usage error, refused before anything is
built; ``gap --sizes`` keeps the same limit, its kernel check holding an
L x N basis.  ``check`` builds no window and takes any split.  A
coefficient row outside the float64 range is a usage error too: a symbol of
degree above 511, or a ``--penta`` row with sum |a_k| above 4**511.  A
``gap`` scan whose observed constant gap * L**(2*alpha_max) leaves the
float64 range exits 2 as well.  Output is byte-stable for fixed inputs:
JSON uses shortest round-trip floats, CSV cells carry 17 significant
digits.  A zero cell is written ``0+0i``; a signed zero keeps its sign
(``-0+0i``, ``0-0i``).
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


#: Largest window size ``export`` accepts; a dense window of size L takes
#: 16 * L**2 bytes, 268 MB at this limit.  ``gap`` builds no window but keeps
#: the limit on ``--sizes`` (its kernel check holds an L x N basis);
#: ``check`` has none.
_MAX_DENSE_SIZE = 4096


def _require_dense(size: int, source: str) -> None:
    if size > _MAX_DENSE_SIZE:
        raise CliUsageError(
            f"window size {size} from {source} exceeds the dense limit {_MAX_DENSE_SIZE}"
        )


#: Largest symbol degree accepted.  sum |a_k| <= 4**N for a product symbol
#: of degree N, with equality for (2 - 2*cos(x))**N, so up to this degree
#: every coefficient row stays below 2**1022 and its symmetrization (which
#: doubles entries) cannot overflow.  A --penta row must respect the same
#: bound on sum |a_k|.
_MAX_DEGREE = 511
_MAX_ROW_SUM = 4.0**_MAX_DEGREE


_ANGLE_RE = re.compile(
    r"^\s*(?P<coef>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-])?"
    r"\s*\*?\s*(?P<pi>pi)?\s*(?:/\s*(?P<div>\d+\.?\d*))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse a radian literal, optionally using the token ``pi``; it must be finite."""
    m = _ANGLE_RE.match(text)
    if m is None or (m.group("pi") is None and m.group("coef") in (None, "", "+", "-")):
        raise CliUsageError(f"cannot parse angle {text!r}")
    coef_s, pi_s, div_s = m.group("coef"), m.group("pi"), m.group("div")
    coef = -1.0 if coef_s == "-" else 1.0 if coef_s in (None, "", "+") else float(coef_s)
    div = float(div_s) if div_s else 1.0
    value = coef * (math.pi if pi_s else 1.0) / div if div else math.inf
    if not math.isfinite(value):
        raise CliUsageError(f"angle {text!r} is not a finite number")
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
    spec = make_symbol(factors)
    if spec.degree > _MAX_DEGREE:
        raise CliUsageError(
            f"symbol degree {spec.degree} exceeds {_MAX_DEGREE}: its coefficients"
            " would leave the float64 range"
        )
    return spec


def parse_penta(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliUsageError("--penta needs three comma-separated values a0,a1,a2")
    try:
        a0, a1, a2 = (float(p) for p in parts)
    except ValueError as exc:
        raise CliUsageError(f"bad pentadiagonal values {text!r}") from exc
    if not all(math.isfinite(v) for v in (a0, a1, a2)):
        raise CliUsageError(f"pentadiagonal values {text!r} are not all finite numbers")
    if abs(a0) + 2.0 * abs(a1) + 2.0 * abs(a2) > _MAX_ROW_SUM:
        raise CliUsageError(
            f"pentadiagonal values {text!r} leave the float64 range:"
            f" sum |a_k| exceeds 4**{_MAX_DEGREE}"
        )
    return a0, a1, a2


def parse_int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"bad {what} list {text!r}") from exc
    if not values:
        raise CliUsageError(f"empty {what} list")
    return values


def _split_sizes(text: str) -> tuple[int, int]:
    split = parse_int_list(text, "split")
    if len(split) != 2:
        raise CliUsageError("--split needs exactly two sizes L1,L2")
    return split[0], split[1]


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
    entries = np.ascontiguousarray(matrix.entries, dtype=np.complex128)
    # Windows are banded, so most cells are zero.  The test is on the bits,
    # not on ``!= 0``, so that a signed zero still goes through _cell.
    nonzero = entries.view(np.uint64).reshape(*entries.shape, 2).any(axis=2)
    zero_cell = _cell(0j)
    for row, mask in zip(entries, nonzero):
        cells = [zero_cell] * len(row)
        cols = np.flatnonzero(mask)
        for j, z in zip(cols.tolist(), row[cols].tolist()):
            cells[j] = _cell(z)
        lines.append(",".join(cells))
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
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise CliUsageError(f"--tol must be a finite positive number, got {args.tol!r}")
    _resolve_symbol(args)
    size1, size2 = _split_sizes(args.split)
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
    if not math.isfinite(report.c_empirical):
        raise CliUsageError(
            f"c_empirical = min gap * L**{2 * report.alpha_max} leaves the float64 range;"
            " use smaller sizes"
        )
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
        size1, size2 = _split_sizes(args.split)
        _require_dense(size1 + size2, "--split")
        matrix = classic_split_difference(coeffs, size1, size2)
        bc_token = "lap2-diff"
    else:
        if args.size is None:
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
