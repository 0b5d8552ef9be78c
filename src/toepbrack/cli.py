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
finite.  ``check`` compares each margin with the fixed threshold
-1e-9 * max(1, sum |a_k|) and ``gap`` samples its floors with seed 0;
neither can be set.

A value that starts with a minus and is not a plain number must be joined
to its option by ``=`` (``--factors=-0.5:1``, ``--penta=-1,-4,1``,
``--eval=-pi/3``): argparse reads a separate ``-0.5:1`` as an option.

Each command reads its input once and returns its exit status and its
output lines; ``main`` writes them, line by line, and maps errors to exit
statuses in one place.  ``coeffs``, ``check`` and ``gap`` write one JSON
report each (``gap`` with the sampled floor of every size); ``export``
writes CSV.  Each command imports the library modules it uses when it runs, so
``coeffs`` loads only ``symbols`` and ``export`` never loads ``spectra``.  Exit status
is 0 on success with all verdicts true; 1 on a false ``check`` verdict or a
verification failure (``KernelMismatchError``, or ``NoConvergenceError`` of
an iteration past its step or sweep budget, reported as
``verification failure:``); 2 on any other library error, a
``ValueError`` or a usage error (``error:``).  ``coeffs --eval`` evaluates
g with ``evaluate_symbol``, in product form, and a ``--penta`` row as
scale * g + shift.  ``export`` builds no matrix of its size: one row
writer lays out every banded export (toeplitz, restricted, ``--penta``,
circulant) from its model, the same matrix at size 2N+1, which is the
window with its corners or the circulant with its wrap; ``lap2-diff``
writes the 2N rows of the split block.  Rows are written as they are
formed, after every check.  Its output grows as L**2, so a size above
4096 (for ``--split`` the sum L1+L2) is a usage error, refused before
anything is written; ``gap --sizes`` keeps the same cap, its kernel
check holding an L x N basis.  ``export`` refuses ``--bc`` with any kind but
``--matrix restricted``, ``--split`` with any but ``lap2-diff``, and with
``lap2-diff`` a ``--size`` other than L1+L2, rather than drop them.  It
builds ``--matrix toeplitz`` as ``--bc 00``: each such window is the
input's own coefficient row plus a corner block at each edge that is not
simple, for ``--penta`` the row's scale times the corner of its product
symbol, so only such an edge needs the row in the pentadiagonal class.
``check`` builds no window and takes any split.  A coefficient row outside
the float64 range is a usage error too: a symbol of degree above 511, or a
``--penta`` row with sum |a_k| above 4**511.  A ``gap`` scan whose observed
constant gap * L**(2*alpha_max) leaves the float64 range exits 2 as well.
Output is byte-stable for fixed inputs: JSON uses shortest round-trip
floats, ``export`` cells carry 17 significant digits.  A zero cell is written
``0+0i``; a signed zero keeps its sign (``-0+0i``, ``0-0i``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from typing import Iterable, Iterator, Optional, Sequence

from . import __version__
from .errors import KernelMismatchError, NoConvergenceError, ToepbrackError
from .symbols import (
    SymbolSpec,
    _row_and_stencil,
    decompose_pentadiagonal,
    evaluate_symbol,
    fourier_coefficients,
    make_symbol,
    penta_coefficients,
)


class CliUsageError(Exception):
    pass


#: Largest size of an ``export`` CSV, which has L**2 cells, about 84 MB
#: at this cap, and of each ``gap --sizes`` entry (its kernel check holds
#: an L x N basis).  Neither builds an L x L matrix; ``check`` has no cap.
_SIZE_CAP = 4096


def _require_within_cap(size: int, source: str) -> None:
    if size > _SIZE_CAP:
        raise CliUsageError(f"window size {size} from {source} exceeds the size cap {_SIZE_CAP}")


#: The seed of the sampled gap floors that ``gap`` reports.
_FLOOR_SEED = 0


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
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"bad {what} list {text!r}") from exc


def _split_sizes(text: str) -> tuple[int, int]:
    split = parse_int_list(text, "split")
    if len(split) != 2:
        raise CliUsageError("--split needs exactly two sizes L1,L2")
    return split[0], split[1]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell(z: complex) -> str:
    return f"{format(z.real, '.17g')}{format(z.imag, '+.17g')}i"


#: ``_cell(0j)``, the text of every cell outside a row's runs.
_ZERO = "0+0i"


def _emit(lines: Iterable[str], out_path: Optional[str]) -> None:
    """Write each line, as it is formed, to ``out_path`` or to stdout."""
    if not out_path:
        try:
            _write_lines(sys.stdout, lines)
        except BrokenPipeError:
            # The reader closed the pipe (``| head``) and wants no more rows.
            # stdout now goes to devnull, so the flush at exit cannot fail too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write_lines(fh, lines)
    except OSError as exc:
        raise CliUsageError(f"cannot write {out_path}: {exc}") from exc


def _write_lines(fh, lines: Iterable[str]) -> None:
    for line in lines:
        fh.write(line)
        fh.write("\n")


def _cells(values) -> list[str]:
    """The ``_cell`` text of each value of a row or of a block row."""
    return [_cell(z) for z in values.tolist()]


def _line(size: int, *runs: tuple[int, list[str]]) -> str:
    """One CSV row of ``size`` cells: ``runs`` are (first column, cell texts)
    in column order, and every other cell is zero."""
    parts, col = [], 0
    for start, cells in runs:
        parts.append(f"{_ZERO}," * (start - col) + ",".join(cells))
        col = start + len(cells)
    return ",".join(parts) + f",{_ZERO}" * (size - col)


def _window_lines(size: int, model) -> Iterator[str]:
    """The rows of a banded export at ``size`` from ``model``, its matrix at size 2N+1.

    ``model`` is a ``boundary._window`` or a ``matrices.circulant_periodic``.
    Row i < N of the export is model row i, split after column i+N; rows
    N..size-N-1 are model row N, the band, at column i-N; row size-N+r is
    model row N+1+r, split after column r.  The part of a split row after
    its split moves right by size - (2N+1), and ``_line`` writes the zeros
    between, so a corner stays at its edge and a wrap reaches round.
    """
    n = model.dim // 2
    rows = [_cells(row) for row in model.entries]

    def split(row: list[str], col: int) -> str:
        return _line(size, (0, row[: col + 1]), (size - 2 * n + col, row[col + 1 :]))

    for i in range(n):
        yield split(rows[i], i + n)
    for i in range(n, size - n):
        yield _line(size, (i - n, rows[n]))
    for r in range(n):
        yield split(rows[n + 1 + r], r)


def _split_lines(block, size1: int, size2: int) -> Iterator[str]:
    """The rows of ``boundary.classic_split_difference``: zero but for the
    2N rows of ``block`` at the split."""
    n = len(block) // 2
    size = size1 + size2
    zero = ",".join([_ZERO] * size)
    yield from itertools.repeat(zero, size1 - n)
    for row in block:
        yield _line(size, (size1 - n, _cells(row)))
    yield from itertools.repeat(zero, size2 - n)


def _resolve_symbol(args):
    """Read the symbol of ``--factors`` or ``--penta`` once.

    Returns ``(spec, penta, token, symbol_json)``: exactly one of ``spec``
    (a :class:`SymbolSpec`) and ``penta`` (the row a0, a1, a2) is set;
    ``token`` names the symbol in the ``export`` header and ``symbol_json``
    in the JSON reports.
    """
    if (args.factors is None) == (args.penta is None):
        raise CliUsageError("provide exactly one of --factors or --penta")
    if args.factors is not None:
        spec = parse_factors(args.factors)
        token = "factors=" + ",".join(f"{_fmt(e)}:{m}" for e, m in spec.factors)
        return spec, None, token, {"factors": [[e, m] for e, m in spec.factors]}
    penta = parse_penta(args.penta)
    token = "penta=" + ",".join(_fmt(v) for v in penta)
    return None, penta, token, {"penta": list(penta)}


def cmd_coeffs(args) -> tuple[int, Iterable[str]]:
    spec, penta, _, symbol = _resolve_symbol(args)
    coeffs = fourier_coefficients(spec) if spec is not None else penta_coefficients(*penta)
    report = {
        "command": "coeffs",
        "symbol": symbol,
        "half_bandwidth": coeffs.half_bandwidth,
        "coefficients": [[z.real, z.imag] for z in coeffs.a],
    }
    deco = None if penta is None else decompose_pentadiagonal(*penta)
    if deco is not None:
        report["decomposition"] = {
            "scale": deco.scale,
            "shift": deco.shift,
            "factors": [[e, m] for e, m in deco.spec.factors],
        }
    if args.eval is not None:
        x = parse_angle(args.eval)
        value = evaluate_symbol(spec if deco is None else deco.spec, x)
        if deco is not None:
            value = deco.scale * value + deco.shift
        report["eval"] = {"x": x, "value": value}
    return 0, [json.dumps(report, indent=2)]


def cmd_check(args) -> tuple[int, Iterable[str]]:
    from .boundary import BoundaryKind
    from .spectra import check_bracketing, check_bracketing_penta

    spec, penta, _, symbol = _resolve_symbol(args)
    size1, size2 = _split_sizes(args.split)
    if spec is not None:
        neumann = (
            BoundaryKind.CLASSIC_NEUMANN if args.classic_neumann else BoundaryKind.MODIFIED_NEUMANN
        )
        report = check_bracketing(spec, size1, size2, neumann=neumann)
    else:
        if args.classic_neumann:
            raise CliUsageError("--classic-neumann is only supported with --factors")
        report, _ = check_bracketing_penta(*penta, size1, size2)
    payload = {
        "command": "check",
        "symbol": symbol,
        "sizes": [report.size1, report.size2],
        "margins": report.margins,
        "verdicts": report.verdicts,
        "symbol_floor": report.symbol_floor,
        "tol": report.rel_tol,
        "version": __version__,
    }
    return (0 if report.all_hold else 1), [json.dumps(payload, indent=2)]


def cmd_gap(args) -> tuple[int, Iterable[str]]:
    from .spectra import gap_scan, sampled_gap_floor

    spec, _, _, symbol = _resolve_symbol(args)
    if spec is None:
        raise CliUsageError("gap scans need --factors (a product symbol)")
    sizes = parse_int_list(args.sizes, "sizes")
    for size in sizes:
        _require_within_cap(size, "--sizes")
    report = gap_scan(spec, sizes)
    if not math.isfinite(report.c_empirical):
        raise CliUsageError(
            f"c_empirical = min gap * L**{2 * report.alpha_max} leaves the float64 range;"
            " use smaller sizes"
        )
    payload = {
        "command": "gap",
        "symbol": symbol,
        "sizes": [s for s, _ in report.records],
        "records": [
            {"size": s, "gap": g, "floor": sampled_gap_floor(spec, s, seed=_FLOOR_SEED)}
            for s, g in report.records
        ],
        "slope": report.slope,
        "intercept": report.intercept,
        "c_empirical": report.c_empirical,
        "alpha_max": report.alpha_max,
        "kernel_dim": spec.degree,
        "seed": _FLOOR_SEED,
        "version": __version__,
    }
    return 0, [json.dumps(payload, indent=2)]


def cmd_export(args) -> tuple[int, Iterable[str]]:
    from .boundary import BoundaryKind, _split_block, _window, _window_corners
    from .matrices import _require_size, circulant_periodic

    spec, penta, token, _ = _resolve_symbol(args)
    kind = args.matrix or ("restricted" if args.bc else "toeplitz")
    if args.bc is not None and kind != "restricted":
        raise CliUsageError(f"--bc applies only to --matrix restricted, not {kind}")
    if args.split is not None and kind != "lap2-diff":
        raise CliUsageError(f"--split applies only to --matrix lap2-diff, not {kind}")
    built = _row_and_stencil(spec) if spec is not None else None
    coeffs = built[0] if built else penta_coefficients(*penta)
    n = coeffs.half_bandwidth

    # Every check, and every block that can raise, comes before the rows,
    # which are formed only as they are written.
    if kind == "lap2-diff":
        if not args.split:
            raise CliUsageError("--matrix lap2-diff needs --split L1,L2")
        size1, size2 = _split_sizes(args.split)
        size = size1 + size2
        if args.size is not None and args.size != size:
            raise CliUsageError(f"--size {args.size} differs from L1+L2 = {size} of --split")
        _require_within_cap(size, "--split")
        rows = _split_lines(_split_block(coeffs, size1, size2), size1, size2)
        bc_token = "lap2-diff"
    else:
        if args.size is None:
            raise CliUsageError(f"--matrix {kind} needs --size")
        size = args.size
        _require_within_cap(size, "--size")
        if kind == "circulant":
            _require_size(size, 2 * n + 1)
            model = circulant_periodic(coeffs, 2 * n + 1)
            bc_token = "per"
        else:
            # A toeplitz window is the restricted one with two simple edges.
            bc_token = args.bc or ("nn" if kind == "restricted" else "00")
            if len(bc_token) != 2:
                raise CliUsageError("--bc needs two side codes from {0,n,d,c}, e.g. nn or 0d")
            left, right = (BoundaryKind.from_code(code) for code in bc_token)
            # A --penta row is scale * g + shift: its window is its own band,
            # the shift on the diagonal, plus scale times the corners of g.
            # Only an edge that is not simple reads g.
            simple = (left, right) == (BoundaryKind.SIMPLE,) * 2
            deco = decompose_pentadiagonal(*penta) if penta and not simple else None
            _require_size(size, 2 * n + 1)
            if deco is None:
                top, bottom = _window_corners(left, right, built)
            else:
                corners = _window_corners(left, right, _row_and_stencil(deco.spec))
                top, bottom = (None if b is None else deco.scale * b for b in corners)
            model = _window(coeffs, 2 * n + 1, top, bottom)
        rows = _window_lines(size, model)
    return 0, itertools.chain([f"# dim={size} symbol={token} bc={bc_token}"], rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepbrack",
        description="banded Toeplitz boundary conditions, bracketing certificates and gap scans",
    )
    parser.add_argument("--version", action="version", version=f"toepbrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_symbol_opts(p):
        p.add_argument("--factors", help="comma list of ANGLE:MULTIPLICITY, angles in radians (pi token allowed);"
                       " a leading minus as --factors=-1:1")
        p.add_argument("--penta", help="pentadiagonal coefficients a0,a1,a2; a leading minus as --penta=-1,-4,1")

    def add_out_opt(p):
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("coeffs", help="coefficient row of a symbol")
    add_symbol_opts(p)
    p.add_argument("--eval", help="also evaluate the symbol at this angle; a leading minus as --eval=-pi/3")
    add_out_opt(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("check", help="certify the bracketing inequality chain")
    add_symbol_opts(p)
    p.add_argument("--split", required=True, help="window sizes L1,L2")
    p.add_argument(
        "--classic-neumann",
        action="store_true",
        help="substitute the classic Toeplitz-plus-Hankel condition (brackets only the plain Laplacian 0:1)",
    )
    add_out_opt(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gap", help="spectral-gap scan over window sizes")
    add_symbol_opts(p)
    p.add_argument("--sizes", required=True, help="comma list of window sizes")
    add_out_opt(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("export", help="write a constructed matrix as CSV")
    add_symbol_opts(p)
    p.add_argument("--size", type=int, help="window size L (for lap2-diff optional, and L1+L2)")
    p.add_argument("--split", help="sizes L1,L2 (for --matrix lap2-diff)")
    p.add_argument(
        "--matrix",
        choices=("toeplitz", "circulant", "restricted", "lap2-diff"),
        help="matrix kind; defaults to restricted when --bc is given, else toeplitz",
    )
    p.add_argument("--bc", help="two boundary codes from {0,n,d,c}, e.g. nn, 0d, n0 (for --matrix restricted)")
    add_out_opt(p)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit status (see the module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
        _emit(lines, args.out)
        return code
    except (KernelMismatchError, NoConvergenceError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ToepbrackError, ValueError, CliUsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
