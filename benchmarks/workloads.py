"""Seeded inputs, program calls and output checks of the three workloads.

An input is a plain dict (an "op"); ``make_inputs`` draws the same ops for
the same seed.  A round runs every op once, in order.  ``execute`` calls
the program on one op and returns its output as plain data; ``verify``
checks the outputs of one round with the independent checkers in
``checks``.

certify
    Bracketing certificates.  Product symbols with random angles (complex
    coefficients) on a fixed grid of total sizes 32, 34, .., 128 and degrees 1..6,
    pentadiagonal rows at 64 each followed by the product certificate of
    their decomposition, and classic Neumann splits of real symbols.
gap-scan
    ``gap_scan`` plus ``sampled_gap_floor`` at sizes 8..256 for the
    Laplacian, the bilaplacian and a complex three-factor symbol.
cli-export
    ``toepbrack`` run as a subprocess: ``export`` at L = 512 for the nn, 0d,
    dn and cc boundaries and the toeplitz and circulant matrices, one nn
    ``export`` at L = 1024, so that building nn windows takes about 37 % of
    a round, and twice as many small ``coeffs`` and ``check`` calls, whose
    time is mostly interpreter start and import, so that start-up weighs
    in the geometric mean of the op times.

The seed moves angles, split points and pentadiagonal rows; the sizes and
the mix of ops are fixed, so every seed asks for about the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess

import numpy as np

import checks

TWO_PI = 2.0 * math.pi
WORKLOADS = ("certify", "gap-scan", "cli-export")


def _angle(x: float) -> float:
    """x reduced to (0, 2*pi], as the program stores it."""
    r = math.fmod(x, TWO_PI)
    return r + TWO_PI if r <= 0.0 else r


def _spread_angles(rng, count: int, jitter: float) -> list[float]:
    """``count`` angles evenly spaced from a random base, each moved by up to +-jitter of a spacing."""
    base = rng.uniform(0.0, TWO_PI)
    step = TWO_PI / count
    return [_angle(base + step * (i + rng.uniform(-jitter, jitter))) for i in range(count)]


def _random_factors(rng, degree: int) -> list[tuple[float, int]]:
    """A product symbol of total degree ``degree`` with a random number of factors."""
    count = int(rng.integers(1, min(degree, 3) + 1))
    cuts = sorted(rng.choice(np.arange(1, degree), count - 1, replace=False).tolist()) if count > 1 else []
    mults = np.diff([0, *cuts, degree]).tolist()
    return [(e, int(m)) for e, m in zip(_spread_angles(rng, count, 0.3), mults)]


def _real_factors(rng, degree: int) -> list[tuple[float, int]]:
    """A product symbol with real coefficients: conjugate angle pairs, plus pi for odd degree.

    Degree 1 gives the Laplacian, the tridiagonal case the classic Neumann
    condition is built for.
    """
    if degree == 1:
        return [(TWO_PI, 1)]
    pairs = degree // 2
    bs = [0.3 + (math.pi - 0.6) * (i + 0.5 + rng.uniform(-0.3, 0.3)) / pairs for i in range(pairs)]
    factors = [f for b in bs for f in ((b, 1), (TWO_PI - b, 1))]
    if degree % 2:
        factors.append((math.pi, 1))
    return factors


def _split(rng, total: int, degree: int) -> tuple[int, int]:
    lo = 2 * degree + 1
    size1 = int(round(total * rng.uniform(0.35, 0.65)))
    size1 = min(max(size1, lo), total - lo)
    return size1, total - size1


def _factor_arg(factors) -> str:
    return ",".join(f"{e!r}:{m}" for e, m in factors)


def make_inputs(workload: str, seed: int, reduced: bool = False) -> list[dict]:
    """The ops of one round of ``workload``, drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "certify":
        return _certify_inputs(rng, reduced)
    if workload == "gap-scan":
        return _gap_inputs(rng, reduced)
    if workload == "cli-export":
        return _cli_inputs(rng, reduced)
    raise ValueError(f"unknown workload {workload!r}")


def _certify_inputs(rng, reduced: bool) -> list[dict]:
    ops = []
    totals = [16 + 4 * i for i in range(5)] if reduced else [32 + 2 * i for i in range(49)]
    max_degree = 2 if reduced else 6
    for i, total in enumerate(totals):
        degree = 1 + i % max_degree
        ops.append({"kind": "product", "factors": _random_factors(rng, degree), "split": _split(rng, total, degree)})
    penta_total = 24 if reduced else 64
    for _ in range(2):
        a2 = float(rng.uniform(0.5, 2.0))
        ratio = float(rng.uniform(-3.6, 3.6))
        b = math.acos(-ratio / 4.0)
        row = (float(rng.uniform(0.1, 1.5)) + a2 * (4.0 + 2.0 * math.cos(2.0 * b)), a2 * ratio, a2)
        split = _split(rng, penta_total, 2)
        ops.append({"kind": "penta", "row": row, "split": split})
        ops.append({"kind": "product", "factors": [(b, 1), (TWO_PI - b, 1)], "split": split, "penta_of": len(ops) - 1})
    for degree in (1, 2, 3) if reduced else (1, 2, 3, 4):
        lo, hi = (2 * degree + 1, 12) if reduced else (16, 40)
        split = (int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
        ops.append({"kind": "classic", "factors": _real_factors(rng, degree), "split": split})
    return ops


def _gap_inputs(rng, reduced: bool) -> list[dict]:
    sizes = [16, 32, 64] if reduced else [8, 16, 32, 64, 128, 256]
    symbols = [[(TWO_PI, 1)], [(TWO_PI, 2)], [(e, 1) for e in _spread_angles(rng, 3, 0.1)]]
    return [
        {"kind": "gap", "factors": f, "sizes": sizes, "floor_seed": int(rng.integers(0, 2**31))}
        for f in symbols
    ]


def _cli_inputs(rng, reduced: bool) -> list[dict]:
    size, large = (24, 48) if reduced else (512, 1024)
    spec = [(e, 1) for e in _spread_angles(rng, 2, 0.2)]
    real = _real_factors(rng, 2)
    ops = []

    def add(argv, exit_code, **check):
        ops.append({"kind": "cli", "argv": argv, "exit": exit_code, **check})

    for bc in ("nn", "0d", "dn"):
        add(["export", "--factors", _factor_arg(spec), "--size", str(size), "--bc", bc], 0,
            factors=spec, size=size, matrix="restricted", bc=bc)
    add(["export", "--factors", _factor_arg(real), "--size", str(size), "--bc", "cc"], 0,
        factors=real, size=size, matrix="restricted", bc="cc")
    add(["export", "--factors", _factor_arg(real), "--size", str(large), "--bc", "nn"], 0,
        factors=real, size=large, matrix="restricted", bc="nn")
    for matrix in ("toeplitz", "circulant"):
        add(["export", "--factors", _factor_arg(spec), "--size", str(size), "--matrix", matrix], 0,
            factors=spec, size=size, matrix=matrix, bc=None)
    # Twice as many small invocations as exports, so that start-up weighs in the geometric mean of op times.
    for degree in range(1, 7):
        factors = _random_factors(rng, degree)
        add(["coeffs", "--factors", _factor_arg(factors)], 0, factors=factors)
    for degree in range(1, 6):
        factors = _random_factors(rng, degree)
        split = _split(rng, 24, degree)
        add(["check", "--factors", _factor_arg(factors), "--split", f"{split[0]},{split[1]}"], 0,
            factors=factors, split=split, variant="modified")
    for degree in (1, 2, 3):
        factors = _real_factors(rng, degree)
        split = _split(rng, 24, degree)
        add(["check", "--factors", _factor_arg(factors), "--split", f"{split[0]},{split[1]}", "--classic-neumann"],
            0 if degree == 1 else 1, factors=factors, split=split, variant="classic")
    return ops


class Program:
    """Calls into one checkout of toepbrack, in process or as a subprocess."""

    def __init__(self, package, command: list[str], env: dict, cwd: str, subprocess_cli: bool = True):
        self.tb = package
        self.command = command
        self.env = env
        self.cwd = cwd
        self.subprocess_cli = subprocess_cli

    def execute(self, op: dict) -> dict:
        tb = self.tb
        kind = op["kind"]
        if kind == "cli":
            return self._cli(op["argv"])
        if kind == "penta":
            report, deco = tb.spectra.check_bracketing_penta(*op["row"], *op["split"])
            out = _report(report)
            out["deco"] = {"scale": deco.scale, "shift": deco.shift, "factors": [list(f) for f in deco.spec.factors]}
            return out
        if kind in ("product", "classic"):
            neumann = tb.BoundaryKind.CLASSIC_NEUMANN if kind == "classic" else tb.BoundaryKind.MODIFIED_NEUMANN
            spec = tb.symbols.make_symbol(op["factors"])
            return _report(tb.spectra.check_bracketing(spec, *op["split"], neumann=neumann))
        if kind == "gap":
            spec = tb.symbols.make_symbol(op["factors"])
            scan = tb.spectra.gap_scan(spec, op["sizes"])
            floors = {s: tb.spectra.sampled_gap_floor(spec, s, seed=op["floor_seed"]) for s, _ in scan.records}
            return {"records": [list(r) for r in scan.records], "slope": scan.slope, "floors": floors}
        raise ValueError(f"unknown op kind {kind!r}")

    def _cli(self, argv: list[str]) -> dict:
        if self.subprocess_cli:
            proc = subprocess.run(
                self.command + argv, capture_output=True, env=self.env, cwd=self.cwd, timeout=120
            )
            stdout = proc.stdout
            code = proc.returncode
        else:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = self.tb.cli.main(argv)
            stdout = buf.getvalue().encode()
        return {"exit": code, "bytes": len(stdout), "sha256": hashlib.sha256(stdout).hexdigest(),
                "text": stdout.decode()}

    def kernel_count(self, factors, size: int) -> int:
        """Kernel dimension of the program's softened window, by eigvalsh."""
        tb = self.tb
        nn = tb.BoundaryKind.MODIFIED_NEUMANN
        window = tb.boundary.build_restricted(tb.symbols.make_symbol(factors), size, nn, nn)
        eig = np.linalg.eigvalsh(window.entries)
        return int(np.sum(np.abs(eig) <= checks.KERNEL_CUTOFF * window.row_sum_norm()))


def _report(report) -> dict:
    return {"margins": report.margins, "verdicts": report.verdicts, "abs_tol": report.abs_tol}


def same_output(a: dict, b: dict) -> bool:
    """Outputs of two rounds agree (CLI: byte for byte)."""
    if "sha256" in a:
        return a["exit"] == b["exit"] and a["sha256"] == b["sha256"]
    return a == b


def verify(program: Program, ops: list[dict], outputs: list[dict | None]) -> list[list[str]]:
    """Problems found in each output of one round (None marks an op that raised)."""
    problems = []
    for op, out in zip(ops, outputs):
        problems.append([] if out is None else _verify_one(program, op, out))
    for i, op in enumerate(ops):
        if "penta_of" in op and outputs[i] is not None and outputs[op["penta_of"]] is not None:
            penta_op, penta = ops[op["penta_of"]], outputs[op["penta_of"]]
            deco = penta["deco"]
            problems[op["penta_of"]] += checks.check_penta(
                penta_op["row"], penta_op["split"], deco["scale"], deco["shift"], deco["factors"],
                penta["margins"], outputs[i]["margins"], penta["abs_tol"],
            )
    return problems


def _verify_one(program: Program, op: dict, out: dict) -> list[str]:
    kind = op["kind"]
    if kind in ("product", "classic"):
        variant = "classic" if kind == "classic" else "modified"
        return checks.check_certificate(op["factors"], *op["split"], variant, out["margins"], out["verdicts"], out["abs_tol"])
    if kind == "penta":
        return []  # checked with the product certificate that follows it, in verify
    if kind == "gap":
        counts = {s: program.kernel_count(op["factors"], s) for s, _ in out["records"]}
        return checks.check_gap_scan(op["factors"], out["records"], out["slope"], out["floors"], counts)
    return _verify_cli(op, out)


def _verify_cli(op: dict, out: dict) -> list[str]:
    if out["exit"] != op["exit"]:
        return [f"exit code {out['exit']} for {op['argv'][0]}, documented {op['exit']}"]
    command = op["argv"][0]
    if command == "export":
        return checks.check_export(out["text"], op["factors"], op["size"], op["matrix"], op["bc"])
    try:
        report = json.loads(out["text"])
    except ValueError as exc:
        return [f"{command} printed no JSON report: {exc}"]
    if command == "coeffs":
        return checks.check_coeffs(op["factors"], report["half_bandwidth"], report["coefficients"])
    abs_tol = report["tol"] * max(1.0, checks.row_sum_norm(op["factors"]))
    return checks.check_certificate(op["factors"], *op["split"], op["variant"], report["margins"], report["verdicts"], abs_tol)
