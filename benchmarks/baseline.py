"""Per-operation reference timings of toepbrack, taken from traced calls.

Usage, from the root of a checkout::

    python3 benchmarks/baseline.py

Prints a markdown table of the minimum over ``REPEATS`` calls of:
the Jacobi ``eigenvalues`` against ``numpy.linalg.eigvalsh`` on the same
both-sided softened windows (L = 32..256), ``build_restricted`` for nn
against 0n (L = 128..512), ``check_bracketing`` at 64+64, ``gap_scan`` over
8..128, and the CLI ``check`` run as a subprocess.  Every time is CPU
time, not scaled to reference speed: calls into the program by their spans
in ``tracing``, ``eigvalsh`` and the subprocess by ``speed.cpu_seconds``.  The symbol is (2 - 2cos x)(2 - 2cos(x - 2)),
``--factors 0:1,2.0:1`` on the command line.
"""

from __future__ import annotations

import json
import sys

import run

REPEATS = 3


def _span_ms(tracer, call) -> float:
    """Duration of the first top-level span that ``call`` records."""
    start = len(tracer.spans)
    call()
    return next(s.ms for s in tracer.spans[start:] if s.parent is None)


def _cpu_ms(call) -> float:
    from speed import cpu_seconds

    t0 = cpu_seconds()
    call()
    return 1e3 * (cpu_seconds() - t0)


def measure() -> list[tuple[str, str, float]]:
    import numpy as np

    import toepbrack as tb
    import tracing

    spec = tb.make_symbol([(0.0, 1), (2.0, 1)])
    nn, simple = tb.BoundaryKind.MODIFIED_NEUMANN, tb.BoundaryKind.SIMPLE
    rows = []

    def best(call) -> float:
        return min(_span_ms(tracer, call) for _ in range(REPEATS))

    with tracing.Tracer(tb) as tracer:
        for size in (32, 64, 128, 256):
            window = tb.build_restricted(spec, size, nn, nn)
            rows.append(("Jacobi `eigenvalues`, nn window", f"L = {size}", best(lambda: tb.spectra.eigenvalues(window))))
            lapack = min(_cpu_ms(lambda: np.linalg.eigvalsh(window.entries)) for _ in range(REPEATS))
            rows.append(("LAPACK `eigvalsh`, same matrix", f"L = {size}", lapack))
        for size in (128, 256, 512):
            rows.append(("`build_restricted` nn", f"L = {size}", best(lambda: tb.boundary.build_restricted(spec, size, nn, nn))))
            rows.append(("`build_restricted` 0n", f"L = {size}", best(lambda: tb.boundary.build_restricted(spec, size, simple, nn))))
        rows.append(("`check_bracketing`", "64+64", best(lambda: tb.spectra.check_bracketing(spec, 64, 64))))
        rows.append(("`gap_scan`", "L = 8..128", best(lambda: tb.spectra.gap_scan(spec, [8, 16, 32, 64, 128]))))
    argv = [sys.executable, "-m", "toepbrack", "check", "--factors", "0:1,2.0:1", "--split", "7,9"]
    rows.append(("CLI `check` (subprocess)", "7+9", min(_cpu_ms(lambda: run._wall(argv)) for _ in range(REPEATS))))
    return rows


def main() -> int:
    if not run.prepare():
        return 2
    rows = measure()
    print("| Operation | Size | min ms |")
    print("|---|---|---|")
    for op, size, ms in rows:
        print(f"| {op} | {size} | {ms:.4g} |")
    run.RUNS.mkdir(exist_ok=True)
    record = {**run.environment(None), "repeats": REPEATS, "rows": rows}
    (run.RUNS / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
