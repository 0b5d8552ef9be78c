"""Benchmark of toepbrack: bracketing certificates, gap scans and CLI export.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 15 --trace 0

Runs whole rounds of the workload's seeded ops until ``--seconds`` have
passed (at least two rounds), checks every output against the references
in ``checks``, and prints the metrics by name and unit.  Times are CPU
seconds of the benchmark process and its CLI subprocesses, scaled to a
reference machine speed (see ``speed``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds run in process and
reports the per-layer metrics and the tracing overhead.  A record of the
run, with the spans of a traced run, is written to ``.bench_runs/``.

The program is imported from ``src/`` of the checkout that holds this file
and run with BLAS/OpenMP pinned to one thread.  Exit status: 0 when every
output is correct, 1 when a check fails, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_ROUNDS = 2
PROBES = 15

END_TO_END_UNITS = {"setup_s": "s", "op_cpu_gmean_ms": "ms", "round_cpu_s": "s"}

_PROBE = """
import sys, time
t0 = time.process_time()
import toepbrack
import workloads
workloads.make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
print(time.process_time() - t0)
"""


def child_env() -> dict:
    """Environment of every subprocess: this checkout's sources, one thread, no bytecode files."""
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _wall(argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, env=child_env(), cwd=ROOT, timeout=120, check=True)
    return time.perf_counter() - t0, proc.stdout.decode()


def setup_seconds(workload: str, seed: int, reduced: bool, probes: int, gauge) -> tuple[float, float]:
    """Median CPU seconds, over fresh interpreters, of importing toepbrack and drawing the inputs.

    Returns the median at reference speed and the raw median.
    """
    args = [sys.executable, "-c", _PROBE, workload, str(seed), "1" if reduced else "0"]
    raw = []
    for _ in range(probes):
        raw.append(float(_wall(args)[1]))
        gauge.add(raw[-1])
    return statistics.median(gauge.scaled()), statistics.median(raw)


def import_ms(probes: int) -> float:
    """Median CPU time of a subprocess import of toepbrack minus a bare interpreter start."""
    from speed import cpu_seconds

    bare, loaded = [], []
    for _ in range(probes):
        for argv, times in (("pass", bare), ("import toepbrack", loaded)):
            t0 = cpu_seconds()
            _wall([sys.executable, "-c", argv])
            times.append(cpu_seconds() - t0)
    return 1e3 * (statistics.median(loaded) - statistics.median(bare))


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository (git never looks above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_PINS},
    }


class Rounds:
    """Runs whole rounds of ops, timing each op in CPU seconds and checking every output."""

    def __init__(self, program, ops: list[dict]):
        import speed

        self.program = program
        self.ops = ops
        self.gauge = speed.Gauge()
        self.first: list[dict | None] = [None] * len(ops)
        self.first_problems: list[list[str]] = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.rounds: list[float] = []
        self.raw_rounds: list[float] = []
        self.walls: list[float] = []
        self.latencies: list[tuple[int, float, dict | None]] = []

    def run(self) -> float:
        """One round; returns its CPU time at reference speed, the sum of its ops' scaled times."""
        import workloads
        from speed import cpu_seconds

        outputs, raw = [], []
        wall = time.perf_counter()
        for i, op in enumerate(self.ops):
            t0 = cpu_seconds()
            try:
                out = self.program.execute(op)
            except Exception:  # an op that raises is a failed op; the run goes on
                out = None
                self.errors.append(f"op {i} ({op['kind']}): {traceback.format_exc()}")
            raw.append(cpu_seconds() - t0)
            self.gauge.add(raw[-1])
            outputs.append(out)
        scaled = self.gauge.scaled()
        self.latencies += [(i, t, out) for i, (t, out) in enumerate(zip(scaled, outputs))]
        self.rounds.append(sum(scaled))
        self.raw_rounds.append(sum(raw))
        self.walls.append(time.perf_counter() - wall)
        fresh = [out if self.first[i] is None else None for i, out in enumerate(outputs)]
        if any(f is not None for f in fresh):
            for i, found in enumerate(workloads.verify(self.program, self.ops, fresh)):
                if fresh[i] is not None:
                    self.first[i] = fresh[i]
                    self.first_problems[i] = found
        for i, out in enumerate(outputs):
            self.attempted += 1
            if out is None:
                self.failed += 1
                continue
            found = list(self.first_problems[i])
            if not workloads.same_output(out, self.first[i]):
                found.append("output differs from the first round's")
            if found:
                self.failed += 1
                self.problems += [f"op {i} ({self.ops[i]['kind']}): {p}" for p in found]
            out.pop("text", None)
        return self.rounds[-1]


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def workload_figures(workload: str, ops: list[dict], rounds: Rounds) -> dict:
    """The figures each workload is read by, under their own names."""
    done = [(i, t, out) for i, t, out in rounds.latencies if out is not None]
    if workload == "certify":
        certs = len(done)
        return {
            "certs_per_s": {"value": certs / sum(rounds.rounds), "unit": "1/s"},
            "cert_p50_ms": {"value": _median_ms(t for _, t, _ in done), "unit": "ms"},
        }
    if workload == "gap-scan":
        return {"gap_scan_s": {"value": statistics.median(rounds.rounds), "unit": "s"}}
    exports = [(t, out["bytes"]) for i, t, out in done if ops[i]["argv"][0] == "export"]
    return {
        "cli_p50_s": {"value": statistics.median(t for _, t, _ in done), "unit": "s"},
        "cli_startup_s": {
            "value": statistics.median(t for i, t, _ in done if ops[i]["argv"][0] == "coeffs"),
            "unit": "s",
        },
        "csv_mb_per_s": {"value": sum(b for _, b in exports) / sum(t for t, _ in exports) / 1e6, "unit": "MB/s"},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> dict:
    """One benchmark run; returns the result line plus the run record."""
    import toepbrack
    import toepbrack.cli
    import tracing
    import workloads

    if Path(toepbrack.__file__).resolve().parent != SRC / "toepbrack":
        raise RuntimeError(f"toepbrack imported from {toepbrack.__file__}, not from {SRC}")
    record = {"workload": workload, "reduced": reduced, "trace": trace, **environment(seed)}
    ops = workloads.make_inputs(workload, seed, reduced)
    command = [sys.executable, "-m", "toepbrack"]
    program = workloads.Program(toepbrack, command, child_env(), str(ROOT), subprocess_cli=not trace)
    rounds = Rounds(program, ops)
    probes = 1 if reduced else PROBES
    if not trace:
        setup, raw_setup = setup_seconds(workload, seed, reduced, probes, rounds.gauge)
        deadline = time.perf_counter() + seconds
        while len(rounds.rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.run()
        metrics = {
            "setup_s": setup,
            "op_cpu_gmean_ms": 1e3 * statistics.geometric_mean(t for _, t, out in rounds.latencies if out is not None),
            "round_cpu_s": statistics.median(rounds.rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        record["figures"] = {
            **workload_figures(workload, ops, rounds),
            "raw.setup_s": {"value": raw_setup, "unit": "s"},
            "raw.round_cpu_s": {"value": statistics.median(rounds.raw_rounds), "unit": "s"},
            "round_wall_s": {"value": statistics.median(rounds.walls), "unit": "s"},
            "kernel_ms": {"value": statistics.median(rounds.gauge.samples), "unit": "ms"},
        }
    else:
        tracer = tracing.Tracer(toepbrack)
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < 1 or time.perf_counter() < deadline:
            untraced.append(rounds.run())
            with tracer:
                traced.append(rounds.run())
        layers = tracing.layer_metrics(tracer.spans, len(traced))
        layers["cli.import_ms"] = import_ms(probes)
        layers["cli.bytes_out"] = sum(
            out["bytes"] for _, _, out in rounds.latencies if out is not None and "bytes" in out
        ) / len(rounds.rounds)
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        units = tracing.UNITS
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(layers.items())}
        record["spans"] = [vars(s) for s in tracer.spans]
    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }
    record.update(
        result,
        ops=ops,
        rounds=rounds.rounds,
        raw_rounds=rounds.raw_rounds,
        wall_rounds=rounds.walls,
        kernel_ms=rounds.gauge.samples,
        op_seconds=[t for _, t, _ in rounds.latencies],
        problems=rounds.problems,
        errors=rounds.errors,
    )
    return record


def prepare() -> bool:
    """Import toepbrack from this checkout and pin threads; False when the sources are missing."""
    if not (SRC / "toepbrack" / "__init__.py").is_file():
        print(f"error: no toepbrack sources at {SRC / 'toepbrack'}", file=sys.stderr)
        return False
    os.environ.update(THREAD_PINS)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the benchmark, its kernel timings and its subprocesses,
        # so the speed the gauge reads is that of the CPU the ops run on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "gap-scan", "cli-export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="small sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not prepare():
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    RUNS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-reduced' if args.reduced else ''}.json"
    (RUNS / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for p in record["problems"] + record["errors"]:
        print(f"problem: {p}", file=sys.stderr)
    summary = {k: record[k] for k in ("seed", "git_sha", "python", "numpy", "nproc", "affinity", "thread_env")}
    print(f"# {args.workload} attempted={record['attempted']} failed={record['failed']} {json.dumps(summary)}")
    for key, m in {**record["metrics"], **record.get("figures", {})}.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
