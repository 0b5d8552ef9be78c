"""The benchmark's own tests: reduced runs of every workload, and checkers fed corrupted outputs.

Run from the root of a checkout::

    python3 -m pytest benchmarks

Reduced runs use small sizes and one setup probe, so every workload's
checks run in a few seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_is_correct_and_reports_every_metric(workload, trace):
    record = run.run(workload, seed=3, seconds=0.0, trace=trace, reduced=True)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0, record["errors"]
    assert record["attempted"] >= 2 * len(workloads.make_inputs(workload, 3, reduced=True))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in record["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def test_gauge_scales_each_call_by_the_kernel_times_around_it(monkeypatch):
    ref = speed.REFERENCE_MS
    kernel_ms = iter([ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(speed, "kernel", lambda: None)
    monkeypatch.setattr(speed, "sample_ms", lambda: next(kernel_ms))
    gauge = speed.Gauge()
    gauge.add(0.3)  # at least PERIOD: the kernel is timed after it
    gauge.add(0.1)  # timed only when the calls are scaled
    assert gauge.scaled() == pytest.approx([0.3 * 2 / 3, 0.1 / 2])
    assert gauge.samples == [ref, 2 * ref, 2 * ref]


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
        assert workloads.make_inputs(workload, 5) != workloads.make_inputs(workload, 6)


def _program():
    import toepbrack
    import toepbrack.cli

    return workloads.Program(toepbrack, [], {}, str(run.ROOT), subprocess_cli=False)


class Corrupting:
    """Passes every op to the program and corrupts the output of ``target``."""

    def __init__(self, target, corrupt):
        self.inner = _program()
        self.target = target
        self.corrupt = corrupt

    def execute(self, op):
        out = self.inner.execute(op)
        return self.corrupt(op, out) if op is self.target else out

    def kernel_count(self, factors, size):
        return self.inner.kernel_count(factors, size)


def _failed_ops(workload, pick, corrupt):
    """Failed-op count of two reduced rounds with one op's output corrupted."""
    ops = workloads.make_inputs(workload, 3, reduced=True)
    rounds = run.Rounds(Corrupting(next(op for op in ops if pick(op)), corrupt), ops)
    rounds.run()
    rounds.run()
    assert rounds.problems
    return rounds.failed


def test_margin_off_by_1e6_norm_is_a_failed_op():
    def corrupt(op, out):
        out["margins"]["upper"] += 1e-6 * checks.row_sum_norm(op["factors"])
        return out

    assert _failed_ops("certify", lambda op: op["kind"] == "product", corrupt) == 2


def test_gap_scaled_by_1e6_is_a_failed_op():
    def corrupt(op, out):
        size, gap = out["records"][0]
        out["records"][0] = [size, gap * (1 + 1e-6)]
        return out

    assert _failed_ops("gap-scan", lambda op: op["kind"] == "gap", corrupt) == 2


def test_csv_with_one_corner_entry_changed_is_a_failed_op():
    def corrupt(op, out):
        lines = out["text"].split("\n")
        cells = lines[1].split(",")
        z = complex(cells[0].replace("i", "j")) + 1e-6 * checks.row_sum_norm(op["factors"])
        cells[0] = f"{format(z.real, '.17g')}{format(z.imag, '+.17g')}i"
        lines[1] = ",".join(cells)
        out["text"] = "\n".join(lines)
        return out

    assert _failed_ops("cli-export", lambda op: op["argv"][:1] == ["export"], corrupt) == 2


def test_one_ulp_of_skew_in_a_toeplitz_export_is_reported():
    factors = [(1.0, 1), (2.5, 1)]
    argv = ["export", "--factors", workloads._factor_arg(factors), "--size", "8", "--matrix", "toeplitz"]
    text = _program().execute({"kind": "cli", "argv": argv})["text"]
    assert checks.check_export(text, factors, 8, "toeplitz", None) == []
    lines = text.split("\n")
    cells = lines[1].split(",")
    z = complex(cells[1].replace("i", "j"))
    cells[1] = f"{format(math.nextafter(z.real, math.inf), '.17g')}{format(z.imag, '+.17g')}i"
    lines[1] = ",".join(cells)
    problems = checks.check_export("\n".join(lines), factors, 8, "toeplitz", None)
    assert len(problems) == 1 and "Hermitian" in problems[0]


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
