"""The benchmark's tracer still finds every library name it wraps.

``benchmarks/tracing.py`` binds layer functions and ``HermitianMatrix``
methods by name, so a library change that drops one breaks the traced
benchmark runs.  This test installs and removes the tracer, reading the
benchmark without changing it.
"""

from pathlib import Path

import pytest

import toepbrack
from toepbrack import spectra

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = pytest.importorskip("tracing")
    original = spectra.eigenvalues
    tracer = tracing.Tracer(toepbrack)
    tracer.install()
    try:
        assert spectra.eigenvalues is not original
    finally:
        tracer.uninstall()
    assert spectra.eigenvalues is original
