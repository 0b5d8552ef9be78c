"""The library runs on numpy alone: scipy and mpmath are test oracles only,
and no certificate, kernel check or gap calls a LAPACK eigen or SVD
routine.  The one such call is the slope fit of ``gap_scan`` and of the
``gap`` command: ``np.polyfit`` calls ``numpy.linalg.lstsq``, LAPACK's
SVD-based gelsd, which numpy's polynomial module binds at import, so the
``no_lapack_solvers`` fixture does not see it.
The gap's factor path imports at most the symbol layer and the errors, and
only ``spectra`` imports it, and only its entry ``smallest_eigenvalues``.  No test module
imports another, so each test is collected from its own file."""

import ast
import os
import subprocess
import sys

import numpy as np
import pytest

import toepbrack
from toepbrack import BoundaryKind, cli

PROBE = """
import sys
import toepbrack, toepbrack.cli
spec = toepbrack.make_symbol([(0.0, 1), (2.0, 2)])
toepbrack.check_bracketing(spec, 7, 9)
toepbrack.gap_scan(spec, [12, 24])
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath")))
"""


def test_library_imports_neither_scipy_nor_mpmath():
    # Tests may import both, so the probe runs in a fresh interpreter.
    src = os.path.dirname(os.path.dirname(os.path.abspath(toepbrack.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"


LAPACK_SOLVERS = ("eigvalsh", "eigh", "eig", "eigvals", "svd")

CLI_RUNS = [
    ["coeffs", "--factors", "0:2", "--eval", "pi/3"],
    ["coeffs", "--penta", "6,-4,1"],
    ["check", "--factors", "0:1,2.0:1", "--split", "7,9"],
    ["check", "--factors", "0:2", "--split", "7,7", "--classic-neumann"],
    ["check", "--penta", "6,-4,1", "--split", "8,8"],
    ["gap", "--factors", "0:1", "--sizes", "8,16,32,64,128"],
    ["export", "--factors", "0:1,2.0:1", "--size", "6", "--bc", "nn"],
    ["export", "--penta", "5.3,-2.7,0.9", "--size", "7", "--bc", "0d"],
    ["export", "--factors", "0:2", "--size", "8", "--matrix", "lap2-diff", "--split", "4,4"],
    ["export", "--factors", "0:1", "--size", "5", "--matrix", "circulant"],
]


@pytest.fixture
def no_lapack_solvers(monkeypatch):
    # The demos and the tests call eigvalsh; the library must not.
    def refuse(*args, **kwargs):
        raise AssertionError("the library called a LAPACK eigen or SVD routine")

    for name in LAPACK_SOLVERS:
        monkeypatch.setattr(np.linalg, name, refuse)


def test_certificates_and_gaps_call_no_lapack_solver(no_lapack_solvers):
    spec = toepbrack.make_symbol([(0.0, 1), (2.0, 2)])
    assert toepbrack.check_bracketing(spec, 20, 23).all_hold
    classic = toepbrack.check_bracketing(
        toepbrack.make_symbol([(0.0, 2)]), 7, 7, neumann=BoundaryKind.CLASSIC_NEUMANN
    )
    assert not classic.all_hold
    report, _ = toepbrack.check_bracketing_penta(2.0, -1.5, 0.75, 6, 9)
    assert report.all_hold
    toepbrack.gap_scan(spec, [12, 24, 48])
    assert toepbrack.sampled_gap_floor(spec, 24, seed=3) > 0.0


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_commands_call_no_lapack_solver(no_lapack_solvers, capsys, argv):
    expected = 1 if "--classic-neumann" in argv else 0
    assert cli.main(argv) == expected
    assert capsys.readouterr().err == ""


PACKAGE = os.path.dirname(os.path.abspath(toepbrack.__file__))


def package_imports(filename):
    """(module, imported names) for each import statement of a library file.

    Relative imports resolve against ``toepbrack``, and ``from . import x``
    counts as an import of the submodule ``toepbrack.x``.
    """
    with open(os.path.join(PACKAGE, filename), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["toepbrack" if node.level else "", node.module]))
            if module == "toepbrack":
                yield from ((f"toepbrack.{alias.name}", ()) for alias in node.names)
            else:
                yield module, tuple(alias.name for alias in node.names)


def test_engine_imports_nothing_above_the_symbol_layer():
    # spectra imports the factor path, so its import of spectra, boundary
    # or matrices would close a cycle.
    ours = {module for module, _ in package_imports("_factor.py") if module.startswith("toepbrack")}
    assert ours <= {"toepbrack.symbols", "toepbrack.errors"}


def test_spectra_alone_imports_the_engine_and_only_its_entry():
    importers = {}
    for filename in sorted(os.listdir(PACKAGE)):
        if filename.endswith(".py"):
            for module, names in package_imports(filename):
                if module == "toepbrack._factor":
                    importers.setdefault(filename, []).extend(names)
    assert importers == {"spectra.py": ["smallest_eigenvalues"]}


def test_no_test_module_imports_another():
    # Shared helpers live in conftest.py and oracles.py.
    tests = os.path.dirname(os.path.abspath(__file__))
    importers = {}
    for filename in sorted(os.listdir(tests)):
        if filename.endswith(".py"):
            with open(os.path.join(tests, filename), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(module.split(".")[0].startswith("test_") for module in modules):
                    importers.setdefault(filename, []).extend(modules)
    assert importers == {}
