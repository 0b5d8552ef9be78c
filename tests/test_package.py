"""The package loads each submodule on first use, and still exports every name."""

import os
import subprocess
import sys

import pytest

import toepbrack

SRC = os.path.dirname(os.path.dirname(os.path.abspath(toepbrack.__file__)))
SUBMODULES = ("boundary", "cli", "errors", "matrices", "spectra", "symbols")

PROBE = """
import contextlib, io, sys
import toepbrack
argv = sys.argv[1:]
if argv:
    from toepbrack.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(" ".join(sorted(m for m in sys.modules if m.startswith("toepbrack."))))
"""


def loaded_after(*argv):
    """The toepbrack submodules a fresh interpreter holds after running ``argv``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, check=True
    )
    return set(proc.stdout.split())


def test_import_loads_no_submodule():
    assert loaded_after() == set()


@pytest.mark.parametrize(
    "argv", [["coeffs", "--factors", "0:2"], ["coeffs", "--penta", "6,-4,1", "--eval", "pi/3"]], ids=" ".join
)
def test_coeffs_loads_only_the_symbol_layer(argv):
    assert loaded_after(*argv) == {"toepbrack.cli", "toepbrack.errors", "toepbrack.symbols"}


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "--factors", "0:1,2.0:1", "--size", "6", "--bc", "nn"],
        ["export", "--factors", "0:1", "--size", "5", "--matrix", "circulant"],
        ["export", "--factors", "0:2", "--matrix", "lap2-diff", "--split", "4,4"],
    ],
    ids=" ".join,
)
def test_export_does_not_load_the_eigen_engine(argv):
    loaded = loaded_after(*argv)
    assert "toepbrack.spectra" not in loaded
    assert "toepbrack._factor" not in loaded
    assert "toepbrack.boundary" in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--factors", "0:1,2.0:1", "--split", "7,9"],
        ["check", "--penta", "6,-4,1", "--split", "8,8"],
        ["check", "--factors", "0:1", "--split", "7,9", "--classic-neumann"],
    ],
    ids=" ".join,
)
def test_check_does_not_load_the_eigen_engine(argv):
    # A modified certificate proves its margins without an eigenvalue, and
    # a classic one reads its nn_vs_0n from the corner Jacobi in spectra,
    # so no CLI check loads the gap's factor path.
    loaded = loaded_after(*argv)
    assert "toepbrack.spectra" in loaded
    assert "toepbrack._factor" not in loaded


HEAVY = ("fractions", "decimal", "toepbrack._factor")

HEAVY_PROBE = """
import contextlib, io, sys
import toepbrack.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        assert toepbrack.cli.main(argv) == 0
print(" ".join(m for m in {heavy!r} if m in sys.modules))
"""


@pytest.mark.parametrize(
    "argv", [[], ["check", "--factors", "0.3:2,2.0:1", "--split", "9,11"]], ids=["import", "check"]
)
def test_cli_and_a_modified_check_load_no_rationals_and_no_engine(argv):
    # The exact Gram sums and delta work in Python integers, not in
    # fractions, whose import loads decimal, a few ms of every start-up.
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = HEAVY_PROBE.format(heavy=HEAVY)
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.split() == []


def test_gap_loads_the_eigen_engine():
    # The control of the two tests above: a gap scan loads both modules
    # that an export loads neither of.
    loaded = loaded_after("gap", "--factors", "0:1", "--sizes", "8,16,32")
    assert {"toepbrack.spectra", "toepbrack._factor"} <= loaded


def test_every_public_name_and_submodule_resolves():
    for name in toepbrack.__all__:
        value = getattr(toepbrack, name)
        home = sys.modules[f"toepbrack.{toepbrack._HOME[name]}"]
        assert value is getattr(home, name), name
    for name in SUBMODULES:
        assert getattr(toepbrack, name) is sys.modules[f"toepbrack.{name}"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        toepbrack.no_such_name


def test_star_import_binds_all():
    namespace = {}
    exec("from toepbrack import *", namespace)
    assert set(toepbrack.__all__) <= set(namespace)
    for name in toepbrack.__all__:
        assert namespace[name] is getattr(toepbrack, name)


def test_dir_lists_all_and_the_submodules():
    listed = dir(toepbrack)
    assert set(toepbrack.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    assert "__version__" in listed
