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
    assert "toepbrack.boundary" in loaded


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
