"""The library runs on numpy alone: scipy and mpmath are test oracles only."""

import os
import subprocess
import sys

import toepbrack

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
