"""Golden stdout for the command-line examples listed in the README.

Each ``toepbrack ...`` line of the README's "Command line" block runs in
process; its stdout must equal ``tests/golden/<slug>.out`` byte for byte,
and its exit status must be 1 exactly when the README comment says
"exits 1".  Regenerate the files with ``python tests/test_golden.py`` and
record any bytes that move in CHANGES.md.  The export at the size cap is
pinned by the sha256 of its 84 MB of output instead.
"""

import contextlib
import hashlib
import re
import sys
from pathlib import Path

import pytest

from toepbrack.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_examples():
    """(argv, expected exit status) for each example of the README CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = command.split()
        if words[:1] == ["toepbrack"]:
            examples.append((words[1:], 1 if "exits 1" in comment else 0))
    return examples


def slug(argv):
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_")


EXAMPLES = readme_examples()


def test_readme_lists_examples():
    assert len(EXAMPLES) >= 9
    assert len({slug(argv) for argv, _ in EXAMPLES}) == len(EXAMPLES)


@pytest.mark.parametrize("argv,status", EXAMPLES, ids=[slug(a) for a, _ in EXAMPLES])
def test_stdout_matches_golden(capsys, argv, status):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == status
    assert out == (GOLDEN / f"{slug(argv)}.out").read_text(encoding="utf-8")


CAP_EXPORT = ["export", "--factors", "0:1,2.0:1", "--size", "4096", "--bc", "nn"]


class _Sha256Writer:
    """A text sink that keeps only the sha256 of what it is given."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


def test_export_at_the_cap_matches_pinned_hash():
    sink = _Sha256Writer()
    with contextlib.redirect_stdout(sink):
        assert main(CAP_EXPORT) == 0
    pinned = (GOLDEN / f"{slug(CAP_EXPORT)}.sha256").read_text(encoding="utf-8").strip()
    assert sink.digest.hexdigest() == pinned


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    real_stdout = sys.stdout
    for argv, _ in EXAMPLES:
        path = GOLDEN / f"{slug(argv)}.out"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            sys.stdout = fh
            try:
                main(argv)
            finally:
                sys.stdout = real_stdout
        print(path.relative_to(ROOT))
