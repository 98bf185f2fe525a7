"""Golden porcelain corpus: the CLI output of fixed inputs, byte for byte.

Each file under ``tests/golden/`` holds the porcelain output of every call
in :data:`CALLS` on one spec (``present`` for both pairings, ``verify``,
``cohomology``, ``hilbert --check``, ``zcl``, ``tc --torus 1``, ``lcs`` and
``zcl --torus 1``), each
after a ``$`` line naming the call and an ``rc`` line with its exit code.
The specs are the builtins through five blocks and the spec files in
``tests/golden/specs/``: two magnus specs with relators of 80-100 letters
and an inconsistent images table, on which ``verify`` and
``hilbert --check`` fail.  A change
that keeps the output keeps these files; regenerate them only for an
intended change of output, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from almostdirect.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

BUILTINS = (
    [("purebraid", l) for l in range(2, 7)]
    + [("partialpurebraid", l, k) for l in (1, 2, 3) for k in (1, 2, 3)]
    + [("uppermccool", n) for n in range(2, 7)]
    + [("purebraidbar", l) for l in range(3, 7)]
    + [("uppermccoolbar", n) for n in range(3, 7)]
)

CALLS = (
    ("present", "--porcelain", "--pairing", "first"),
    ("present", "--porcelain", "--pairing", "last"),
    ("verify", "--porcelain"),
    ("cohomology", "--porcelain"),
    ("hilbert", "--check", "--porcelain"),
    ("zcl", "--porcelain"),
    ("tc", "--porcelain", "--torus", "1"),
    ("lcs", "--porcelain"),
    ("zcl", "--porcelain", "--torus", "1"),
)


def cases():
    """``(golden file name, spec argument)`` for every spec of the corpus."""
    out = []
    for name, *args in BUILTINS:
        ref = ":".join(["builtin", name] + [str(a) for a in args])
        out.append(("%s.txt" % "-".join([name] + [str(a) for a in args]), ref))
    for path in sorted((GOLDEN / "specs").glob("*.spec")):
        out.append(("%s.txt" % path.stem, str(path)))
    return out


def render(spec_arg):
    """The transcript of every call of :data:`CALLS` on one spec."""
    parts = []
    for command, *flags in CALLS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main([command, spec_arg, *flags])
        parts.append("$ %s %s\nrc %d\n%s" % (command, " ".join(flags), rc, buf.getvalue()))
    return "".join(parts)


@pytest.mark.parametrize("filename, spec_arg", cases(), ids=[c[0] for c in cases()])
def test_porcelain_matches_golden(filename, spec_arg):
    expected = (GOLDEN / filename).read_text(encoding="utf-8")
    assert render(spec_arg) == expected


def test_corpus_has_every_case():
    names = {c[0] for c in cases()}
    on_disk = {p.name for p in GOLDEN.glob("*.txt")}
    assert names == on_disk
    assert len(list((GOLDEN / "specs").glob("*.spec"))) == 3


if __name__ == "__main__":
    for filename, spec_arg in cases():
        (GOLDEN / filename).write_text(render(spec_arg), encoding="utf-8")
        print("wrote", filename, file=sys.stderr)
