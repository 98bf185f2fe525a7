"""Golden porcelain corpus: the CLI output of fixed inputs, byte for byte.

Each file under ``tests/golden/`` holds the porcelain output of every call
in :data:`CALLS` on one spec (``present``, ``verify``, ``cohomology``,
``hilbert --check``, ``zcl``, ``tc --torus 1``, ``lcs`` and
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
import hashlib
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
    ("present", "--porcelain"),
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


# sha256 of ``zcl --porcelain`` at the sizes of the benchmark, where the
# product has 2,048 to 4,608 terms; the corpus above stops at 320
ZCL_AT_SCALE = (
    (
        ("builtin:purebraid:10",),
        "727ee9324bb628f330f797cc354d63c6f1e2cb599e1bd2c18f1da6624d658f8e",
    ),
    (
        ("builtin:uppermccool:10",),
        "488e0fbd61a4fc5212bb4a304eb2993a8e93d016190a1c130868b96e60540d6d",
    ),
    (
        ("builtin:purebraidbar:12", "--torus", "1"),
        "0bb975b775e55e7501c22ab0ccea28250057d9f97445d4722e8b08e0e42eb61c",
    ),
)


@pytest.mark.parametrize(
    "args, digest", ZCL_AT_SCALE, ids=[" ".join(a) for a, _ in ZCL_AT_SCALE]
)
def test_zcl_at_benchmark_scale_keeps_its_bytes(args, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["zcl", args[0], "--porcelain", *args[1:]])
    assert rc == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


if __name__ == "__main__":
    for filename, spec_arg in cases():
        (GOLDEN / filename).write_text(render(spec_arg), encoding="utf-8")
        print("wrote", filename, file=sys.stderr)
