import argparse
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import almostdirect

from almostdirect import homology
from almostdirect.adp import (
    BUILTINS,
    IMAGES,
    MAGNUS,
    ActionError,
    AdpSpec,
    extend_with_torus,
    partial_pure_braid,
    pure_braid,
    upper_mccool,
)
from almostdirect.cli import (
    SpecFileError,
    build_parser,
    format_spec,
    load_spec,
    main,
    parse_spec,
)
from almostdirect.words import IAWord, x
from oracles import random_spec
from test_acceptance import all_builtins_through_five_blocks
from test_words import reassemble

# two rank-1 blocks acting on a rank-2 block by non-commuting conjugations:
# every action line is IA on its own, but the pair violates the commutation
# relation between the first two blocks, so no iterated product exists
INCONSISTENT = """\
ranks = 1 1 2
mode = images
action 3 1 1 : 1 -> x(3,2)^-1 x(3,1) x(3,2)
action 3 2 1 : 2 -> x(3,1)^-1 x(3,2) x(3,1)
"""


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_present_builtin(capsys):
    rc, out, err = run(capsys, ["present", "builtin:purebraid:3"])
    assert rc == 0
    assert "x(2,1) x(1,1) = x(1,1) x(2,1) w" in out
    assert "[x(2,2), x(2,1)]" in out


def test_present_porcelain_is_stable(capsys):
    rc, out, err = run(capsys, ["present", "builtin:purebraid:3", "--porcelain"])
    assert rc == 0
    assert out.splitlines() == [
        "ranks 1 2",
        "relation 1 2 1 1 x(2,2)x(2,1)x(2,2)^-1x(2,1)^-1",
        "pair 1 2 1 1 1 x(2,2) x(2,1)",
        "relation 1 2 1 2 x(2,2)^-1x(2,1)x(2,2)x(2,1)^-1",
        "pair 1 2 1 2 1 x(2,2)^-1 x(2,1)",
    ]


def test_cohomology_lists_ideal_and_basis(capsys):
    rc, out, err = run(capsys, ["cohomology", "builtin:purebraid:3", "--basis"])
    assert rc == 0
    assert "eta(2;1,2) = e(1,1)e(2,1) - e(1,1)e(2,2) + e(2,1)e(2,2)" in out
    assert "H^2 basis (2): e(1,1)e(2,1) e(1,1)e(2,2)" in out


def test_cohomology_basis_porcelain(capsys):
    rc, out, err = run(
        capsys, ["cohomology", "builtin:purebraid:3", "--basis", "--porcelain"]
    )
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "ranks 1 2",
        "generators e(1,1) e(2,1) e(2,2)",
        "eta 2 1 2 +1*e(1,1)e(2,1)-1*e(1,1)e(2,2)+1*e(2,1)e(2,2)",
        "basis 0 1",
        "basis 1 e(1,1) e(2,1) e(2,2)",
        "basis 2 e(1,1)e(2,1) e(1,1)e(2,2)",
    ]
    # a rank-2 first block has a relation of its own
    rc, out, err = run(
        capsys, ["cohomology", "builtin:uppermccoolbar:4", "--basis", "--porcelain"]
    )
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "ranks 2 3",
        "generators e(1,1) e(1,2) e(2,1) e(2,2) e(2,3)",
        "eta 1 1 2 +1*e(1,1)e(1,2)",
        "eta 2 1 2 +1*e(2,1)e(2,2)",
        "eta 2 1 3 -1*e(1,1)e(2,3)+1*e(2,1)e(2,3)",
        "eta 2 2 3 -1*e(1,2)e(2,3)+1*e(2,2)e(2,3)",
        "basis 0 1",
        "basis 1 e(1,1) e(1,2) e(2,1) e(2,2) e(2,3)",
        "basis 2 e(1,1)e(2,1) e(1,1)e(2,2) e(1,1)e(2,3)"
        " e(1,2)e(2,1) e(1,2)e(2,2) e(1,2)e(2,3)",
    ]


def test_hilbert_check(count_calls, capsys):
    from almostdirect import cli, exterior

    rc, out, err = run(capsys, ["hilbert", "builtin:purebraid:4", "--check"])
    assert rc == 0
    assert "poincare polynomial coefficients: 1 6 11 6" in out
    # without --check: the header, then the Poincare record or line alone,
    # and no ring is built
    calls = [
        count_calls(cli, "cohomology_ring"),
        count_calls(exterior, "cohomology_ring"),
        count_calls(exterior.CohomologyRing, "__init__"),
    ]
    for porcelain, expected in (
        (
            False,
            [
                "purebraid 4: blocks 1 2 3",
                "poincare polynomial coefficients: 1 6 11 6",
            ],
        ),
        (True, ["ranks 1 2 3", "poincare 1 6 11 6"]),
    ):
        argv = ["hilbert", "builtin:purebraid:4"] + ["--porcelain"] * porcelain
        rc, out, err = run(capsys, argv)
        assert (rc, err) == (0, "")
        assert out.splitlines() == expected
    assert calls == [[]] * 3


def test_lcs(capsys):
    rc, out, err = run(capsys, ["lcs", "builtin:purebraid:3", "--max-k", "3"])
    assert rc == 0
    assert "phi_1=3 phi_2=1 phi_3=2" in out


def test_lcs_identity_reaches_a_thousand_degrees(capsys):
    from almostdirect.invariants import lcs_ranks

    argv = ["lcs", "builtin:purebraid:3", "--porcelain", "--max-k", "1000"]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "lcs-identity ok"
    phi = [line.split() for line in lines if line.startswith("phi ")]
    assert [int(k) for _, k, _ in phi] == list(range(1, 1001))
    assert tuple(int(p) for *_, p in phi) == lcs_ranks((1, 2), 1000)


def test_zcl(capsys):
    rc, out, err = run(capsys, ["zcl", "builtin:purebraidbar:3"])
    assert rc == 0
    assert "2 of 2 factors" in out


def test_tc(capsys):
    rc, out, err = run(capsys, ["tc", "builtin:purebraidbar:4", "--torus", "1"])
    assert rc == 0
    assert "tc = 6 (bounds agree)" in out


def test_torus_header_names_an_unnamed_spec(capsys):
    magnus = Path(__file__).parent / "golden" / "specs" / "longword-1-3.spec"
    rc, out, err = run(capsys, ["tc", str(magnus), "--torus", "1"])
    assert out.splitlines()[0] == "spec x Z^1: blocks 1 3 1"
    rc, out, err = run(capsys, ["tc", "builtin:purebraidbar:4", "--torus", "1"])
    assert out.splitlines()[0] == "purebraidbar 4 x Z^1: blocks 2 3 1"
    argv = ["tc", str(magnus), "--torus", "1", "--porcelain"]
    rc, out, err = run(capsys, argv)
    assert out.splitlines()[0] == "ranks 1 3 1"


def test_tc_builds_no_presentation_matrix_or_ring(count_calls, capsys, tmp_path):
    from almostdirect import adp, exterior
    from almostdirect.exterior import CohomologyRing

    calls = [
        count_calls(adp, "build_presentation"),
        count_calls(homology, "h2_matrix"),
        count_calls(exterior, "h2_matrix"),
        count_calls(CohomologyRing, "__init__"),
    ]
    path = tmp_path / "inconsistent.spec"
    path.write_text(INCONSISTENT)
    rc, out, err = run(capsys, ["tc", "builtin:purebraid:6", "--porcelain"])
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "ranks 1 2 3 4 5",
        "tc-lower 10",
        "tc-upper 11",
        "tc-exact none",
        "tc-witness-degree 9",
        "tc-free-blocks 5",
        "tc-torus-blocks 0",
    ]
    # the table has no iterated product, and tc still brackets it
    rc, out, err = run(capsys, ["tc", str(path), "--porcelain"])
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "ranks 1 1 2",
        "tc-lower 5",
        "tc-upper 7",
        "tc-exact none",
        "tc-witness-degree 4",
        "tc-free-blocks 3",
        "tc-torus-blocks 0",
    ]
    assert calls == [[]] * 4


def test_verify_passes_on_builtin(capsys):
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:3"])
    assert rc == 0
    assert "summary: all checks passed" in out


def test_verify_catches_inconsistent_actions(tmp_path, capsys):
    path = tmp_path / "bad.adp"
    path.write_text(INCONSISTENT)
    rc, out, err = run(capsys, ["verify", str(path)])
    assert rc == 2
    assert "groebner               fail" in out
    assert "summary: FAIL" in out


def test_verify_names_the_failing_critical_pair(tmp_path, capsys):
    path = tmp_path / "bad.adp"
    path.write_text(INCONSISTENT)
    rc, out, err = run(capsys, ["verify", str(path), "--porcelain"])
    assert rc == 2
    assert "verify groebner fail e(3,1)e(3,2) e(3,1)" in out.splitlines()
    rc, out, err = run(capsys, ["verify", str(path)])
    assert "groebner               fail (e(3,1)e(3,2) e(3,1))" in out
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:4", "--porcelain"])
    assert "verify groebner ok" in out.splitlines()
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:4"])
    assert "groebner               ok (10 products e(j,r) eta(j;p,q))" in out


def test_spec_file_from_path(tmp_path, capsys):
    path = tmp_path / "spec.adp"
    path.write_text("ranks = 1 2\naction 2 1 1 = B(1,2)\n")
    rc, out, err = run(capsys, ["present", str(path)])
    assert rc == 0
    assert "blocks 1 2" in out


def test_usage_errors_return_one(capsys):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    assert main(["present", "/no/such/file.adp"]) == 1
    assert main(["present", "builtin:wat:3"]) == 1
    assert main(["present", "builtin:purebraid:3", "--pairing", "last"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_negative_torus_is_an_error(capsys):
    for command in ("zcl", "tc"):
        argv = [command, "builtin:purebraid:3", "--torus", "-1"]
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (1, "", "error: torus rank must be nonnegative\n")


def test_lcs_max_k_below_one_is_an_error(capsys):
    for value in ("0", "-2"):
        argv = ["lcs", "builtin:purebraid:3", "--max-k", value]
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (1, "", "error: max_k must be at least 1\n")


def test_spec_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.spec"
    path.write_bytes(b"\xef\xbb\xbfranks = 1 2\naction 2 1 1 = B(1,2)\n")
    assert load_spec(str(path)) == parse_spec("ranks = 1 2\naction 2 1 1 = B(1,2)\n")
    rc, out, err = run(capsys, ["verify", str(path), "--porcelain"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[0] == "ranks 1 2"


def test_main_builds_the_parser_once(count_calls, capsys):
    import argparse

    main(["lcs", "builtin:purebraid:3"])
    built = count_calls(argparse.ArgumentParser, "__init__")
    assert main(["lcs", "builtin:purebraid:3"]) == 0
    assert main(["tc", "builtin:purebraid:3", "--porcelain"]) == 0
    assert built == []
    capsys.readouterr()


def module_argv(*args):
    """The argv and environment that run ``python -m almostdirect``."""
    src = str(Path(almostdirect.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return [sys.executable, "-m", "almostdirect", *args], env


def test_python_dash_m_runs_the_cli():
    argv, env = module_argv("--help")
    proc = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "usage: almostdirect" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr


def test_closed_stdout_ends_quietly():
    # about 1.3 MB of output, far more than a pipe buffer holds, so the
    # write is still blocked when the reader closes its end
    argv, env = module_argv("cohomology", "builtin:purebraid:8", "--basis")
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=60)
    assert first == b"purebraid 8: blocks 1 2 3 4 5 6 7\n"
    assert (rc, err) == (0, b"")


def test_parse_spec_round_trips_magnus():
    rng = random.Random(8)
    specs = [random_spec(rng) for _ in range(10)]
    specs = [s for s in specs if s.actions] or specs
    for spec in specs:
        assert parse_spec(format_spec(spec)) == spec


def test_parse_spec_round_trips_images():
    for spec in (pure_braid(4), upper_mccool(4), partial_pure_braid(2, 2)):
        assert parse_spec(format_spec(spec)) == spec


# both kinds of action in one spec, given out of relation order: the
# images action of x(2,2) leaves x(3,2) fixed, and the magnus action of
# x(1,1) on block 3 moves both generators
MIXED = AdpSpec(
    (1, 2, 2),
    {
        (2, 3, 2): (IMAGES, {1: x(3, 2) * x(3, 1) * x(3, 2, -1), 2: x(3, 2)}),
        (1, 3, 1): (MAGNUS, IAWord.parse(2, "B(1,2) B(2,1)")),
        (1, 2, 1): (IMAGES, {2: x(2, 1) * x(2, 2) * x(2, 1, -1)}),
    },
)


def test_a_parsed_images_table_shares_its_letters():
    # one tuple per letter x(j,q)^+-1 across the whole table, as in the
    # builtin it was written from
    spec = pure_braid(10)
    parsed = parse_spec(format_spec(spec))
    assert parsed == spec
    letters = {
        id(letter) for word in parsed.images.values() for letter in word.letters
    }
    assert len(letters) <= 2 * sum(spec.ranks)


def test_format_spec_writes_a_mixed_spec_in_images_mode():
    # the moved images of both kinds, one line each, in relation order
    text = format_spec(MIXED)
    assert text == (
        "ranks = 1 2 2\n"
        "mode = images\n"
        "action 2 1 1 : 2 -> x(2,1) x(2,2) x(2,1)^-1\n"
        "action 3 1 1 : 1 -> x(3,1)^-1 x(3,2)^-1 x(3,1) x(3,2) x(3,1)\n"
        "action 3 1 1 : 2 -> x(3,1)^-1 x(3,2) x(3,1)\n"
        "action 3 2 2 : 1 -> x(3,2) x(3,1) x(3,2)^-1\n"
    )
    reread = parse_spec(text)
    assert reread == MIXED
    assert format_spec(reread) == text


def test_parse_spec_round_trips_torus_extension():
    spec = extend_with_torus(upper_mccool(3), 2)
    assert parse_spec(format_spec(spec)) == spec


def test_parse_spec_accepts_comments_and_defaults():
    text = """
    # three blocks
    ranks = 1 2   # trailing comment
    action 2 1 1 = B(1,2)
    """
    spec = parse_spec(text)
    assert spec.ranks == (1, 2)
    assert (1, 2, 1) in spec.actions


def test_a_builtin_line_must_be_the_whole_spec():
    misplaced = (
        ("ranks = 1 2\nbuiltin purebraid 3\n", 2, 1),
        ("mode = images\nbuiltin purebraid 3\n", 2, 1),
        ("builtin purebraid 3\nranks = 1 2\n", 2, 1),
        ("builtin purebraid 3\nbuiltin purebraid 3\n", 2, 1),
        ("ranks = 1 2\naction 2 1 1 = B(1,2)\n builtin purebraid 3\n", 3, 2),
    )
    for text, line, col in misplaced:
        with pytest.raises(SpecFileError) as info:
            parse_spec(text)
        assert str(info.value) == (
            "line %d, column %d: builtin line must be the whole spec" % (line, col)
        )
    # comments and blank lines are not statements
    assert parse_spec("# c\n\n  builtin purebraid 3  # x\n").name == "purebraid 3"


def test_images_mode_omitted_generators_stay_fixed():
    text = "ranks = 1 2\nmode = images\naction 2 1 1 : 2 -> x(2,2)\n"
    # the only given image is the identity, so the action is trivial
    assert parse_spec(text) == AdpSpec((1, 2))


PARSE_ERRORS = (
    ("ranks = 1 x\n", 1, 11, "expected rank, got 'x'"),
    (
        "ranks = 1 2\nmode = images\naction 2 1 1 = B(1,2)\n",
        3,
        14,
        "'=' action line in images mode",
    ),
    ("mode = magnus\n", 1, 1, "spec has no ranks line"),
    ("ranks = 1 2\nranks = 1 2\n", 2, 1, "duplicate ranks line"),
    ("ranks = 1 2\nzap\n", 2, 1, "unknown directive 'zap'"),
    (
        "builtin wat 3\n",
        1,
        9,
        "unknown builtin 'wat' (choose from partialpurebraid, purebraid,"
        " purebraidbar, uppermccool, uppermccoolbar)",
    ),
    ("ranks = 1 2\nmode = images\nmode = images\n", 3, 1, "duplicate mode line"),
    ("ranks = 1 0\n", 1, 11, "rank must be at least 1"),
    ("builtin\n", 1, 1, "builtin needs a name"),
    # an argument the family refuses points at the builtin line
    (
        "builtin partialpurebraid 0 1\n",
        1,
        1,
        "partial pure braid needs l >= 1 and k >= 1",
    ),
    ("builtin uppermccool 1\n", 1, 1, "upper McCool needs n >= 2"),
    ("ranks 1 2\n", 1, 1, "expected 'ranks = n1 n2 ...'"),
    ("ranks =\n", 1, 7, "ranks needs at least one block"),
    ("mode images\n", 1, 1, "expected 'mode = magnus' or 'mode = images'"),
    ("mode = wat\n", 1, 8, "mode must be 'magnus' or 'images'"),
)


def test_parse_errors_carry_positions():
    for text, line, col, message in PARSE_ERRORS:
        with pytest.raises(SpecFileError) as info:
            parse_spec(text)
        assert (info.value.line, info.value.col, info.value.message) == (
            line,
            col,
            message,
        ), text
        assert str(info.value) == "line %d, column %d: %s" % (line, col, message)


def test_images_payload_with_index_zero_points_at_the_payload():
    head = "ranks = 1 2\nmode = images\n"
    with pytest.raises(SpecFileError) as syntax:
        parse_spec(head + "action 2 1 1 : 2 -> y(2,1)\n")
    for word in ("x(2,0)", "x(2,2) x(0,1)^2 x(2,1)"):
        with pytest.raises(SpecFileError) as info:
            parse_spec(head + "action 2 1 1 : 2 -> %s\n" % word)
        # the column of the payload, as for a syntax error in it, and not
        # the action line's first column
        assert (info.value.line, info.value.col) == (3, syntax.value.col)
        assert info.value.col == 20
        assert info.value.message == "generator indices start at 1"


def test_an_exponent_past_an_index_is_an_error_at_the_payload(capsys, tmp_path):
    # 20 digits do not fit in an index: the parse fails before it allocates
    for text, where in (
        ("ranks = 1 2\naction 2 1 1 = B(1,2)^99999999999999999999\n", (2, 16)),
        (
            "ranks = 1 2\nmode = images\n"
            "action 2 1 1 : 1 -> x(2,1)^99999999999999999999\n",
            (3, 20),
        ),
    ):
        path = tmp_path / "huge.spec"
        path.write_text(text)
        rc, out, err = run(capsys, ["verify", str(path), "--porcelain"])
        assert (rc, out) == (1, "")
        assert err == (
            "error: line %d, column %d: exponent 99999999999999999999 is too large\n"
            % where
        )


def test_a_payload_past_the_bound_is_an_error_at_its_column():
    # the first two fail on their exponent; the third reduces to one run,
    # which format_spec would write as x(2,1)^1200000
    for text, expected in (
        (
            "ranks = 1 2\naction 2 1 1 = B(1,2)^10000000000\n",
            (2, 16, "exponent 10000000000 is too large"),
        ),
        (
            "ranks = 1 2\nmode = images\n"
            "action 2 1 1 : 1 -> x(2,1)^1000000000000000000\n",
            (3, 20, "exponent 1000000000000000000 is too large"),
        ),
        (
            "ranks = 1 2\nmode = images\n"
            "action 2 1 1 : 1 -> x(2,1)^600000 x(2,1)^600000\n",
            (3, 20, "word has more than 1000000 letters"),
        ),
    ):
        start = time.perf_counter()
        with pytest.raises(SpecFileError) as info:
            parse_spec(text)
        assert time.perf_counter() - start < 0.5, text
        assert (info.value.line, info.value.col, info.value.message) == expected


def test_a_number_past_the_digits_int_reads_is_an_error_at_the_payload():
    # 5,000 digits: more than int, str or %d handle, so each number is
    # quoted as written, at the payload column, where 20 digits of an
    # exponent or of an IA index fail too
    huge = "9" * 5000
    images = "ranks = 1 2\nmode = images\naction 2 1 1 : 1 -> "
    for text, expected in (
        ("ranks = 1 2\naction 2 1 1 = B(1,2)^" + huge, (2, 16, "exponent ")),
        ("ranks = 1 2\naction 2 1 1 = B(1,2)^-" + huge, (2, 16, "exponent -")),
        ("ranks = 1 2\naction 2 1 1 = B(1,%s)" % huge, (2, 16, "index ")),
        ("ranks = 1 3\naction 2 1 1 = T(%s;2,3)" % huge, (2, 16, "index ")),
        (images + "x(2,1)^" + huge, (3, 20, "exponent ")),
        (images + "x(2,1)^-" + huge, (3, 20, "exponent -")),
        # 20 digits of a word's index pass the parse, and the spec refuses
        # the image at the action's first column; these cannot pass it
        (images + "x(2,%s)" % huge, (3, 20, "index ")),
        (images + "x(%s,1)" % huge, (3, 20, "block ")),
    ):
        line, col, quoted = expected
        start = time.perf_counter()
        with pytest.raises(SpecFileError) as info:
            parse_spec(text + "\n")
        assert time.perf_counter() - start < 0.5, quoted
        assert (info.value.line, info.value.col) == (line, col), quoted
        assert info.value.message == quoted + huge + " is too large"


def test_action_validation_points_at_the_action_line():
    with pytest.raises(SpecFileError) as info:
        parse_spec("ranks = 1 2\naction 2 1 1 = B(9,1)\n")
    assert info.value.line == 2


# a valid action on line 3, then an image on line 4 that is not IA
NOT_IA_ON_LINE_4 = """\
ranks = 1 1 2
mode = images
action 3 1 1 : 1 -> x(3,2)^-1 x(3,1) x(3,2)
action 3 2 1 : 2 -> x(3,1) x(3,2) x(3,1)
"""


def test_action_errors_name_the_line_of_the_failing_action(capsys, tmp_path):
    # the spec names the key of the action it refuses
    with pytest.raises(ActionError) as info:
        AdpSpec(
            (1, 1, 2),
            {(2, 3, 1): (IMAGES, {1: x(3, 1), 2: x(3, 1) * x(3, 2) * x(3, 1)})},
        )
    assert info.value.key == (2, 3, 1)
    path = tmp_path / "bad.spec"
    path.write_text(NOT_IA_ON_LINE_4)
    rc, out, err = run(capsys, ["verify", str(path)])
    assert (rc, out) == (1, "")
    assert err == (
        "error: line 4, column 1: image of x(3,2) is not IA:"
        " x(3,1) x(3,2) x(3,1)\n"
    )


def test_an_image_leaving_its_block_names_the_first_line_of_its_action():
    text = (
        "ranks = 1 1 2\n"
        "mode = images\n"
        "action 3 1 1 : 1 -> x(3,2)^-1 x(3,1) x(3,2)\n"
        "action 3 2 1 : 1 -> x(3,1)\n"
        "action 3 2 1 : 2 -> x(1,1) x(3,2) x(1,1)^-1\n"
    )
    with pytest.raises(SpecFileError) as info:
        parse_spec(text)
    assert (info.value.line, info.value.col) == (4, 1)
    assert info.value.message == (
        "image of x(3,2) leaves block 3: x(1,1) x(3,2) x(1,1)^-1"
    )


MAG = "ranks = 1 2 3\n"  # the header of the magnus heads below
IMG = "ranks = 1 2 3\nmode = images\n"  # and of the images heads
B12 = AdpSpec((1, 2, 3), {(1, 2, 1): (MAGNUS, IAWord.parse(2, "B(1,2)"))})
B13_T213 = IAWord.parse(3, "B(1,3)^-1 T(2;1,3)")
BLOCKS = "blocks must satisfy 1 <= I < J <= 3"
SEPARATOR = "expected '=' or ':' after the action key"
ARROW = "expected 'action J I P : Q -> word'"
IMAGES_ONLY = "':' action line needs 'mode = images'"

# action-line heads with the spec they give or their exact (line, column,
# message), as the token reader of the heads gave them: well-formed heads
# in every spacing, then unusual and malformed ones
ACTION_HEADS = (
    (MAG + "action\t2\t1\t1\t=\tB(1,2)\n", B12),
    (MAG + "   action   2  1   1   =   B(1,2)   \n", B12),
    (MAG + "action 2 1 1 = B(1,2) # x(1,1) on block 2\n", B12),
    (MAG + "action 02 01 001 = B(1,2)\n", B12),
    (MAG + "action 2 1 1 =\n", AdpSpec((1, 2, 3))),
    (MAG + "action 2 1 1 =# trivial\n", AdpSpec((1, 2, 3))),
    (
        MAG + "action 3 2 2 = B(1,3)^-1 T(2;1,3)\n",
        AdpSpec((1, 2, 3), {(2, 3, 2): (MAGNUS, B13_T213)}),
    ),
    (
        IMG + "action 3 2 2 : 02 -> x(3,1) x(3,2) x(3,1)^-1\n",
        AdpSpec((1, 2, 3), {(2, 3, 2): (IMAGES, {2: x(3, 1) * x(3, 2) * x(3, 1, -1)})}),
    ),
    (
        IMG + "action\t3 1 1\t:\t3\t->\tx(3,1)^-1 x(3,3) x(3,1)  # tabs\n",
        AdpSpec((1, 2, 3), {(1, 3, 1): (IMAGES, {3: x(3, 1, -1) * x(3, 3) * x(3, 1)})}),
    ),
    # unusual heads: int() reads them
    (MAG + "action +2 1 1 = B(1,2)\n", B12),
    (MAG + "action 2 \u0661 1 = B(1,2)\n", B12),
    # an NBSP is a blank; an empty payload or 1 is the trivial action
    (MAG + "action\u00a02 1 1 = B(1,2)\n", B12),
    (MAG + "action 2 1 1 = # trivial\n", AdpSpec((1, 2, 3))),
    (MAG + "action 2 1 1 = 1\n", AdpSpec((1, 2, 3))),
    # malformed heads
    (MAG + "action\n", (2, 1, "action line too short")),
    (MAG + "action   \n", (2, 1, "action line too short")),
    (MAG + "action 2 1 1 :\n", (2, 14, IMAGES_ONLY)),
    (IMG + "action 2 1 1 :\n", (3, 14, ARROW)),
    (MAG + "action2 1 1 = B(1,2)\n", (2, 1, "unknown directive 'action2'")),
    (MAG + "action 2 1 1 =B(1,2)\n", (2, 14, SEPARATOR)),
    (MAG + "action 2 1 1 => B(1,2)\n", (2, 14, SEPARATOR)),
    (MAG + "action 2 1\n", (2, 1, "action line too short")),
    (MAG + "action x 1 1 = B(1,2)\n", (2, 8, "expected target block, got 'x'")),
    (MAG + "action 2 -1 1 = B(1,2)\n", (2, 8, BLOCKS)),
    (MAG + "action 2 1 1.0 = B(1,2)\n", (2, 12, "expected acting index, got '1.0'")),
    (IMG + "action 2 1 1 : 2 x(2,2)\n", (3, 14, ARROW)),
    (IMG + "action 2 1 1 : 2\n", (3, 14, ARROW)),
    (IMG + "action 2 1 1 : 2 ->x(2,2)\n", (3, 14, ARROW)),
    (IMG + "action 2 1 1 : x -> x(2,2)\n", (3, 16, "expected image index, got 'x'")),
    (MAG + "action 4 1 1 = B(1,2)\n", (2, 8, BLOCKS)),
    (MAG + "action 2 2 1 = B(1,2)\n", (2, 8, BLOCKS)),
    (MAG + "action 2 0 1 = B(1,2)\n", (2, 8, BLOCKS)),
    (
        MAG + "action 2 1 2 = B(1,2)\n",
        (2, 12, "acting index 2 exceeds rank 1 of block 1"),
    ),
    (
        MAG + "action 3 2 0 = B(1,2)\n",
        (2, 12, "acting index 0 exceeds rank 2 of block 2"),
    ),
    (
        IMG + "action 2 1 1 : 3 -> x(2,1)\n",
        (3, 16, "image index 3 exceeds rank 2 of block 2"),
    ),
    (
        IMG + "action 2 1 1 : 0 -> x(2,1)\n",
        (3, 16, "image index 0 exceeds rank 2 of block 2"),
    ),
    (
        MAG + "action 2 1 1 = B(1,2)\naction 2 1 1 = B(2,1)\n",
        (3, 1, "duplicate action 2 1 1"),
    ),
    (
        IMG + "action 2 1 1 : 2 -> x(2,1) x(2,2) x(2,1)^-1\n"
        "action 2 1 1 : 2 -> x(2,2)\n",
        (4, 16, "duplicate image for x(2,2) under action 2 1 1"),
    ),
    (IMG + "action 2 1 1 = B(1,2)\n", (3, 14, "'=' action line in images mode")),
    (MAG + "action 2 1 1 : 2 -> x(2,2)\n", (2, 14, IMAGES_ONLY)),
    # the mode decides before the arrow and the image index are read
    (MAG + "action 2 1 1 : x\n", (2, 14, IMAGES_ONLY)),
    (MAG + "action 2 1 1 = B(1,2) Q\n", (2, 16, "bad IA word syntax at 'Q'")),
    (
        MAG + "action 2 1 1 = B(1,3)\n",
        (2, 16, "IA generator ('beta', 1, 3) exceeds block rank 2"),
    ),
    (IMG + "action 2 1 1 : 2 -> x(2,2) y\n", (3, 20, "bad word syntax at 'y'")),
    (IMG + "action 2 1 1 : 1 ->\n", (3, 1, "image of x(2,1) is not IA: 1")),
    (
        IMG + "action 3 1 1 : 1 -> x(3,1)\naction 3 1 1 : 3 -> x(2,1)\n",
        (3, 1, "image of x(3,3) leaves block 3: x(2,1)"),
    ),
    (
        "action 2 1 1 = B(1,2)\nranks = 1 2\n",
        (1, 1, "ranks must come before action lines"),
    ),
    ("  action 2 1 1 = B(1,2)\n", (1, 3, "ranks must come before action lines")),
    (
        "builtin purebraid 3\naction 2 1 1 = B(1,2)\n",
        (2, 1, "builtin line must be the whole spec"),
    ),
    (
        MAG + "action 2 1 1 = B(1,2)\nmode = images\n",
        (3, 1, "mode must come before action lines"),
    ),
)


def test_action_heads_give_their_spec_or_their_error():
    for text, expected in ACTION_HEADS:
        if isinstance(expected, AdpSpec):
            spec = parse_spec(text)
            assert spec == expected, text
            assert format_spec(spec) == format_spec(expected), text
            continue
        with pytest.raises(SpecFileError) as info:
            parse_spec(text)
        got = (info.value.line, info.value.col, info.value.message)
        assert got == expected, text


def test_written_action_lines_never_reach_the_token_split(count_calls):
    import almostdirect.cli as cli

    split = count_calls(cli, "_tokens")
    specs = [load_spec(str(path)) for path in sorted(GOLDEN_SPECS.glob("*.spec"))]
    specs += all_builtins_through_five_blocks()
    for spec in specs:
        del split[:]
        text = format_spec(spec)
        assert parse_spec(text) == spec
        # the pattern reads every action head; only ranks and mode split
        assert [line for (line,) in split] == text.splitlines()[:2], spec.name


def test_action_lines_in_any_blank_runs_parse_to_the_same_spec():
    # the written action lines of many specs, their tokens rejoined with
    # random runs of spaces, tabs and NBSPs, leading blanks and a comment
    rng = random.Random(35)
    blanks = (" ", "\t", "\u00a0")

    def run_of_blanks():
        return "".join(rng.choice(blanks) for _ in range(rng.randint(1, 3)))

    specs = [load_spec(str(path)) for path in sorted(GOLDEN_SPECS.glob("*.spec"))]
    specs += all_builtins_through_five_blocks()
    specs += [random_spec(random.Random(seed)) for seed in range(50)]
    for spec in specs:
        text = format_spec(spec)
        lines = []
        for line in text.splitlines():
            if line.startswith("action"):
                tokens = line.split()
                line = run_of_blanks() + tokens[0]
                line += "".join(run_of_blanks() + token for token in tokens[1:])
                line += run_of_blanks() + "# comment"
            lines.append(line)
        parsed = parse_spec("\n".join(lines) + "\n")
        assert parsed == spec, spec.name
        assert format_spec(parsed) == text, spec.name


def test_load_spec_builtin_reference():
    assert load_spec("builtin:purebraid:4") == pure_braid(4)
    assert load_spec("builtin:partialpurebraid:2:3") == partial_pure_braid(2, 3)
    with pytest.raises(ValueError):
        load_spec("builtin:purebraid")
    with pytest.raises(ValueError):
        load_spec("builtin:purebraid:x")


def test_every_builtin_is_named_by_its_reference():
    sizes = {1: ((3,), (6,)), 2: ((1, 3), (3, 2))}
    for name, (_, nargs) in BUILTINS.items():
        for args in sizes[nargs]:
            words = [name, *map(str, args)]
            assert load_spec(":".join(["builtin", *words])).name == " ".join(words)


def test_builtin_reference_errors_read_like_the_file_form(capsys, tmp_path):
    # one parser for both forms; the inline one has no position to name
    rc, out, err = run(capsys, ["present", "builtin:purebraid:x"])
    assert (rc, err) == (1, "error: expected builtin argument, got 'x'\n")
    path = tmp_path / "bad.spec"
    path.write_text("builtin purebraid x\n")
    rc, out, err = run(capsys, ["present", str(path)])
    assert (rc, err) == (
        1,
        "error: line 1, column 19: expected builtin argument, got 'x'\n",
    )


def test_verify_makes_no_laurent_or_fox_call(count_calls, capsys):
    from almostdirect import fox
    from almostdirect.laurent import LaurentPoly

    calls = [
        count_calls(homology, "chain_a2"),
        count_calls(homology, "koszul_d2"),
        count_calls(homology, "abel_gradient"),
        count_calls(fox, "abel_gradient"),
        count_calls(LaurentPoly, "__init__"),
    ]
    magnus = Path(__file__).parent / "golden" / "specs" / "longword-1-3.spec"
    for ref in ("builtin:purebraid:4", "builtin:uppermccoolbar:5", str(magnus)):
        rc, out, err = run(capsys, ["verify", ref, "--porcelain"])
        assert rc == 0
        assert out.splitlines()[-1] == "verify-summary ok"
    assert calls == [[]] * 5


def test_verify_reaches_fourteen_strands(count_calls, monkeypatch, capsys):
    from almostdirect.exterior import CohomologyRing

    checks = []
    real = CohomologyRing.critical_normal_forms

    def counted(ring):
        for lead, cofactor, terms in real(ring):
            checks.append((lead, cofactor))
            yield lead, cofactor, terms

    monkeypatch.setattr(CohomologyRing, "critical_normal_forms", counted)
    reduced = count_calls(CohomologyRing, "reduce_mono")
    rings = count_calls(CohomologyRing, "__init__")
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:14", "--porcelain"])
    assert rc == 0
    assert out.splitlines()[-1] == "verify-summary ok"
    # 2 C(n_j + 1, 3) products e(j,r) eta(j;p,q), r <= q, per block, where
    # all pairs of the 364 relations would be 66,430 more
    assert len(checks) == len(set(checks)) == 2 * math.comb(15, 4) == 2730
    assert len(rings) == 1
    # the certificate sums its normal forms from the rules, with no memo
    ring = rings[0][0]
    assert reduced == [] and ring._memo == {}


def test_verify_neither_enumerates_the_basis_nor_eliminates(
    count_calls, capsys, tmp_path
):
    from almostdirect.exterior import CohomologyRing

    basis = count_calls(CohomologyRing, "basis")
    rank = count_calls(homology.H2Matrix, "has_full_row_rank")
    images = tmp_path / "images.spec"
    images.write_text(INCONSISTENT)
    for ref, code in (("builtin:purebraid:5", 0), (str(images), 2)):
        rc, out, err = run(capsys, ["verify", ref, "--porcelain"])
        assert rc == code
        assert "verify matrix-rank ok" in out.splitlines()
    assert basis == [] and rank == []


def test_verify_round_trip_parses_the_spec_text_once(count_calls, capsys, tmp_path):
    import almostdirect.cli as cli

    calls = count_calls(cli, "parse_spec")
    images = tmp_path / "images.spec"
    images.write_text(INCONSISTENT)
    magnus = Path(__file__).parent / "golden" / "specs" / "longword-1-3.spec"
    for path, code in ((magnus, 0), (images, 2)):
        del calls[:]
        rc, out, err = run(capsys, ["verify", str(path), "--porcelain"])
        assert rc == code
        assert "verify round-trip ok" in out.splitlines()
        # one parse to load the file, one of the text format_spec writes
        assert len(calls) == 2


def test_verify_round_trip_compares_the_reread_images_spec(
    monkeypatch, capsys
):
    import almostdirect.cli as cli

    real = cli.format_spec

    def without_images(spec):
        # the text loses its mode line and every images action line, so it
        # parses back to a trivial spec that writes the same text
        lines = real(spec).splitlines(keepends=True)
        return "".join(
            line
            for line in lines
            if not line.startswith("mode") and " -> " not in line
        )

    monkeypatch.setattr(cli, "format_spec", without_images)
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:4", "--porcelain"])
    assert rc == 2
    assert "verify round-trip fail" in out.splitlines()


GOLDEN_SPECS = Path(__file__).parent / "golden" / "specs"

# IA words of 40 factors: (B(1,2) B(2,1))^20, whose images grow linearly,
# and one of rank 3 whose images would hold over 10^17 letters (six of its
# periods already make 153,719,787)
FORTY_FACTORS = (
    (2, " ".join(["B(1,2) B(2,1)"] * 20)),
    (3, " ".join(["T(1;2,3) T(2;3,1) T(3;1,2)"] * 13 + ["T(1;2,3)"])),
)


def test_forty_factor_actions_are_never_expanded(monkeypatch, capsys, tmp_path):
    def refuse(ia, block):
        raise AssertionError("IA word expanded")

    monkeypatch.setattr(IAWord, "images", refuse)
    calls = (
        ["cohomology"],
        ["tc"],
        ["zcl"],
        ["lcs"],
        ["hilbert", "--check"],
        ["verify"],
    )
    outputs = []
    for n, word in FORTY_FACTORS:
        assert len(IAWord.parse(n, word).factors) == 40
        path = tmp_path / ("rank%d.spec" % n)
        path.write_text("ranks = 1 %d\nmode = magnus\naction 2 1 1 = %s\n" % (n, word))
        # hash reads the action keys, not the images
        twin = AdpSpec((1, n), {(1, 2, 1): (MAGNUS, IAWord.parse(n, word))})
        assert hash(load_spec(str(path))) == hash(twin)
        for argv in calls:
            start = time.perf_counter()
            rc, out, err = run(capsys, [argv[0], str(path), *argv[1:], "--porcelain"])
            elapsed = time.perf_counter() - start
            assert (rc, err) == (0, ""), argv
            assert elapsed < 0.5, (argv, elapsed)
            outputs.append(out)
    # the rows are the factor counts: tau_1 sends x(2,1) to 20 e(2,1)e(2,2)
    # and x(2,2) to -20 e(2,1)e(2,2) in the first spec
    assert outputs[0].splitlines()[2] == (
        "eta 2 1 2 -20*e(1,1)e(2,1)+20*e(1,1)e(2,2)+1*e(2,1)e(2,2)"
    )
    for out in (outputs[5], outputs[11]):
        assert out.splitlines()[-1] == "verify-summary ok"


def test_unequal_forty_factor_specs_compare_by_tau_1(monkeypatch):
    def refuse(ia, block):
        raise AssertionError("IA word expanded")

    monkeypatch.setattr(IAWord, "images", refuse)
    n, word = FORTY_FACTORS[1]
    start = time.perf_counter()
    specs = [
        AdpSpec((1, n), {(1, 2, 1): (MAGNUS, IAWord.parse(n, text))})
        for text in (word, word + " T(1;2,3)")
    ]
    # equal keys, so equal hashes: the set compares the two specs
    assert specs[0] != specs[1]
    assert len(set(specs)) == 2
    assert time.perf_counter() - start < 0.5


def test_verify_expands_no_word_of_the_golden_magnus_specs(count_calls, capsys):
    calls = count_calls(IAWord, "images")
    for name in ("longword-1-3", "longword-2-2"):
        path = GOLDEN_SPECS / (name + ".spec")
        for form in (["--porcelain"], []):
            rc, out, err = run(capsys, ["verify", str(path), *form])
            assert (rc, err) == (0, "")
    assert calls == []


def test_verify_computes_tau_1_once_per_parse_of_an_action(count_calls, capsys):
    # once as the file loads and once as the round-trip text parses back;
    # the ring and == read the tau_1 the spec kept
    path = GOLDEN_SPECS / "longword-2-2.spec"
    actions = len(load_spec(str(path)).actions)
    calls = count_calls(IAWord, "johnson")
    rc, out, err = run(capsys, ["verify", str(path), "--porcelain"])
    assert (rc, err) == (0, "")
    assert len(calls) == 2 * actions == 4


def tamper_magnus_round_trip(monkeypatch, writer=None, parser=None):
    # verify of longword-2-2 with format_spec or the parse of its text
    # replaced; the loaded spec is read as it is
    import almostdirect.cli as cli

    spec = load_spec(str(GOLDEN_SPECS / "longword-2-2.spec"))
    with monkeypatch.context() as m:
        if writer is not None:
            real_format = cli.format_spec
            m.setattr(cli, "format_spec", lambda s: writer(real_format(s)))
        if parser is not None:
            real_parse = cli.parse_spec
            m.setattr(cli, "parse_spec", lambda text: parser(real_parse(text)))
        m.setattr(cli, "load_spec", lambda argument: spec)
        return main(["verify", "longword-2-2", "--porcelain"])


# a commutator has tau_1 = 0, so only the images tell the tampered action
# from the true one
COMMUTATOR = "B(1,2) B(2,1) B(1,2)^-1 B(2,1)^-1"


def test_verify_round_trip_fails_on_a_tampered_magnus_writer(monkeypatch, capsys):
    commutator = IAWord.parse(2, COMMUTATOR)
    assert commutator.johnson(2) == {}
    assert commutator.images(2) != (x(2, 1), x(2, 2))
    writers = (
        lambda text: text.rsplit("action", 1)[0],  # drops the last action
        lambda text: text.rstrip("\n") + " " + COMMUTATOR + "\n",
        lambda text: text.replace("B(1,2)", "B(2,1)", 1),
    )
    for writer in writers:
        assert tamper_magnus_round_trip(monkeypatch, writer=writer) == 2
        assert "verify round-trip fail" in capsys.readouterr().out.splitlines()


def test_verify_round_trip_fails_on_a_tampered_magnus_parser(monkeypatch, capsys):
    def appended(spec, ia):
        # the last action composed with ia
        key, (kind, last) = list(spec.actions.items())[-1]
        actions = dict(spec.actions)
        actions[key] = (kind, IAWord(last.rank, last.factors + ia.factors))
        return AdpSpec(spec.ranks, actions)

    parsers = (
        lambda spec: appended(spec, IAWord.parse(2, COMMUTATOR)),
        lambda spec: appended(spec, IAWord.parse(2, "B(1,2)")),
        lambda spec: AdpSpec(spec.ranks, {}),
    )
    for parser in parsers:
        assert tamper_magnus_round_trip(monkeypatch, parser=parser) == 2
        assert "verify round-trip fail" in capsys.readouterr().out.splitlines()
    # an untampered round trip passes
    assert tamper_magnus_round_trip(monkeypatch, parser=lambda spec: spec) == 0
    assert "verify round-trip ok" in capsys.readouterr().out.splitlines()


def tamper_image(monkeypatch, key, extra):
    # verify then builds its matrix from the image table of purebraid 4
    # with the image at key multiplied by extra; returns that table
    from almostdirect import exterior

    real = exterior.h2_matrix

    def tampered(ranks, table):
        table = dict(table)
        table[key] = table[key] * extra
        return real(ranks, table)

    monkeypatch.setattr(exterior, "h2_matrix", tampered)
    images = dict(pure_braid(4).images)
    images[key] = images[key] * extra
    return images


def test_verify_matrix_rank_names_the_row_and_column(monkeypatch, capsys):
    from almostdirect.homology import verify_chain_map
    from almostdirect.words import commutator

    key = (1, 3, 1, 2)
    # the extra commutator reassembles and passes the Laurent chain map,
    # but puts an entry in column e(1,1)e(2,1), outside block 3
    images = tamper_image(monkeypatch, key, commutator(x(1, 1), x(2, 1)))
    words = {k: x(k[1], k[3], -1) * w for k, w in images.items()}
    assert all(
        reassemble(homology.commutator_decompose(w)) == w for w in words.values()
    )
    assert verify_chain_map((1, 2, 3), words).ok
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:4", "--porcelain"])
    assert (rc, err) == (2, "")
    assert out.splitlines()[1:] == [
        "verify matrix-rank fail 1 3 1 2 e(1,1)e(2,1)",
        "verify groebner fail",
        "verify round-trip ok",
        "verify-summary fail",
    ]
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:4"])
    assert rc == 2
    assert "  matrix-rank            fail (1 3 1 2 e(1,1)e(2,1))" in out.splitlines()


def test_verify_builds_no_presentation_and_one_matrix(count_calls, capsys):
    import almostdirect.adp as adp
    from almostdirect import exterior

    built = count_calls(adp, "build_presentation")
    matrices = count_calls(exterior, "h2_matrix")
    decomposed = count_calls(homology, "commutator_decompose")
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:4", "--porcelain"])
    assert rc == 0
    assert built == [] and len(matrices) == 1
    # h2_matrix reads each row off the spec's image table, never off pairs
    spec = pure_braid(4)
    assert matrices[0] == (spec.ranks, spec.images)
    assert decomposed == []


def test_only_present_builds_a_presentation(count_calls, capsys, tmp_path):
    import almostdirect.adp as adp
    import almostdirect.cli as cli
    from almostdirect import exterior

    assert not hasattr(exterior, "build_presentation")
    calls = [
        count_calls(adp, "build_presentation"),
        count_calls(cli, "build_presentation"),
    ]
    path = tmp_path / "inconsistent.spec"
    path.write_text(INCONSISTENT)
    # the table has no iterated product: hilbert --check and verify fail
    refs = (("builtin:purebraid:5", ()), (str(path), ("hilbert", "verify")))
    for ref, failing in refs:
        for argv in (["cohomology"], ["zcl"], ["hilbert", "--check"], ["verify"]):
            rc = 2 if argv[0] in failing else 0
            for form in ([], ["--porcelain"]):
                assert main([argv[0], ref, *argv[1:], *form]) == rc, argv
    assert calls == [[], []]
    assert main(["present", "builtin:purebraid:5"]) == 0
    assert [len(c) for c in calls] == [0, 1]
    capsys.readouterr()


def test_only_present_decomposes_words(count_calls, capsys):
    import almostdirect.cli as cli

    # the Laurent oracle and cmd_present are the two callers
    in_oracle = count_calls(homology, "commutator_decompose")
    in_present = count_calls(cli, "commutator_decompose")
    for argv in (
        ["cohomology"],
        ["zcl"],
        ["tc", "--torus", "1"],
        ["hilbert", "--check"],
        ["verify"],
    ):
        assert main([argv[0], "builtin:purebraid:5", *argv[1:]]) == 0
    assert in_oracle == in_present == []
    # present decomposes each of the 25 moved relations of the 35 once, by
    # its word alone; an unmoved relation has no pairs
    moved = pure_braid(5).images
    assert len(moved) == 25
    assert main(["present", "builtin:purebraid:5"]) == 0
    assert in_oracle == []
    assert in_present == [
        (x(j, q, -1) * image,) for (i, j, p, q), image in moved.items()
    ]
    capsys.readouterr()


def test_hilbert_check_fails_without_a_groebner_basis(capsys, tmp_path):
    # the counts agree with prod (1 + n_j t), but the products
    # e(j,r) eta(j;p,q) refute the relations, so no count is certified
    path = tmp_path / "inconsistent.spec"
    path.write_text(INCONSISTENT)
    rc, out, err = run(capsys, ["hilbert", str(path), "--check", "--porcelain"])
    assert (rc, err) == (2, "")
    assert out.splitlines()[2:] == [
        "dim 0 1 1 fail",
        "dim 1 4 4 fail",
        "dim 2 5 5 fail",
        "dim 3 2 2 fail",
    ]
    rc, out, err = run(capsys, ["hilbert", str(path), "--check"])
    assert rc == 2
    assert "  H^1: basis 4, poincare 4 UNCERTIFIED" in out.splitlines()


def test_readme_lists_the_records_verify_prints(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("### What the records of `verify` prove", 1)[1]
    section = section.split("\n#", 1)[0]
    documented = re.findall(r"^- `([a-z-]+)`:", section, flags=re.M)
    rc, out, err = run(capsys, ["verify", "builtin:purebraid:4", "--porcelain"])
    assert rc == 0
    printed = [
        line.split()[1] for line in out.splitlines() if line.startswith("verify ")
    ]
    assert documented == printed


def test_readme_and_the_parser_name_the_same_options():
    # every option of a subcommand, --help aside, is named in the README;
    # every option the README names is one the parser has, and one of the
    # subcommand where a code line or span starts with a subcommand
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for name, p in sub.choices.items()
    }
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", flags=re.M | re.S)
    code = [line for block in fence.findall(text) for line in block.splitlines()]
    code += re.findall(r"`([^`]+)`", fence.sub("", text))
    named = set(re.findall(r"--[a-z][a-z-]*", text)) - {"--no-build-isolation"}
    parsed = set().union(*options.values())
    assert parsed - named == set()
    assert named - parsed == set()
    for line in code:
        words = line.split("|")[0].split()
        if words[:1] == ["almostdirect"]:
            words = words[1:]
        if words and words[0] in options:
            used = {w for w in words if w.startswith("--")}
            assert used <= options[words[0]], line
