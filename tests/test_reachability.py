"""Every function of the package runs on its real traffic, or says why not.

The traffic is what the package is for: every call of
``tests/test_golden.py`` on every golden spec, the seven subcommands on
``builtin:purebraid:4`` in both output forms and ``cohomology --basis``,
the four demos, the job lists of the benchmark (``make_jobs`` of
``perfbench/workloads.py`` for each workload, seed 1), and one call of each
function the benchmark's tracer wraps (``TARGETS`` of
``perfbench/tracing.py``) on ``purebraid 4``, its verdict read.  Those
calls are :func:`target_calls`, whose keys must be the tracer's targets: a
change to the benchmark that drops a target drops its call here too, and
what only that call reached then fails the guard until it moves to
``tests/oracles.py``.

The traffic runs in a new process under ``sys.setprofile``, which records
every function called.  Each ``def`` under
``src/almostdirect`` that the traffic never calls must be named in
:data:`ALLOWED` with one of four reasons: an error path, a protocol method,
word API that a docstring example uses, or a planned use with its ROADMAP
item.  The list can only shrink: an entry that the traffic reaches, or that
names no function, fails as well.  A change that grows it says why in
CHANGES.md.  Run as a script, it lists every unreached function with its
place, its length and its reason, then the totals::

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import contextlib
import functools
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import almostdirect
from almostdirect.adp import build_presentation, pure_braid
from almostdirect.cli import format_spec, main, parse_spec
from almostdirect.exterior import CohomologyRing, cohomology_ring
from almostdirect.fox import abel_gradient
from almostdirect.homology import h2_matrix, kernel_basis, verify_chain_map
from almostdirect.invariants import (
    lcs_identity_holds,
    lcs_ranks,
    tc_certificate,
    zcl_witness,
)
from almostdirect.linalg import span_rank
from almostdirect.words import Word, commutator_decompose

from test_benchmark_targets import load
from test_golden import cases, render

SRC = Path(almostdirect.__file__).resolve().parent
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

SUBCOMMANDS = ("present", "cohomology", "hilbert", "lcs", "zcl", "tc", "verify")

ERROR = "error path"
PROTOCOL = "protocol method"
DOCSTRING = "word API used by a docstring example"
PLANNED = "planned use, ROADMAP"

# every function the traffic never calls, by module and nested name
ALLOWED = {
    "adp.ActionError.__init__": ERROR,
    "cli.SpecFileError.__init__": ERROR,
    "cli.SpecFileError.__str__": ERROR,
    "cli._fail": ERROR,
    "cli._Parser.error": ERROR,
    "homology.RowStructureError.__init__": ERROR,
    "words._scan": ERROR,
    "words._too_long": ERROR,
    # a class keeps the hash of the equality it defines, and a printed form
    "adp.AdpSpec.__hash__": PROTOCOL,
    "adp.AdpSpec.__repr__": PROTOCOL,
    "exterior.CohomologyRing.__eq__": PROTOCOL,
    "exterior.CohomologyRing.__hash__": PROTOCOL,
    "sparse.Sparse.__hash__": PROTOCOL,
    "words.IAWord.__hash__": PROTOCOL,
    # how the keys of a Sparse algebra multiply and print
    "fox.GroupRingElem._key_mul": PROTOCOL,
    "fox.GroupRingElem._term_str": PROTOCOL,
    "laurent.LaurentPoly._key_str": PROTOCOL,
    "words.Word.__pow__": DOCSTRING,
    "words.commutator": DOCSTRING,
    "fox.fox_derivative": PLANNED + " items 12 and 20",
}


def quiet(argv):
    """``main(argv)`` with its output dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def target_calls():
    """One call of each function the tracer wraps, keyed as in ``TARGETS``,
    each returning its verdict on ``purebraid 4``."""
    spec = pure_braid(4)
    ring = cohomology_ring(spec)
    words = build_presentation(spec)
    key, word = next(iter(words.items()))
    text = format_spec(spec)
    matrix = h2_matrix(spec.ranks, spec.images)

    def reassembled():
        product = Word()
        for u, v in commutator_decompose(word):
            product = product * u * v * ~u * ~v
        return product == word

    return {
        "cli.main": lambda: quiet(["verify", "builtin:purebraid:4"]) == 0,
        "cli.parse_spec": lambda: parse_spec(text) == spec,
        "cli.format_spec": lambda: format_spec(parse_spec(text)) == text,
        "adp.build_presentation": lambda: words.keys() == spec.images.keys(),
        "words.commutator_decompose": reassembled,
        "fox.abel_gradient": lambda: {g[0] for g in abel_gradient(word)}
        == {key[1]},
        "homology.verify_chain_map": lambda: verify_chain_map(
            spec.ranks, words
        ).ok,
        "homology.h2_matrix": lambda: matrix.rows.keys() == spec.images.keys(),
        "homology.kernel_basis": lambda: kernel_basis(matrix) == ring.etas,
        "homology.H2Matrix.has_full_row_rank": matrix.has_full_row_rank,
        "linalg.span_rank": lambda: span_rank(list(matrix.rows.values()))
        == len(matrix.rows),
        "exterior.CohomologyRing.__init__": lambda: CohomologyRing(
            spec.ranks, ring.etas
        ).etas
        == ring.etas,
        "exterior.CohomologyRing.groebner_verify": lambda: ring.groebner_verify().ok,
        "exterior.CohomologyRing.normal_form": lambda: ring.normal_form(
            ring.eta(3, 1, 2)
        ).is_zero(),
        "exterior.CohomologyRing.dimension": lambda: [
            ring.dimension(k) for k in range(5)
        ]
        == [1, 6, 11, 6, 0],
        "invariants.zcl_witness": lambda: zcl_witness(ring).num_factors == 5,
        "invariants.lcs_ranks": lambda: lcs_ranks(spec.ranks, 3) == (6, 4, 10),
        "invariants.lcs_identity_holds": lambda: lcs_identity_holds(spec.ranks, 10),
        "invariants.tc_certificate": lambda: tc_certificate(spec).lower_bound == 6,
    }


def traffic():
    """Run the traffic; returns the verdicts of :func:`target_calls`."""
    for _, spec_arg in cases():
        render(spec_arg)
    for command in SUBCOMMANDS:
        for form in ((), ("--porcelain",)):
            assert quiet([command, "builtin:purebraid:4", *form]) in (0, 2)
    for form in ((), ("--porcelain",)):
        assert quiet(["cohomology", "builtin:purebraid:4", "--basis", *form]) == 0
    for demo in DEMOS:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    workloads = load("workloads")
    for workload in ("certify", "invariants_large", "verify_longwords"):
        assert workloads.make_jobs(workload, 1)
    return {name: call() for name, call in target_calls().items()}


def definitions():
    """Every ``def`` of the package: ``{name: (path, first line, lines)}``.

    ``name`` is the module and the nested names, ``words.Word.__pow__``;
    the first line is that of the first decorator, as a code object counts
    it, and the lines include the docstring.
    """
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        todo = [(tree, path.stem)]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    name = "%s.%s" % (prefix, child.name)
                    if isinstance(child, ast.FunctionDef):
                        first = min(
                            [child.lineno] + [d.lineno for d in child.decorator_list]
                        )
                        out[name] = (path, first, child.end_lineno - first + 1)
                    todo.append((child, name))
                else:
                    todo.append((child, prefix))
    return out


def record():
    """Run the traffic under ``sys.setprofile`` in this process: the names
    of :func:`definitions` it reached, and the target verdicts."""
    seen = set()
    add = seen.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(profile)
    try:
        verdicts = traffic()
    finally:
        sys.setprofile(None)
    places = {
        (Path(code.co_filename).resolve(), code.co_firstlineno) for code in seen
    }
    reached = [
        name
        for name, (path, line, _) in definitions().items()
        if (path, line) in places
    ]
    return reached, verdicts


@functools.cache
def reach():
    """``(definitions, names reached, target verdicts)`` of one traffic run
    in a new process, whose caches (the argument parser, the token tables)
    are as empty as those of a CLI call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, __file__, "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reached, verdicts = json.loads(proc.stdout)
    return definitions(), set(reached), verdicts


def test_every_benchmark_target_has_a_call_and_a_verdict():
    targets = load("tracing").TARGETS
    assert set(target_calls()) == {"%s.%s" % (m, attr) for m, attr, _, _ in targets}
    _, _, verdicts = reach()
    assert [name for name, ok in verdicts.items() if ok is not True] == []


def test_every_unreached_function_is_allowed():
    defs, reached, _ = reach()
    assert sorted(set(defs) - reached - set(ALLOWED)) == []


def test_the_allowlist_names_only_unreached_functions():
    defs, reached, _ = reach()
    assert sorted(set(ALLOWED) - set(defs)) == []
    assert sorted(set(ALLOWED) & reached) == []


def test_every_allowed_function_has_one_of_four_reasons():
    for name, reason in ALLOWED.items():
        planned = reason.startswith(PLANNED + " item")
        planned = planned and any(map(str.isdigit, reason))
        assert reason in (ERROR, PROTOCOL, DOCSTRING) or planned, name


def report(defs, reached):
    """The unreached functions, one line each, then the totals; True when
    the allowlist is exactly them."""
    unreached = sorted(set(defs) - reached, key=lambda n: defs[n][:2])
    root = SRC.parent.parent
    for name in unreached:
        path, line, lines = defs[name]
        where = "%s:%d" % (path.relative_to(root), line)
        reason = ALLOWED.get(name, "NOT ALLOWED")
        print("%-34s %-36s %3d  %s" % (where, name, lines, reason))
    stale = sorted(set(ALLOWED) - set(unreached))
    for name in stale:
        print("%-34s %-36s %3s  %s" % ("-", name, "-", "ALLOWED BUT REACHED OR GONE"))
    print(
        "%d of %d functions unreached, %d of %d lines"
        % (
            len(unreached),
            len(defs),
            sum(defs[n][2] for n in unreached),
            sum(lines for _, _, lines in defs.values()),
        )
    )
    return not stale and set(unreached) <= set(ALLOWED)


if __name__ == "__main__":
    reached, verdicts = record()
    if sys.argv[1:] == ["--json"]:
        print(json.dumps([reached, verdicts]))
    else:
        sys.exit(0 if report(definitions(), set(reached)) else 1)
