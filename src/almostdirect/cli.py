"""Command line interface and the spec file format.

A spec file describes an almost-direct product of free groups::

    # comments run to end of line
    ranks = 1 2 2
    mode = magnus
    action 2 1 1 = B(1,2) T(1;2,3)^-1    # x(1,1) acting on block 2

The header ``ranks`` lists the block ranks.  ``mode`` is ``magnus``
(default) or ``images``; it fixes the shape of the action lines.  A magnus
action line ``action J I P = <IA word>`` gives the automorphism by which
``x(I,P)`` acts on block ``J``, written in the basic IA generators
``B(a,b)`` and ``T(a;s,t)`` with optional integer exponents.  An images
action line ``action J I P : Q -> <word>`` gives the image of ``x(J,Q)``
instead; omitted generators keep their identity image.  Omitted action
lines mean the trivial action.  A file may instead consist of a single
``builtin NAME ARG...`` line.

Subcommands: ``present``, ``cohomology``, ``hilbert``, ``lcs``, ``zcl``,
``tc`` and ``verify``.  Each takes the spec as a file path or an inline
``builtin:NAME:ARG...`` reference, and ``--porcelain`` switches to a
stable line-based format (first token is the record type; words, monomials
and ring elements are single space-free tokens).  ``zcl`` and ``tc`` take
``--torus M``, which multiplies the spec by ``Z^M`` before the header
record is printed, so the header lists the extended blocks.  Exit codes:
0 on success, 1 on usage, parse or validation errors, 2 when a
verification fails.  When the reader closes standard output early, the
command ends without an error message and with the exit code it would
have had.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from .adp import (
    BUILTINS,
    IMAGES,
    MAGNUS,
    ActionError,
    AdpSpec,
    build_presentation,
    extend_with_torus,
    generators,
    relation_keys,
)
from .exterior import cohomology_ring, mono_token
from .homology import RowStructureError
from .invariants import (
    TensorElem,
    lcs_identity_holds,
    lcs_ranks,
    poincare_vector,
    tc_certificate,
    zcl_witness,
)
from .words import IAWord, Word, commutator_decompose

__all__ = ["SpecFileError", "parse_spec", "format_spec", "load_spec", "main"]


class SpecFileError(ValueError):
    """A syntax or validation error with a source position."""

    def __init__(self, line, col, message):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message

    def __str__(self):
        return "line %d, column %d: %s" % (self.line, self.col, self.message)


def _fail(lineno, col, message):
    raise SpecFileError(lineno, col, message)


_TOKEN_RE = re.compile(r"\S+")

# the head of an action line: the word ``action``, then J, I, P, the
# separator, Q and the arrow, each the next token if the line has one (an
# empty alternative matches faster than an optional group)
_ACTION_RE = re.compile(r"\s*(action)(?!\S)" + r"(?:\s+(\S+)|)" * 6)


def _tokens(line):
    # the blank-separated tokens of a line, each with its column
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def parse_spec(text):
    """Parse the spec file grammar into an :class:`AdpSpec`.

    The payloads of all action lines share one token table, which lives for
    this call: each distinct word or IA factor token is read once, and a
    parsed images table shares its letter tuples, as a builtin one does.
    The table holds no rank; each word is checked against its block.  One
    pattern reads the head of every action line, and the payload is read
    off the line; the ``builtin``, ``ranks`` and ``mode`` lines, and any
    unknown one, are split into tokens.
    """
    ranks = None
    mode = None
    builtin = None
    actions = {}
    first_line = {}
    table = {}  # the token table of the payloads
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        m = _ACTION_RE.match(line)
        if m is not None:
            col = m.start(1) + 1
            if builtin is not None:
                _fail(lineno, col, "builtin line must be the whole spec")
            if ranks is None:
                _fail(lineno, col, "ranks must come before action lines")
            _parse_action(
                lineno, line, m, ranks, mode or MAGNUS, actions, first_line, table
            )
            continue
        tokens = _tokens(line)
        if not tokens:
            continue
        head, col = tokens[0]
        if builtin is not None or (head == "builtin" and (ranks or mode)):
            _fail(lineno, col, "builtin line must be the whole spec")
        if head == "builtin":
            builtin = _parse_builtin(lineno, tokens)
        elif head == "ranks":
            if ranks is not None:
                _fail(lineno, col, "duplicate ranks line")
            ranks = _parse_ranks(lineno, tokens)
        elif head == "mode":
            if mode is not None:
                _fail(lineno, col, "duplicate mode line")
            if actions:
                _fail(lineno, col, "mode must come before action lines")
            mode = _parse_mode(lineno, tokens)
        else:
            _fail(lineno, col, "unknown directive %r" % head)
    if builtin is not None:
        return builtin
    if ranks is None:
        _fail(1, 1, "spec has no ranks line")
    try:
        return AdpSpec(ranks, actions)
    except ActionError as err:
        _fail(*first_line[err.key], str(err))


def _expect_int(lineno, token, col, minimum=None, what="integer"):
    try:
        value = int(token)
    except ValueError:
        _fail(lineno, col, "expected %s, got %r" % (what, token))
    if minimum is not None and value < minimum:
        _fail(lineno, col, "%s must be at least %d" % (what, minimum))
    return value


def _parse_builtin(lineno, tokens):
    if len(tokens) < 2:
        _fail(lineno, tokens[0][1], "builtin needs a name")
    name, col = tokens[1]
    if name not in BUILTINS:
        _fail(
            lineno,
            col,
            "unknown builtin %r (choose from %s)"
            % (name, ", ".join(sorted(BUILTINS))),
        )
    fn, nargs = BUILTINS[name]
    args = tokens[2:]
    if len(args) != nargs:
        _fail(
            lineno,
            tokens[0][1],
            "builtin %s takes %d argument(s), got %d"
            % (name, nargs, len(args)),
        )
    values = [
        _expect_int(lineno, tok, col, what="builtin argument")
        for tok, col in args
    ]
    try:
        return fn(*values)
    except ValueError as err:
        _fail(lineno, tokens[0][1], str(err))


def _parse_ranks(lineno, tokens):
    if len(tokens) < 2 or tokens[1][0] != "=":
        _fail(lineno, tokens[0][1], "expected 'ranks = n1 n2 ...'")
    if len(tokens) < 3:
        _fail(lineno, tokens[1][1], "ranks needs at least one block")
    return tuple(
        _expect_int(lineno, tok, col, minimum=1, what="rank")
        for tok, col in tokens[2:]
    )


def _parse_mode(lineno, tokens):
    if len(tokens) != 3 or tokens[1][0] != "=":
        _fail(lineno, tokens[0][1], "expected 'mode = magnus' or 'mode = images'")
    value, col = tokens[2]
    if value not in (MAGNUS, IMAGES):
        _fail(lineno, col, "mode must be 'magnus' or 'images'")
    return value


def _parse_action(lineno, line, m, ranks, mode, actions, first_line, table):
    # ``m`` is the match of _ACTION_RE; the payload is the rest of the line
    col = m.start(1) + 1
    _, j, i, p, sep, q, arrow = m.groups()
    if sep is None:
        _fail(lineno, col, "action line too short")
    try:
        j, i, p = int(j), int(i), int(p)
    except ValueError:
        j = _expect_int(lineno, j, m.start(2) + 1, what="target block")
        i = _expect_int(lineno, i, m.start(3) + 1, what="acting block")
        p = _expect_int(lineno, p, m.start(4) + 1, what="acting index")
    l = len(ranks)
    if not (1 <= i < j <= l):
        _fail(lineno, m.start(2) + 1, "blocks must satisfy 1 <= I < J <= %d" % l)
    if not (1 <= p <= ranks[i - 1]):
        _fail(
            lineno,
            m.start(4) + 1,
            "acting index %d exceeds rank %d of block %d"
            % (p, ranks[i - 1], i),
        )
    first_line.setdefault((i, j, p), (lineno, col))
    sep_col = m.start(5) + 1
    if sep == "=":
        if mode != MAGNUS:
            _fail(lineno, sep_col, "'=' action line in images mode")
        if (i, j, p) in actions:
            _fail(lineno, col, "duplicate action %d %d %d" % (j, i, p))
        try:
            ia = IAWord.parse(ranks[j - 1], line[sep_col:], table)
        except ValueError as err:
            _fail(lineno, sep_col + 2, str(err))
        actions[(i, j, p)] = (MAGNUS, ia)
    elif sep == ":":
        if mode != IMAGES:
            _fail(lineno, sep_col, "':' action line needs 'mode = images'")
        if arrow != "->":
            _fail(lineno, sep_col, "expected 'action J I P : Q -> word'")
        q_col = m.start(6) + 1
        q = _expect_int(lineno, q, q_col, what="image index")
        if not (1 <= q <= ranks[j - 1]):
            _fail(
                lineno,
                q_col,
                "image index %d exceeds rank %d of block %d"
                % (q, ranks[j - 1], j),
            )
        _, qmap = actions.setdefault((i, j, p), (IMAGES, {}))
        if q in qmap:
            _fail(
                lineno,
                q_col,
                "duplicate image for x(%d,%d) under action %d %d %d"
                % (j, q, j, i, p),
            )
        try:
            qmap[q] = Word.parse(line[m.end(7) :], table)
        except ValueError as err:
            _fail(lineno, m.end(7) + 1, str(err))
    else:
        _fail(lineno, sep_col, "expected '=' or ':' after the action key")


def format_spec(spec):
    """Write a spec in the file grammar; inverse of :func:`parse_spec`.

    All-magnus specs print as magnus files; anything else normalizes to
    images mode, one line per entry of the relation table ``spec.images``.
    Both read the spec in its relation order.
    """
    lines = ["ranks = " + " ".join(str(n) for n in spec.ranks)]
    if not spec.has_uncertified_images:
        lines.append("mode = magnus")
        for (i, j, p), (_, ia) in spec.actions.items():
            lines.append("action %d %d %d = %s" % (j, i, p, ia))
    else:
        lines.append("mode = images")
        for (i, j, p, q), image in spec.images.items():
            lines.append("action %d %d %d : %d -> %s" % (j, i, p, q, image))
    return "\n".join(lines) + "\n"


def load_spec(argument):
    """Load a spec from a path or an inline ``builtin:NAME:ARG`` reference."""
    if argument.startswith("builtin:"):
        tokens = [(part, 0) for part in argument.split(":")]
        try:
            return _parse_builtin(0, tokens)
        except SpecFileError as err:
            # an inline reference has no line or column to point at
            raise ValueError(err.message) from None
    text = Path(argument).read_text(encoding="utf-8-sig")
    return parse_spec(text)


def elem_token(elem):
    """An ExtElem or TensorElem as one token: ``+2*e(1,1)-1*e(2,1)``.

    The token is joined from shared pieces: one string per distinct
    coefficient and, in a TensorElem, per distinct monomial.  Its terms
    sort by the ranks of their two monomials among the distinct ones, the
    order of the pairs themselves.
    """
    if elem.is_zero():
        return "0"
    terms = elem.terms
    coeff = {c: "+%s*" % c if c > 0 else "%s*" % c for c in set(terms.values())}
    pieces = []
    if isinstance(elem, TensorElem):
        monos = sorted({m for pair in terms for m in pair})
        rank = {m: k for k, m in enumerate(monos)}
        text = [mono_token(m) for m in monos]
        order = sorted((rank[a], rank[b], c) for (a, b), c in terms.items())
        for a, b, c in order:
            pieces += (coeff[c], text[a], "(x)", text[b])
    else:
        for key in sorted(terms, key=elem._order):
            pieces += (coeff[terms[key]], mono_token(key))
    return "".join(pieces)


def cmd_present(spec, args, out):
    words = build_presentation(spec)
    keys = relation_keys(spec.ranks)
    if not args.porcelain:
        gens = " ".join("x(%d,%d)" % g for g in generators(spec.ranks))
        out.append("generators: " + gens)
        out.append("relations: %d" % len(keys))
    unmoved = Word()  # w = 1, with no pairs
    for key in keys:
        i, j, p, q = key
        word = words.get(key, unmoved)
        pairs = commutator_decompose(word, args.pairing) if word else ()
        if args.porcelain:
            out.append("relation %d %d %d %d %s" % (i, j, p, q, word.text("")))
            for k, (u, v) in enumerate(pairs, start=1):
                out.append(
                    "pair %d %d %d %d %d %s %s"
                    % (i, j, p, q, k, u.text(""), v.text(""))
                )
        else:
            out.append(
                "  x(%d,%d) x(%d,%d) = x(%d,%d) x(%d,%d) w,  w = %s"
                % (j, q, i, p, i, p, j, q, word)
            )
            if pairs:
                out.append(
                    "    w as commutators: "
                    + "  ".join("[%s, %s]" % (u, v) for u, v in pairs)
                )
    return 0


def cmd_cohomology(spec, args, out):
    ring = cohomology_ring(spec)
    gens = " ".join(mono_token((g,)) for g in ring.gens)
    if args.porcelain:
        out.append("generators " + gens)
    else:
        out += ["generators: " + gens, "relations (ideal generators):"]
    for (j, p), (_, q) in ring.etas:
        eta = ring.eta(j, p, q)
        out.append(
            "eta %d %d %d %s" % (j, p, q, elem_token(eta))
            if args.porcelain
            else "  eta(%d;%d,%d) = %s" % (j, p, q, eta)
        )
    for deg in range(ring.num_blocks + 1) if args.basis else ():
        monos = ring.basis(deg)
        shown = " ".join(mono_token(m) for m in monos) or "-"
        out.append(
            "basis %d %s" % (deg, shown)
            if args.porcelain
            else "H^%d basis (%d): %s" % (deg, len(monos), shown)
        )
    return 0


def cmd_hilbert(spec, args, out):
    betti = poincare_vector(spec.ranks)
    if args.porcelain:
        out.append("poincare " + " ".join(str(b) for b in betti))
    else:
        out.append(
            "poincare polynomial coefficients: "
            + " ".join(str(b) for b in betti)
        )
    if not args.check:
        return 0
    ring = cohomology_ring(spec)
    # the count and the Poincare coefficient come from one recurrence; the
    # normal monomials are a basis only when the relations are a Groebner
    # basis, so the certificate on the products e(j,r) eta(j;p,q) decides
    ok = ring.critical_pair_verify() is None
    for deg, expected in enumerate(betti):
        actual = ring.dimension(deg)
        if args.porcelain:
            out.append(
                "dim %d %d %d %s" % (deg, actual, expected, "ok" if ok else "fail")
            )
        else:
            out.append(
                "  H^%d: basis %d, poincare %d %s"
                % (deg, actual, expected, "ok" if ok else "UNCERTIFIED")
            )
    return 0 if ok else 2


def cmd_lcs(spec, args, out):
    phi = lcs_ranks(spec.ranks, args.max_k)
    ok = lcs_identity_holds(spec.ranks, args.max_k)
    if args.porcelain:
        for k, value in enumerate(phi, start=1):
            out.append("phi %d %d" % (k, value))
        out.append("lcs-identity %s" % ("ok" if ok else "fail"))
    else:
        out.append(
            "lower central series ranks: "
            + " ".join(
                "phi_%d=%d" % (k, v) for k, v in enumerate(phi, start=1)
            )
        )
        out.append(
            "product identity through degree %d: %s"
            % (args.max_k, "ok" if ok else "MISMATCH")
        )
    return 0 if ok else 2


def cmd_zcl(spec, args, out):
    wit = zcl_witness(cohomology_ring(spec))
    if args.porcelain:
        # the product of every factor is nonzero, so it is the longest
        out.append("zcl-length %d" % wit.num_factors)
        out.append("zcl-factors %d" % wit.num_factors)
        out.append("zcl-element %s" % elem_token(wit.element))
    else:
        out.append(
            "longest nonzero zero-divisor product: %d of %d factors"
            % (wit.num_factors, wit.num_factors)
        )
        out.append("witness element: %s" % wit.element)
    return 0


def cmd_tc(spec, args, out):
    cert = tc_certificate(spec)
    if args.porcelain:
        out.append("tc-lower %d" % cert.lower_bound)
        out.append("tc-upper %d" % cert.upper_bound)
        out.append(
            "tc-exact %s" % (cert.exact if cert.exact is not None else "none")
        )
        out.append("tc-witness-degree %d" % cert.witness_degree)
        out.append("tc-free-blocks %d" % cert.free_blocks)
        out.append("tc-torus-blocks %d" % cert.torus_blocks)
    else:
        out.append(
            "lower bound %d = witness product length %d + 1"
            % (cert.lower_bound, cert.witness_degree)
        )
        out.append(
            "upper bound %d = 2*%d blocks + %d torus blocks + 1"
            % (cert.upper_bound, cert.free_blocks, cert.torus_blocks)
        )
        if cert.exact is not None:
            out.append("tc = %d (bounds agree)" % cert.exact)
        else:
            out.append(
                "tc in [%d, %d] (bounds differ)"
                % (cert.lower_bound, cert.upper_bound)
            )
    return 0


def cmd_verify(spec, args, out):
    # h2_matrix, inside cohomology_ring, raises on a row off the structure
    # that gives the matrix full rank and its kernel the etas
    try:
        ring = cohomology_ring(spec)
    except RowStructureError as err:
        detail = "%d %d %d %d %s" % (err.row + (mono_token(err.col),))
        # no ring without the matrix
        results = [("matrix-rank", False, detail), ("groebner", False, "")]
    else:
        witness = ring.critical_pair_verify()
        if witness is not None:
            detail = " ".join(mono_token(m) for m in witness)
        elif args.porcelain:
            detail = ""  # a record that passes prints no detail
        else:
            checked = sum(1 for _ in ring.critical_pairs())
            detail = "%d products e(j,r) eta(j;p,q)" % checked
        results = [("matrix-rank", True, "")]
        results.append(("groebner", witness is None, detail))

    text = format_spec(spec)
    normalized = parse_spec(text)
    round_trip = normalized == spec and format_spec(normalized) == text
    results.append(("round-trip", round_trip, ""))

    if spec.has_uncertified_images and not args.porcelain:
        out.append(
            "note: images checked on the abelianization only;"
            " invertibility is not certified"
        )
    failed = False
    for name, ok, detail in results:
        failed = failed or not ok
        status = "ok" if ok else "fail"
        if args.porcelain:
            # a failing record carries its witness, if the check names one
            witness = " " + detail if detail and not ok else ""
            out.append("verify %s %s%s" % (name, status, witness))
        else:
            extra = " (%s)" % detail if detail else ""
            out.append("  %-22s %s%s" % (name, status, extra))
    if args.porcelain:
        out.append("verify-summary %s" % ("fail" if failed else "ok"))
    else:
        out.append("summary: %s" % ("FAIL" if failed else "all checks passed"))
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="almostdirect",
        description="Presentations, cohomology and topological complexity"
        " of almost-direct products of free groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "spec",
            help="path to a spec file, or builtin:NAME:ARG"
            " (builtins: %s)" % ", ".join(sorted(BUILTINS)),
        )
        p.add_argument(
            "--porcelain",
            action="store_true",
            help="stable machine-readable output",
        )
        # main extends every spec by Z^torus; only zcl and tc take --torus
        p.set_defaults(func=func, torus=0)
        return p

    p = add("present", cmd_present, "print the commutator presentation")
    p.add_argument(
        "--pairing",
        choices=("first", "last"),
        default="first",
        help="commutator decomposition strategy",
    )
    p = add("cohomology", cmd_cohomology, "print the cohomology ring")
    p.add_argument(
        "--basis", action="store_true", help="also list the quotient basis"
    )
    p = add("hilbert", cmd_hilbert, "print the Poincare polynomial")
    p.add_argument(
        "--check",
        action="store_true",
        help="certify the computed ring from its products e(j,r) eta(j;p,q)"
        " and count its normal monomials in each degree",
    )
    p = add("lcs", cmd_lcs, "print lower central series ranks")
    p.add_argument(
        "--max-k", type=int, default=10, help="largest degree to print"
    )
    p = add("zcl", cmd_zcl, "print the zero-divisor cup length witness")
    p.add_argument("--torus", type=int, help="multiply by Z^M first")
    p = add("tc", cmd_tc, "certify topological complexity")
    p.add_argument("--torus", type=int, help="multiply by Z^M first")
    add("verify", cmd_verify, "run all internal consistency checks")
    return parser


def main(argv=None):
    """Run one subcommand and return its exit code.

    The steps every subcommand shares happen here, once: load the spec,
    apply ``--torus``, start ``out`` with the header record, and print
    ``out``.  Each ``cmd_*(spec, args, out)`` appends its own records and
    returns its exit code.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 1
    try:
        spec = extend_with_torus(load_spec(args.spec), args.torus)
        ranks = " ".join(str(n) for n in spec.ranks)
        if args.porcelain:
            out = ["ranks " + ranks]
        else:
            out = ["%s: blocks %s" % (spec.name or "spec", ranks)]
        code = args.func(spec, args, out)
    except (OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    try:
        print("\n".join(out), flush=True)
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so that the
        # flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code
