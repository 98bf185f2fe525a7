"""Inputs and the verdict oracle of the benchmark.

A workload is a list of jobs made from the seed alone.  A job is what one
user waits for: one or more ``almostdirect`` CLI calls on one spec file, run
back to back.  Every call carries the verdict it must print.  The expected
verdicts come from closed forms about the families (the Poincare polynomial
``prod(1 + n_i t)`` and the topological complexity of the builtin families)
that this module computes itself, never from the package under test.

Random specs use the construction of ``almostdirect.adp.random_spec`` (one
random IA automorphism per block, every acting generator acting by a power
of it), written out here so that the inputs do not change when the package
does.  Their shape (ranks, automorphism factors up to sign, powers) is fixed
and the seed draws the sign of every factor: the shape sets most of a job's
cost, so the cost of a job list changes little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from almostdirect.adp import MAGNUS, AdpSpec
from almostdirect.cli import format_spec
from almostdirect.words import IAWord, beta, theta, x

# two rank-1 blocks acting on a rank-2 block by non-commuting conjugations:
# every action line is IA on its own, but no iterated product exists, so
# verify must fail its Groebner check (the fixture of tests/test_cli.py)
INCONSISTENT = """\
ranks = 1 1 2
mode = images
action 3 1 1 : 1 -> x(3,2)^-1 x(3,1) x(3,2)
action 3 2 1 : 2 -> x(3,1)^-1 x(3,2) x(3,1)
"""

# hilbert --check enumerates every normal monomial, prod(1 + n_i) of them;
# above this many (purebraid 10 has 3.6 million) one call takes longer than
# the rest of its session together
HILBERT_MAX_BASIS = 400_000

# verify_longwords keeps a spec only if its longest relator has this many
# letters; at 80-100 letters the Fox gradients of the `last` pairing rebuild
# are most of the time and one verify takes about a quarter of a second
LONGWORD_BAND = (80, 100)
# two thirds of the specs have ranks (2, 2), the slowest profile, so that
# the median and the tail job both fall inside one profile rather than on
# the edge between two
LONGWORD_PROFILES = ((2, 2), (2, 2), (1, 2), (2, 2), (2, 2), (1, 3), (2, 2), (2, 2), (2, 3))
LONGWORD_SPECS = 27

CERTIFY_RANDOM = 50
INVARIANTS_RANDOM = 26

FAMILY_RANKS = {
    "purebraid": lambda l: tuple(range(1, l)),
    "uppermccool": lambda n: tuple(range(1, n)),
    "purebraidbar": lambda l: tuple(range(2, l)),
    "uppermccoolbar": lambda n: tuple(range(2, n)),
}


@dataclass
class Call:
    """One CLI call: ``almostdirect <command> <spec file> <flags>``.

    ``expect`` maps a porcelain record key to the value it must carry; see
    :func:`check`.  Records not named there are not read.
    """

    command: str
    flags: tuple = ()
    rc: int = 0
    expect: dict = field(default_factory=dict)

    def argv(self, spec_path):
        return [self.command, str(spec_path), *self.flags]


@dataclass
class Job:
    name: str
    spec_text: str
    calls: list
    spec: AdpSpec | None = None  # what spec_text must parse back to


def poincare(ranks):
    """Coefficients of ``prod(1 + n_i t)``."""
    coeffs = [1]
    for n in ranks:
        coeffs = [a + n * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def records(out):
    """Porcelain records as ``{key: value}``.

    The key is the first token, or the first two for ``verify`` and ``dim``
    records; the value is the token after the key.
    """
    found = {}
    for line in out.splitlines():
        tokens = line.split()
        width = 2 if tokens and tokens[0] in ("verify", "dim") else 1
        if len(tokens) > width:
            found[" ".join(tokens[:width])] = tokens[width]
    return found


def check(call, rc, out):
    """The first way the output misses its verdict, or None if it does not."""
    if rc != call.rc:
        return "%s: exit code %d, expected %d" % (call.command, rc, call.rc)
    got = records(out)
    for key, want in call.expect.items():
        if got.get(key) != str(want):
            return "%s: %s is %s, expected %s" % (
                call.command,
                key,
                got.get(key, "missing"),
                want,
            )
    return None


def verify_call(ok=True):
    expect = {"verify-summary": "ok" if ok else "fail"}
    if not ok:
        expect["verify groebner"] = "fail"
    return Call("verify", ("--porcelain",), 0 if ok else 2, expect)


def session_calls(ranks, torus, tc_expect):
    """A user session over one spec: every invariant the CLI prints."""
    torus_flags = ("--torus", str(torus)) if torus else ()
    calls = [
        Call("present", ("--porcelain",)),
        Call("cohomology", ("--porcelain",)),
        Call("lcs", ("--porcelain",), expect={"lcs-identity": "ok"}),
        Call("zcl", ("--porcelain",) + torus_flags),
        Call("tc", ("--porcelain",) + torus_flags, expect=tc_expect),
    ]
    basis_size = 1
    for n in ranks:
        basis_size *= 1 + n
    if basis_size <= HILBERT_MAX_BASIS:
        dims = {"dim %d" % k: d for k, d in enumerate(poincare(ranks))}
        calls.append(Call("hilbert", ("--check", "--porcelain"), expect=dims))
    return calls


def builtin_job(kind, family, *args, calls):
    label = " ".join(str(a) for a in (family,) + args)
    return Job("%s %s" % (kind, label), "builtin %s\n" % label, calls)


def ia_factor(rng, n, sign_rng=None):
    """A random basic IA automorphism of rank ``n``, a commutator
    transvection ``theta`` half of the time when ``n >= 3``; ``sign_rng``,
    if given, decides whether it is inverted."""
    if n >= 3 and rng.random() < 0.5:
        a, b, c = rng.sample(range(1, n + 1), 3)
        gen = theta(a, b, c)
    else:
        a, b = rng.sample(range(1, n + 1), 2)
        gen = beta(a, b)
    return (gen, (sign_rng or rng).choice((1, -1)))


def random_products(rng, name, count, blocks, rank_range, max_factors=4):
    """Genuine almost-direct products, ``count`` of them.

    One random IA automorphism ``sigma`` of each block, of at most
    ``max_factors // 2`` factors, and every acting generator acting on the
    block by a power of ``sigma`` of word length at most ``max_factors``;
    block counts cycle through ``1 .. blocks``.  The shape of each spec (its
    ranks, the factors of each ``sigma`` up to sign, the powers) comes from
    a generator seeded by ``name`` alone, so it is the same for every seed;
    ``rng`` draws the sign of every factor.
    """
    shape = random.Random(name)
    specs = []
    for k in range(count):
        ranks = tuple(shape.randint(*rank_range) for _ in range(1 + k % blocks))
        actions = {}
        for j in range(2, len(ranks) + 1):
            n = ranks[j - 1]
            if n < 2:
                continue
            base_len = shape.randint(1, max(1, max_factors // 2))
            sigma = tuple(ia_factor(shape, n, rng) for _ in range(base_len))
            sigma_inv = tuple((g, -e) for g, e in reversed(sigma))
            max_power = max_factors // base_len
            for i in range(1, j):
                for p in range(1, ranks[i - 1] + 1):
                    c = shape.randint(-max_power, max_power)
                    if c:
                        factors = (sigma if c > 0 else sigma_inv) * abs(c)
                        actions[(i, j, p)] = (MAGNUS, IAWord(n, factors))
        specs.append(AdpSpec(ranks, actions, name="random"))
    return specs


def random_job(kind, k, spec, calls):
    ranks = " ".join(str(n) for n in spec.ranks)
    return Job("%s random %d [%s]" % (kind, k, ranks), format_spec(spec), calls, spec)


def certify_jobs(rng):
    jobs = []
    for family, sizes in (
        ("purebraid", range(3, 7)),
        ("uppermccool", range(3, 7)),
        ("purebraidbar", range(4, 7)),
        ("uppermccoolbar", range(4, 7)),
    ):
        for size in sizes:
            jobs.append(builtin_job("verify", family, size, calls=[verify_call()]))
    for l, k in ((2, 2), (3, 2), (3, 4), (3, 5), (3, 6), (3, 7), (4, 2), (4, 3)):
        jobs.append(
            builtin_job("verify", "partialpurebraid", l, k, calls=[verify_call()])
        )
    for k, spec in enumerate(random_products(rng, "certify", CERTIFY_RANDOM, 5, (1, 3))):
        jobs.append(random_job("verify", k, spec, [verify_call()]))
    jobs.append(Job("verify inconsistent", INCONSISTENT, [verify_call(ok=False)]))
    return jobs


def invariants_jobs(rng):
    jobs = []
    for family, sizes, torus in (
        ("purebraid", range(9, 11), 0),
        ("purebraidbar", range(10, 13), 1),
        ("uppermccoolbar", range(8, 11), 1),
        ("uppermccool", range(8, 11), 0),
    ):
        for size in sizes:
            ranks = FAMILY_RANKS[family](size)
            if torus:
                # the rank-1 circle factors make the bounds meet
                tc_expect = {"tc-exact": 2 * size - 2}
            else:
                tc_expect = {"tc-lower": 2 * size - 2, "tc-upper": 2 * size - 1}
            calls = session_calls(ranks, torus, tc_expect)
            jobs.append(builtin_job("session", family, size, calls=calls))
    specs = random_products(rng, "invariants", INVARIANTS_RANDOM, 4, (2, 3))
    for k, spec in enumerate(specs):
        # every block has rank >= 2, so tc = 2l + 1 exactly
        l = len(spec.ranks)
        calls = session_calls(spec.ranks, 0, {"tc-exact": 2 * l + 1})
        jobs.append(random_job("session", k, spec, calls))
    return jobs


def relator(q, image):
    """The relator of ``x(1,p)`` and ``x(2,q)`` when ``x(1,p)`` sends
    ``x(2,q)`` to ``image``; its length does not depend on ``p``."""
    w = ~x(2, q) * image
    return x(2, q) * x(1, 1) * ~w * ~x(2, q) * ~x(1, 1)


def long_ia_word(rng, n, band):
    """A random IA word whose longest relator has a length inside ``band``.

    Random factors are appended while the longest relator is below the
    band; a factor that would jump past it is drawn again, and after a few
    misses the word starts over.
    """
    lo, hi = band
    while True:
        factors = []
        images = [x(2, q) for q in range(1, n + 1)]
        longest = 0
        misses = 0
        while longest < lo and misses < 8:
            factor = ia_factor(rng, n)
            if factors and factor == (factors[-1][0], -factors[-1][1]):
                continue  # keep the IA word reduced
            step = IAWord(n, [factor])
            new = [step.apply(image) for image in images]
            length = max(
                len(relator(q, image)) for q, image in enumerate(new, start=1)
            )
            if length > hi:
                misses += 1
                continue
            factors.append(factor)
            images = new
            longest = length
        if longest >= lo:
            return IAWord(n, factors)


def longword_jobs(rng):
    jobs = []
    for k in range(LONGWORD_SPECS):
        a, b = LONGWORD_PROFILES[k % len(LONGWORD_PROFILES)]
        # with two blocks there is no triple of blocks whose actions could
        # disagree, so any IA words give a genuine product
        actions = {
            (1, 2, p): (MAGNUS, long_ia_word(rng, b, LONGWORD_BAND))
            for p in range(1, a + 1)
        }
        spec = AdpSpec((a, b), actions, name="longword")
        jobs.append(random_job("verify", k, spec, [verify_call()]))
    return jobs


def make_jobs(workload, seed):
    """The job list of a workload; the same seed gives the same list."""
    makers = {
        "certify": certify_jobs,
        "invariants_large": invariants_jobs,
        "verify_longwords": longword_jobs,
    }
    return makers[workload](random.Random("%s:%d" % (workload, seed)))
