import random
import time
from collections import namedtuple
from itertools import groupby

import pytest

from almostdirect.words import (
    MAX_PAYLOAD,
    IAWord,
    Word,
    _reduce,
    beta,
    commutator,
    commutator_decompose,
    theta,
    x,
)
from oracles import ia_text_per_factor, johnson_per_factor, listed_positions_decompose


def test_free_reduction():
    assert x(1, 1) * x(1, 1, -1) == Word()
    assert not x(1, 1) * x(2, 1) * x(2, 1, -1) * x(1, 1, -1)
    # reduction cascades through newly adjacent inverse pairs
    w = x(1, 1) * x(2, 1) * x(2, 2) * x(2, 2, -1) * x(2, 1, -1)
    assert w == x(1, 1)


def test_group_axioms():
    u = Word.parse("x(1,1) x(2,1)^-1 x(1,1)")
    v = Word.parse("x(2,1) x(1,1)^2")
    w = Word.parse("x(1,1)^-3 x(2,2)")
    assert (u * v) * w == u * (v * w)
    assert u * ~u == Word()
    assert ~u * u == Word()
    assert u ** 0 == Word()
    assert u ** 3 == u * u * u
    assert u ** -2 == ~u * ~u
    with pytest.raises(TypeError):
        u * 3
    with pytest.raises(ValueError, match="letter exponents must be \\+1 or -1: 2"):
        Word([((1, 1), 2)])


def test_parse_str_round_trip():
    for text in (
        "x(1,1)",
        "x(1,1)^2 x(2,1)^-1",
        "x(3,2)^-4 x(1,1) x(3,2)",
        "x(1,1)x(2,1)^-1",
        "1",
    ):
        w = Word.parse(text)
        assert Word.parse(str(w)) == w
    assert Word.parse("x(1,1)x(2,1)^-1") == x(1, 1) * ~x(2, 1)
    # a zero power is the identity
    assert Word.parse("x(1,1)^0 x(1,2)") == x(1, 2)
    assert str(Word()) == "1"
    assert str(x(1, 1) * x(1, 1)) == "x(1,1)^2"


def parse_error(parse, *args):
    with pytest.raises(ValueError) as err:
        parse(*args)
    return str(err.value)


def test_parse_rejects_garbage():
    # the message quotes the payload from the first character that starts
    # no factor
    for text, rest in (
        ("x(1,1) y(1,2)", "y(1,2)"),
        ("x(1)", "x(1)"),
        ("x(1,1)x(1,2)^-", "^-"),
        ("1 x(1,1)", "1 x(1,1)"),
    ):
        assert parse_error(Word.parse, text) == "bad word syntax at %r" % rest
    for text, rest in (
        ("B(1,2) Q", "Q"),
        ("B(1,2)T(1;2,3)^-1Q", "Q"),
        ("B (1,2)", "B (1,2)"),
    ):
        message = parse_error(IAWord.parse, 3, text)
        assert message == "bad IA word syntax at %r" % rest
    message = parse_error(IAWord.parse, 3, "B(1,2)^0")
    assert message == "IA factor exponent must be nonzero"


def test_exponent_sums():
    w = Word.parse("x(1,1)^2 x(2,1)^-1 x(1,1)^-2 x(2,2)")
    sums = w.exponent_sums()
    assert sums == {(2, 1): -1, (2, 2): 1}
    assert Word().exponent_sums() == {}


def test_single_block():
    assert Word.parse("x(2,1) x(2,2)^-1").single_block() == 2
    with pytest.raises(ValueError):
        Word().single_block()
    with pytest.raises(ValueError):
        Word.parse("x(1,1) x(2,1)").single_block()


def test_commutator():
    a = x(1, 1)
    b = x(1, 2)
    assert commutator(a, b) == Word.parse("x(1,1) x(1,2) x(1,1)^-1 x(1,2)^-1")
    assert not commutator(a, a)
    assert ~commutator(a, b) == commutator(b, a)


def reassemble(pairs):
    out = Word()
    for u, v in pairs:
        out = out * commutator(u, v)
    return out


def test_commutator_decompose_round_trip():
    samples = [
        commutator(x(2, 1), x(2, 2)),
        commutator(x(2, 2), x(2, 1)) * commutator(x(2, 1), x(2, 3)),
        commutator(x(2, 1) * x(2, 2), x(2, 3) * x(2, 1, -1)),
        commutator(x(2, 1), x(2, 2)) * commutator(x(2, 1), x(2, 3)),
        Word(),
    ]
    # the package's split and the reference's other split
    for w in samples:
        for decompose in (commutator_decompose, listed_positions_decompose):
            assert reassemble(decompose(w)) == w
    # the two rules split the same word differently
    assert commutator_decompose(samples[3]) != listed_positions_decompose(samples[3])


def test_commutator_decompose_rejects_nonzero_exponent_sums():
    with pytest.raises(ValueError):
        commutator_decompose(x(1, 1))
    with pytest.raises(ValueError):
        commutator_decompose(Word.parse("x(1,1)^2 x(1,2)^-2"))


def test_basic_ia_generators():
    # conjugating generator: y1 -> y2^-1 y1 y2
    b = IAWord(2, ((beta(1, 2), 1),))
    assert b.apply(x(1, 1)) == Word.parse("x(1,2)^-1 x(1,1) x(1,2)")
    assert b.apply(x(1, 2)) == x(1, 2)
    # commutator push: y1 -> y1 [y2, y3]
    th = IAWord(3, ((theta(1, 2, 3), 1),))
    assert th.apply(x(1, 1)) == x(1, 1) * commutator(x(1, 2), x(1, 3))
    assert th.apply(x(1, 3)) == x(1, 3)


def test_ia_generator_validation():
    with pytest.raises(ValueError):
        beta(1, 1)
    with pytest.raises(ValueError):
        theta(1, 1, 2)
    with pytest.raises(ValueError):
        theta(1, 2, 2)


def test_ia_word_inverse():
    w = IAWord.parse(3, "B(1,2) T(3;1,2)^-1 B(2,3)")
    for target in (x(1, 1), x(1, 2), x(1, 3), Word.parse("x(1,1) x(1,3)^-2")):
        assert w.inverse().apply(w.apply(target)) == target
        assert w.apply(w.inverse().apply(target)) == target


def test_ia_word_is_homomorphism():
    w = IAWord.parse(3, "T(1;2,3) B(3,1)")
    u = Word.parse("x(1,1) x(1,2)^-1")
    v = Word.parse("x(1,3) x(1,1)")
    assert w.apply(u * v) == w.apply(u) * w.apply(v)
    assert w.apply(~u) == ~w.apply(u)


def test_ia_word_preserves_exponent_sums():
    w = IAWord.parse(3, "B(1,3) B(2,1)^-1 T(2;3,1)")
    u = Word.parse("x(1,1)^2 x(1,2)^-1 x(1,3)")
    assert w.apply(u).exponent_sums() == u.exponent_sums()


def test_ia_word_parse_round_trip():
    for text in ("B(1,2)", "B(1,2) T(3;1,2)^-1", "B(1,2)T(1;2,3)^-1", "1"):
        w = IAWord.parse(3, text)
        assert IAWord.parse(3, str(w)).factors == w.factors
    w = IAWord.parse(3, "B(1,2)T(1;2,3)^-1")
    assert w.factors == ((beta(1, 2), 1), (theta(1, 2, 3), -1))
    # equal words hash equal, wherever they were built
    twin = IAWord(3, ((beta(1, 2), 1), (theta(1, 2, 3), -1)))
    assert twin == w and hash(twin) == hash(w)


def test_ia_word_rejects_out_of_range():
    with pytest.raises(ValueError):
        IAWord(2, ((beta(1, 3), 1),))
    with pytest.raises(ValueError):
        IAWord(2, ((theta(1, 2, 3), 1),))


def test_ia_word_rejects_a_generator_of_the_wrong_arity():
    for gen in (("beta", 1, 2, 3), ("theta", 1, 2), ("beta", 1, "2")):
        with pytest.raises(ValueError) as info:
            IAWord(3, [(gen, 1)])
        assert repr(gen) in str(info.value)


def test_apply_builds_one_word(count_calls):
    ia = IAWord(3, [(beta(1, 2), 1), (theta(2, 1, 3), -1), (beta(3, 1), 1)])
    w = x(4, 1) * x(4, 2, -1) * x(4, 3) * x(4, 1)
    expected = reference_apply(ia, w)
    tables = count_calls(IAWord, "images")
    built = count_calls(Word, "__init__")
    assert ia.apply(w) == expected
    # one table of images for the block, substituted and reduced once,
    # with no Word validated on the way
    assert len(tables) == 1
    assert built == []


def reference_apply(ia, w):
    """``ia`` applied to ``w`` one factor at a time, left to right.

    Each factor replaces every occurrence of the generator it moves by its
    image, written from the definitions of ``beta`` and ``theta``, and the
    word is reduced after each factor.  Independent of ``IAWord.images``.
    """
    if not w.letters:
        return w
    block = w.single_block()
    if any(index > ia.rank for (_, index), _ in w.letters):
        raise ValueError("word index exceeds block rank %d" % ia.rank)
    for gen, exp in ia.factors:
        y = [None] + [x(block, k) for k in range(1, ia.rank + 1)]
        if gen[0] == "beta":
            _, i, j = gen
            image = ~y[j] * y[i] * y[j] if exp == 1 else y[j] * y[i] * ~y[j]
        else:
            _, i, s, t = gen
            c = commutator(y[s], y[t])
            image = y[i] * (c if exp == 1 else ~c)
        letters = []
        for g, e in w.letters:
            if g != (block, i):
                letters.append((g, e))
            else:
                letters += (image if e == 1 else ~image).letters
        w = Word(letters)
    return w


def random_ia_word(rng, rank, length, cap):
    # ``length`` random basic factors of both signs whose images stay within
    # ``cap`` letters: a factor that would pass the cap is drawn again, and
    # after 20 misses the inverse of the last factor, which returns to the
    # images before it, is taken instead
    factors = []
    images = [x(1, k) for k in range(1, rank + 1)]
    history = [images]
    while len(factors) < length:
        for _ in range(20):
            if rank >= 3 and rng.random() < 0.5:
                gen = theta(*rng.sample(range(1, rank + 1), 3))
            else:
                gen = beta(*rng.sample(range(1, rank + 1), 2))
            factor = (gen, rng.choice((1, -1)))
            step = IAWord(rank, [factor])
            new = [reference_apply(step, w) for w in images]
            if max(map(len, new)) <= cap:
                break
        else:
            gen, exp = factors[-1]
            factor = (gen, -exp)
            new = history[-2]
        factors.append(factor)
        history.append(new)
        images = new
    return IAWord(rank, factors)


def test_images_and_apply_match_reference_apply():
    rng = random.Random(18)
    cases = [
        (rng.randint(2, 5), rng.randint(0, 40), 60) for _ in range(100)
    ]
    # the long-word profile: rank 2, 38 factors, relators near 100 letters
    cases += [(2, 38, 48)] * 20
    for rank, length, cap in cases:
        ia = random_ia_word(rng, rank, length, cap)
        block = rng.randint(1, 6)
        table = ia.images(block)
        assert len(table) == rank
        for k, image in enumerate(table, start=1):
            assert image == reference_apply(ia, x(block, k))
        for _ in range(3):
            w = Word(
                [
                    ((block, rng.randint(1, rank)), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 12))
                ]
            )
            assert ia.apply(w) == reference_apply(ia, w)


def test_apply_rejects_mixed_blocks_and_indices_past_the_rank():
    ia = IAWord.parse(2, "B(1,2)")
    with pytest.raises(ValueError, match="does not lie in a single block"):
        ia.apply(x(1, 1) * x(2, 1))
    with pytest.raises(ValueError, match="exceeds block rank 2"):
        ia.apply(x(4, 1) * x(4, 3))
    assert ia.apply(Word()) == Word()


def test_images_share_the_letters_of_the_block():
    # every image is freely reduced, and one table draws its letters from
    # the 2 * rank letter objects of the block
    rng = random.Random(181)
    for rank in (2, 3, 4, 5):
        for _ in range(20):
            ia = random_ia_word(rng, rank, rng.randint(0, 30), 60)
            table = ia.images(3)
            letters = {id(letter) for w in table for letter in w.letters}
            assert len(letters) <= 2 * rank
            for w in table:
                assert _reduce(w.letters) == w.letters


def test_parse_rejects_generator_index_zero():
    # the same guard as x(): no generator has index 0
    for text in ("x(0,1)", "x(1,0)^2", "x(2,1) x(0,3)^-1"):
        with pytest.raises(ValueError, match="generator indices start at 1"):
            Word.parse(text)
    with pytest.raises(ValueError, match="generator indices start at 1"):
        x(0, 1)


def is_freely_reduced(letters):
    return all(
        a[0] != b[0] or a[1] != -b[1] for a, b in zip(letters, letters[1:])
    )


def random_reduced_word(rng, gens):
    letters = []
    for _ in range(rng.randint(0, 12)):
        letter = (rng.choice(gens), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    assert is_freely_reduced(letters)
    return Word(letters)


def test_seam_products_equal_full_reduction():
    rng = random.Random(14)
    for rank in (2, 3):
        gens = [(1, k) for k in range(1, rank + 1)]
        for _ in range(400):
            u = random_reduced_word(rng, gens)
            v = random_reduced_word(rng, gens)
            for left, right in ((u, v), (u, ~u), (u, ~(v * u)), (v * u, ~u)):
                product = (left * right).letters
                assert product == Word(left.letters + right.letters).letters
            assert (u * ~u).letters == ()
            assert u * ~(v * u) == ~v
            inverse = (~u).letters
            assert is_freely_reduced(inverse)
            assert Word(inverse).letters == inverse
    for block, index in ((1, 1), (3, 2)):
        for k in range(-3, 4):
            letters = x(block, index, k).letters
            e = 1 if k > 0 else -1
            assert letters == Word([((block, index), e)] * abs(k)).letters
            assert is_freely_reduced(letters) and len(letters) == abs(k)


def test_commutator_decompose_matches_listed_positions():
    from test_acceptance import specs_under_test
    from test_homology import GOLDEN_SPECS

    from almostdirect.adp import build_presentation
    from almostdirect.cli import parse_spec

    specs = specs_under_test() + [
        parse_spec((GOLDEN_SPECS / name).read_text())
        for name in ("longword-1-3.spec", "longword-2-2.spec")
    ]
    # the empty word of an unmoved relation, then every stored word
    words = [Word()]
    for spec in specs:
        words += build_presentation(spec).values()
    for word in words:
        pairs = commutator_decompose(word)
        expected = listed_positions_decompose(word, "first")
        assert [(u.letters, v.letters) for u, v in pairs] == [
            (u.letters, v.letters) for u, v in expected
        ]
    assert len(words) > 400


WORD_ERRORS = (
    ("x(2,0) y(2,1)", "generator indices start at 1"),
    ("y(2,1) x(2,0)", "bad word syntax at 'y(2,1) x(2,0)'"),
    ("x(2,1) x(2,1)x(0,1) y", "generator indices start at 1"),
    ("x(2,1) x(1,1)y x(0,1)", "bad word syntax at 'y x(0,1)'"),
)
IA_WORD_ERRORS = (
    ("B(1,2)^0 Q", "IA factor exponent must be nonzero"),
    ("Q B(1,2)^0", "bad IA word syntax at 'Q B(1,2)^0'"),
    ("B(1,9) Q", "bad IA word syntax at 'Q'"),
    ("B(1,9) B(1,2)^0", "IA factor exponent must be nonzero"),
    ("B(1,2) B(1,1) Q", "beta requires i != j"),
    ("B(1,2)T(1;2,3)Q B(1,2)^0", "bad IA word syntax at 'Q B(1,2)^0'"),
)


def test_the_first_bad_token_of_a_payload_decides_the_error():
    # a syntax error, a bad index or a zero power: whichever comes first in
    # the text; the rank of an IA word is checked after the whole payload
    for text, message in WORD_ERRORS:
        assert parse_error(Word.parse, text) == message
    for text, message in IA_WORD_ERRORS:
        assert parse_error(IAWord.parse, 3, text) == message


def test_a_shared_token_table_reports_the_same_errors():
    # also when earlier parses left some of the tokens in the table
    warm = {}
    Word.parse("x(2,1) x(2,2)^-1 x(1,1)", warm)
    for text, message in WORD_ERRORS:
        assert parse_error(Word.parse, text, dict(warm)) == message
    warm = {}
    IAWord.parse(9, "B(1,2) B(1,9) T(1;2,3)", warm)
    for text, message in IA_WORD_ERRORS:
        assert parse_error(IAWord.parse, 3, text, dict(warm)) == message
    # the table holds no rank: a token read at rank 9 is checked at rank 3
    message = parse_error(IAWord.parse, 3, "B(1,9)", warm)
    assert message == "IA generator ('beta', 1, 9) exceeds block rank 3"


def test_an_exponent_past_an_index_is_a_value_error():
    # it fails before any list is allocated
    huge = "99999999999999999999"
    message = "exponent %s is too large" % huge
    assert parse_error(Word.parse, "x(2,1)^" + huge) == message
    assert parse_error(IAWord.parse, 2, "B(1,2)^" + huge) == message
    negative = "exponent -%s is too large" % huge
    assert parse_error(Word.parse, "x(2,1)^-" + huge) == negative


# payloads past the bound of MAX_PAYLOAD letters or factors: one exponent,
# or all the tokens of the payload together, glued or not
LETTERS = "word has more than 1000000 letters"
FACTORS = "IA word has more than 1000000 factors"
PAST_THE_BOUND = (
    ("x(2,1)^1000000000000000000", "exponent 1000000000000000000 is too large"),
    ("x(2,1)^-1000001", "exponent -1000001 is too large"),
    ("x(2,1)^600000 x(2,1)^600000", LETTERS),
    ("x(2,1)^600000x(2,2)^600000", LETTERS),
    (" ".join(["x(2,1)^1000"] * 1001), LETTERS),
    (2, "B(1,2)^10000000000", "exponent 10000000000 is too large"),
    (2, "B(1,2)^600000 B(1,2)^600000", FACTORS),
    (2, "B(1,2)^600000 B(2,1)^600000", FACTORS),
)


def test_a_payload_past_the_bound_is_a_value_error():
    assert MAX_PAYLOAD == 10**6
    for *args, message in PAST_THE_BOUND:
        parse = IAWord.parse if len(args) == 2 else Word.parse
        start = time.perf_counter()
        assert parse_error(parse, *args) == message, args
        # each fails before it builds the word
        assert time.perf_counter() - start < 0.5, args
    # also when the repeated token is already in the table
    warm = {}
    Word.parse("x(2,1)^1000", warm)
    text = " ".join(["x(2,1)^1000"] * 1001)
    assert parse_error(Word.parse, text, warm) == LETTERS
    assert len(Word.parse(" ".join(["x(2,1)^1000"] * 1000), warm)) == MAX_PAYLOAD
    # the bound itself is allowed
    assert len(IAWord.parse(2, "B(1,2)^-1000000").factors) == MAX_PAYLOAD


Pair = namedtuple("Pair", "gen exp")

# invalid factor lists and the error of each: the exponents are checked
# first, then each generator in the order of its first factor
INVALID_IA_WORDS = (
    (3, [(beta(1, 2), 2)], ValueError, "IA factor exponents must be +1 or -1"),
    (
        3,
        [(beta(1, 2), 0), (("gamma", 1, 2), 1)],
        ValueError,
        "IA factor exponents must be +1 or -1",
    ),
    (
        3,
        [(beta(1, 2), 1), (("gamma", 1, 2), 1)],
        ValueError,
        "unknown IA generator kind 'gamma'",
    ),
    (
        3,
        [(("beta", 1, 2, 3), 1)],
        ValueError,
        "IA generator ('beta', 1, 2, 3) needs 2 int indices",
    ),
    (
        3,
        [(("theta", 1, 2), -1)],
        ValueError,
        "IA generator ('theta', 1, 2) needs 3 int indices",
    ),
    (
        3,
        [(("beta", 1, "2"), 1)],
        ValueError,
        "IA generator ('beta', 1, '2') needs 2 int indices",
    ),
    (3, [(("beta", 1, 1), 1)], ValueError, "IA generator indices must be distinct"),
    (
        3,
        [(("theta", 1, 2, 2), 1)],
        ValueError,
        "IA generator indices must be distinct",
    ),
    (
        2,
        [(beta(1, 2), 1), (beta(1, 3), 1), (("beta", 2, 2), 1)],
        ValueError,
        "IA generator ('beta', 1, 3) exceeds block rank 2",
    ),
    (
        2,
        [(theta(1, 2, 3), -1)],
        ValueError,
        "IA generator ('theta', 1, 2, 3) exceeds block rank 2",
    ),
    (
        2,
        [(beta(0, 1), 1)],
        ValueError,
        "IA generator ('beta', 0, 1) exceeds block rank 2",
    ),
    (3, [(beta(1, 2), 1, 0)], ValueError, "too many values to unpack (expected 2)"),
    (
        3,
        [(beta(1, 2),)],
        ValueError,
        "not enough values to unpack (expected 2, got 1)",
    ),
    (3, [5], TypeError, "cannot unpack non-iterable int object"),
    (3, [(["beta", 1, 2], 1)], TypeError, "unhashable type: 'list'"),
    (3, [(beta(1, 2), [1])], TypeError, "unhashable type: 'list'"),
    (
        3,
        [[beta(1, 2), 1], [beta(1, 4), 1]],
        ValueError,
        "IA generator ('beta', 1, 4) exceeds block rank 3",
    ),
    (3, [[beta(1, 2), 3]], ValueError, "IA factor exponents must be +1 or -1"),
    (
        3,
        [Pair(beta(2, 3), 1), Pair(beta(3, 4), -1)],
        ValueError,
        "IA generator ('beta', 3, 4) exceeds block rank 3",
    ),
)


def test_an_invalid_ia_word_raises_the_error_of_its_first_bad_factor():
    for rank, factors, kind, message in INVALID_IA_WORDS:
        with pytest.raises(kind) as info:
            IAWord(rank, factors)
        assert str(info.value) == message
    # pairs of any type are stored as plain tuples
    ia = IAWord(3, [[beta(1, 2), 1], Pair(beta(2, 3), -1)])
    assert ia.factors == ((beta(1, 2), 1), (beta(2, 3), -1))
    assert {type(factor) for factor in ia.factors} == {tuple}
    assert str(ia) == "B(1,2) B(2,3)^-1"


def random_ia_factors(rng, rank, length):
    # ``length`` factors with repeats and some factor/inverse pairs side by
    # side.  In a third of the words the first half is then undone, in
    # any order, so that every row of tau_1 cancels to nothing; in another
    # third only its factors that move one generator are, which cancels
    # that row alone.
    factors = []
    while len(factors) < length:
        if rank >= 3 and rng.random() < 0.4:
            gen = theta(*rng.sample(range(1, rank + 1), 3))
        else:
            gen = beta(*rng.sample(range(1, rank + 1), 2))
        exp = rng.choice((1, -1))
        factors.append((gen, exp))
        if rng.random() < 0.2:
            factors.append((gen, -exp))
    factors = factors[:length]
    roll = rng.random()
    if length > 1 and roll < 2 / 3:
        head = factors[: length // 2]
        undo = head
        if roll > 1 / 3:
            undo = [factor for factor in head if factor[0][1] == head[0][0][1]]
        factors = head + [(gen, -exp) for gen, exp in undo]
        rng.shuffle(factors)
    return factors


def power_text(ia):
    # each run of equal factors as one power, with no blanks
    parts = []
    for (gen, exp), run in groupby(ia.factors):
        name = ("B(%d,%d)" if gen[0] == "beta" else "T(%d;%d,%d)") % gen[1:]
        parts.append("%s^%d" % (name, exp * len(list(run))))
    return "".join(parts)


def test_johnson_text_and_parse_match_the_per_factor_oracle():
    rng = random.Random(33)
    lengths = [1, 2, 3, 40, 1000, 4000]
    lengths += [rng.randint(1, 400) for _ in range(60)]
    table = {}  # one token table for every parse, as parse_spec shares it
    empty = partial = 0
    for length in lengths:
        rank = rng.randint(2, 5)
        ia = IAWord(rank, random_ia_factors(rng, rank, length))
        block = rng.randint(1, 6)
        tau = ia.johnson(block)
        assert tau == johnson_per_factor(ia, block)
        moved = {gen[1] for gen, _ in ia.factors}
        empty += bool(ia.factors) and not tau
        partial += bool(tau) and len(tau) < len(moved)
        text = str(ia)
        assert text == ia_text_per_factor(ia)
        for form in (text, power_text(ia)):
            assert IAWord.parse(rank, form).factors == ia.factors
            assert IAWord.parse(rank, form, table).factors == ia.factors
    # words whose every row cancels, and words with some rows cancelled
    assert empty >= 5 and partial >= 5

