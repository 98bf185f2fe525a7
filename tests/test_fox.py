import random

from almostdirect import words
from almostdirect.fox import (
    GroupRingElem,
    abel_gradient,
    abelianize,
    abelianize_word,
    fox_derivative,
    fox_gradient,
)
from almostdirect.laurent import LaurentPoly, t
from almostdirect.words import Word, commutator, x
from oracles import augment, unit


def ring_word(w):
    return GroupRingElem({w: 1})


def test_derivative_of_generators():
    g = (1, 1)
    assert fox_derivative(x(1, 1), g) == unit(GroupRingElem)
    assert fox_derivative(x(1, 2), g) == GroupRingElem()
    # d(y^-1)/dy = -y^-1
    assert fox_derivative(x(1, 1, -1), g) == -ring_word(x(1, 1, -1))


def test_derivative_of_powers():
    g = (1, 1)
    y = x(1, 1)
    # d(y^3)/dy = 1 + y + y^2
    expect = unit(GroupRingElem) + ring_word(y) + ring_word(y * y)
    assert fox_derivative(y ** 3, g) == expect


def test_product_rule_samples():
    u = Word.parse("x(1,1) x(1,2)^-1")
    v = Word.parse("x(1,2) x(1,1)^2 x(1,3)")
    for g in ((1, 1), (1, 2), (1, 3)):
        lhs = fox_derivative(u * v, g)
        rhs = fox_derivative(u, g) + ring_word(u) * fox_derivative(v, g)
        assert lhs == rhs


def test_fundamental_formula_random_words():
    rng = random.Random(7)
    gens = [(1, p) for p in (1, 2, 3)]
    one = unit(GroupRingElem)
    for _ in range(60):
        letters = tuple(
            (rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
        )
        w = Word(letters)
        total = GroupRingElem()
        for g, d in fox_gradient(w).items():
            total = total + d * (ring_word(Word(((g, 1),))) - one)
        assert total == ring_word(w) - one


def test_gradient_keys_are_touched_generators():
    w = Word.parse("x(2,1) x(2,2)^-1 x(2,1)")
    grad = fox_gradient(w)
    assert set(grad) == {(2, 1), (2, 2)}


def test_abelianize_word():
    w = Word.parse("x(1,1)^2 x(2,1)^-1")
    assert abelianize_word(w) == t(1, 1, 2) * t(2, 1, -1)
    assert abelianize_word(Word()) == LaurentPoly.constant(1)
    # commutators die in the abelianization
    assert abelianize_word(commutator(x(1, 1), x(1, 2))) == LaurentPoly.constant(1)


def test_abelianize_ring_elem():
    elem = ring_word(x(1, 1)) - ring_word(x(1, 2))
    assert abelianize(elem) == t(1, 1) - t(1, 2)


def test_abel_gradient_of_commutator():
    # nabla [a, b] abelianizes to (1 - t_b) e_a + (t_a - 1) e_b
    a, b = x(2, 1), x(2, 2)
    grad = abel_gradient(commutator(a, b))
    one = LaurentPoly.constant(1)
    assert grad[(2, 1)] == one - t(2, 2)
    assert grad[(2, 2)] == t(2, 1) - one


def test_abel_gradient_inverse_rule():
    # nabla(z^-1) = -z^-1 nabla(z), abelianized
    z = Word.parse("x(1,1) x(1,2)")
    gz = abel_gradient(z)
    gzi = abel_gradient(~z)
    zi = abelianize_word(~z)
    for g in gz:
        assert gzi[g] == -(zi * gz[g])


def test_group_ring_arithmetic():
    a = ring_word(x(1, 1))
    b = ring_word(x(1, 2))
    assert (a + b) - b == a
    assert a * unit(GroupRingElem) == a
    assert (a - a).is_zero()
    assert augment(a + b) == 2
    # multiplication concatenates and reduces words
    assert a * ring_word(x(1, 1, -1)) == unit(GroupRingElem)


def test_fox_derivative_reads_the_gradient():
    w = Word.parse("x(1,1) x(1,2)^-1 x(1,1)^-2 x(1,3) x(1,2)")
    grad = fox_gradient(w)
    for g in ((1, 1), (1, 2), (1, 3), (1, 4)):
        assert fox_derivative(w, g) == grad.get(g, GroupRingElem())
    # d(w)/d(x(1,2)) = x(1,1) (-x(1,2)^-1) + x(1,1) x(1,2)^-1 x(1,1)^-2 x(1,3)
    expect = -ring_word(Word.parse("x(1,1) x(1,2)^-1")) + ring_word(
        Word.parse("x(1,1) x(1,2)^-1 x(1,1)^-2 x(1,3)")
    )
    assert grad[(1, 2)] == expect


def test_fox_gradient_reduces_no_prefix(count_calls):
    # slices of a reduced word are reduced, so the prefixes skip _reduce
    w = Word.parse("x(1,1) x(1,2)^-1 x(1,1)^-2 x(1,3) x(1,2)^2 x(1,1)")
    calls = count_calls(words, "_reduce")
    grad = fox_gradient(w)
    assert calls == []
    prefixes = [key for d in grad.values() for key in d.terms]
    assert len(prefixes) == 8
    assert all(key == Word(key.letters) for key in prefixes)
