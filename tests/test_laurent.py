from almostdirect.laurent import LaurentPoly, monomial, t
from oracles import augment


def test_ring_axioms():
    a = t(1, 1) + LaurentPoly.constant(2)
    b = t(2, 1, -1) - t(1, 1)
    c = t(2, 2, 3)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly.constant(1) == a


def test_inverse_variables_cancel():
    assert t(1, 1) * t(1, 1, -1) == LaurentPoly.constant(1)
    assert t(1, 1, 2) * t(1, 1, -2) == LaurentPoly.constant(1)


def test_subtraction_and_zero():
    a = t(1, 1) - t(1, 1)
    assert a.is_zero()
    assert a == LaurentPoly()
    assert not (t(1, 1) + LaurentPoly.constant(1)).is_zero()


def test_augmentation():
    # augmentation sets every variable to 1
    assert augment(t(1, 1)) == 1
    assert augment(t(1, 1) - LaurentPoly.constant(1)) == 0
    assert augment(t(1, 1, -3) * t(2, 1) + LaurentPoly.constant(4)) == 5


def test_monomial_key():
    m = monomial({(2, 1): -1, (1, 1): 2})
    assert m == (((1, 1), 2), ((2, 1), -1))
    # zero exponents are dropped
    assert monomial({(1, 1): 0}) == ()


def test_str_is_sorted_and_stable():
    p = t(2, 1) - t(1, 1) + LaurentPoly.constant(1)
    assert str(p) == "1 - t(1,1) + t(2,1)"
    assert str(LaurentPoly()) == "0"
    assert str(t(1, 1, -2)) == "t(1,1)^-2"


def test_hash_consistent_with_eq():
    a = t(1, 1) * t(2, 1)
    b = t(2, 1) * t(1, 1)
    assert a == b
    assert hash(a) == hash(b)
