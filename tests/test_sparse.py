from fractions import Fraction

import pytest

from almostdirect.adp import pure_braid
from almostdirect.exterior import ExtElem, cohomology_ring, e
from almostdirect.fox import GroupRingElem
from almostdirect.invariants import TensorElem
from almostdirect.laurent import LaurentPoly, t
from almostdirect.sparse import add_scaled
from almostdirect.words import Word, x
from oracles import RingTensorElem, tensor, unit

RING = cohomology_ring(pure_braid(3))
RING4 = cohomology_ring(pure_braid(4))
ONE = unit(ExtElem)


def test_repr_strings():
    assert (
        repr(ExtElem({(): 3, ((1, 1),): Fraction(1, 2), ((2, 1), (2, 2)): -2}))
        == "3 + 1/2 e(1,1) - 2 e(2,1)e(2,2)"
    )
    assert (
        repr(GroupRingElem({Word(): 2, x(1, 1): -1, x(1, 1) * x(1, 2): 3}))
        == "2 (1) - x(1,1) + 3 (x(1,1) x(1,2))"
    )
    assert repr(t(1, 1, 2) * 3 - 1 + t(2, 1, -1)) == "-1 + 3 t(1,1)^2 + t(2,1)^-1"
    assert repr(RingTensorElem.one(RING) * 3) == "3 1(x)1"


# (make from a terms dict, two distinct nonzero elements, a key of each class)
CASES = {
    "laurent": (
        LaurentPoly,
        t(1, 1) - 2,
        3 * t(2, 1, -1) + t(1, 1),
        (((1, 1), 1),),
    ),
    "group-ring": (
        GroupRingElem,
        GroupRingElem({x(1, 1): 1, Word(): -2}),
        GroupRingElem({x(1, 2, -1): 3, x(1, 1): 1}),
        x(1, 1) * x(2, 1),
    ),
    "exterior": (
        ExtElem,
        e(1, 1) - 2 * ONE,
        e(1, 1) * e(2, 1) + Fraction(1, 3) * e(2, 2),
        ((1, 1), (2, 2)),
    ),
    # the package's tensor elements, which carry no ring and no product
    "tensor-terms": (
        TensorElem,
        TensorElem({(((1, 1),), ()): 1, ((), ((2, 1),)): -2}),
        TensorElem({((), ()): 3, (((2, 1),), ((2, 2),)): Fraction(1, 3)}),
        (((1, 1),), ((2, 1),)),
    ),
    "tensor": (
        lambda terms: RingTensorElem(RING, terms),
        tensor(RING, e(1, 1), ONE) - tensor(RING, ONE, e(2, 1)),
        RingTensorElem.one(RING) * 3 + tensor(RING, e(2, 1), e(2, 2)),
        (((1, 1),), ((2, 1),)),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_zero_terms_are_dropped(case):
    make, a, _, key = case
    assert make({key: 0}).terms == {}
    assert make({key: 0, **a.terms}).terms == a.terms
    assert (a * 0).terms == {}


def test_difference_with_itself_is_zero(case):
    make, a, _, _ = case
    d = a - a
    assert d.is_zero() and not d
    assert d == make({}) == 0
    assert str(d) == "0"
    assert (a + (-a)).terms == {}


def test_addition_commutes(case):
    _, a, b, _ = case
    assert a + b == b + a
    assert a + b - b == a
    assert a + 0 == 0 + a == a


def test_scalar_multiplication_from_both_sides(case):
    _, a, b, _ = case
    assert a * 2 == 2 * a == a + a
    assert a * -1 == -a
    half = Fraction(1, 2)
    assert a * half == half * a
    assert (a + b) * half * 2 == a + b
    assert (a * half).terms == {k: c * half for k, c in a.terms.items()}


def test_ints_coerce_to_the_unit(case):
    make, a, _, _ = case
    assert make({type(a).UNIT: 3}) == 3
    assert a - 1 + 1 == a
    assert 1 - a == -(a - 1)


def test_equal_elements_hash_equal(case):
    make, a, b, _ = case
    assert hash(a + b) == hash(b + a)
    assert hash(make(dict(a.terms))) == hash(a)
    assert len({a, make(dict(a.terms)), b}) == 2
    # multiples of 1 equal their coefficient, so they hash like it
    assert hash(make({type(a).UNIT: 3})) == hash(3)
    assert hash(make({type(a).UNIT: Fraction(1, 2)})) == hash(Fraction(1, 2))
    assert len({a - a, 0}) == 1


def test_tensor_elements_of_different_rings_do_not_mix():
    one3, one4 = RingTensorElem.one(RING), RingTensorElem.one(RING4)
    assert one3 != one4
    for op in (
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
    ):
        with pytest.raises(TypeError):
            op(one3, one4)
    # a ring built again from the same spec is the same ring
    assert one3 + RingTensorElem.one(cohomology_ring(pure_braid(3))) == one3 * 2


def test_add_scaled_merges_in_place_and_drops_cancelled_terms():
    out = {"a": 2, "b": 1}
    assert add_scaled(out, {"a": 1, "c": 3}, -2) is out
    assert out == {"b": 1, "c": -6}
    assert add_scaled(out, {"b": -1, "c": 6}) == {}
