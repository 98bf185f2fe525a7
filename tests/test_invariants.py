import random
from fractions import Fraction
from functools import lru_cache

import pytest

from almostdirect import invariants
from almostdirect.adp import (
    AdpSpec,
    extend_with_torus,
    partial_pure_braid,
    pure_braid,
    pure_braid_mod_center,
    random_spec,
    upper_mccool,
    upper_mccool_mod_center,
)
from almostdirect.cli import elem_token, parse_spec
from almostdirect.exterior import (
    CohomologyRing,
    ExtElem,
    cohomology_ring,
    e,
)
from almostdirect.invariants import (
    TensorElem,
    lcs_identity_holds,
    lcs_ranks,
    poincare_vector,
    tc_certificate,
    witness_term,
    zcl_witness,
)
from oracles import (
    claim_expansion,
    is_normal,
    tensor,
    torus_shuffle_expansion,
    zero_divisor,
)
from test_acceptance import (
    all_builtins_through_five_blocks,
    ring_of,
    specs_under_test,
)
from test_cli import INCONSISTENT
from test_exterior import perturbed_rings, table_specs


def test_poincare_vector():
    # coefficients of prod (1 + n_i t)
    assert poincare_vector((1, 2)) == (1, 3, 2)
    assert poincare_vector((1, 2, 3)) == (1, 6, 11, 6)
    assert poincare_vector((2,)) == (1, 2)


def test_lcs_ranks_small_cases():
    # free group lower central series ranks via necklace counts
    assert lcs_ranks((2,), 4) == (2, 1, 2, 3)
    assert lcs_ranks((1, 2), 3) == (3, 1, 2)
    # a direct product of lines has vanishing higher terms
    assert lcs_ranks((1, 1, 1), 4) == (3, 0, 0, 0)


def test_lcs_identity():
    for ranks in ((1, 2), (1, 2, 3), (2, 3), (1, 1, 2), (3,)):
        assert lcs_identity_holds(ranks, 12)


def test_lcs_needs_at_least_one_degree():
    for max_k in (0, -2):
        with pytest.raises(ValueError, match="max_k must be at least 1"):
            lcs_ranks((1, 2), max_k)
        with pytest.raises(ValueError, match="max_k must be at least 1"):
            lcs_identity_holds((1, 2), max_k)


def test_tensor_sign_rule():
    ring = cohomology_ring(AdpSpec((2,)))
    u, v = e(1, 1), e(1, 2)
    left = tensor(ring, ExtElem.one(), u) * tensor(ring, v, ExtElem.one())
    # (1 (x) u)(v (x) 1) = (-1)^{|u||v|} v (x) u
    assert left == -tensor(ring, v, u)
    right = tensor(ring, v, ExtElem.one()) * tensor(ring, ExtElem.one(), u)
    assert right == tensor(ring, v, u)


def test_tensor_factors_reduce_in_the_quotient():
    ring = cohomology_ring(pure_braid(3))
    el = tensor(ring, e(2, 1) * e(2, 2), ExtElem.one())
    expect = tensor(ring, ring.normal_form(e(2, 1) * e(2, 2)), ExtElem.one())
    assert el == expect


def test_zero_divisors_square_to_zero():
    ring = cohomology_ring(pure_braid(4))
    for u in (e(1, 1), e(2, 2), e(3, 1)):
        zd = zero_divisor(ring, u)
        assert (zd * zd).is_zero()
        assert not zd.is_zero()


def test_rank_two_witness_oracle():
    # for one free block of rank 2 the witness is the classical commutator
    # class: (1 (x) x - x (x) 1)(1 (x) y - y (x) 1) = y (x) x - x (x) y
    ring = cohomology_ring(AdpSpec((2,)))
    wit = zcl_witness(ring)
    x1, y1 = e(1, 1), e(1, 2)
    assert wit.num_factors == 2
    assert wit.element == tensor(ring, y1, x1) - tensor(ring, x1, y1)


def test_witness_length_doubles_the_block_count():
    for spec in (pure_braid_mod_center(4), upper_mccool_mod_center(4)):
        ring = cohomology_ring(spec)
        wit = zcl_witness(ring)
        assert wit.num_factors == 2 * len(spec.ranks)
        assert not wit.element.is_zero()


def test_rank_one_blocks_contribute_single_factors():
    # a rank-1 block has only one zero divisor to offer
    ring = cohomology_ring(pure_braid(3))
    wit = zcl_witness(ring)
    assert wit.num_factors == 3
    assert not wit.element.is_zero()


def suffix_product_witness(ring):
    """``zcl_witness`` as the product of :func:`zero_divisor` factors."""
    factors = [
        zero_divisor(ring, e(j, p))
        for j, n in enumerate(ring.ranks, start=1)
        for p in range(1, min(n, 2) + 1)
    ]
    length, element = 0, TensorElem.one(ring)
    cur = TensorElem.one(ring)
    for r, f in enumerate(reversed(factors), start=1):
        cur = f * cur
        if cur:
            length, element = r, cur
    return length, len(factors), element


def test_zcl_witness_matches_the_zero_divisor_product():
    for spec in table_specs():
        ring = ring_of(spec)
        wit = zcl_witness(ring)
        # the oracle's longest nonzero product has every factor
        assert (wit.num_factors, wit.num_factors, wit.element) == (
            suffix_product_witness(ring)
        )


def block_order_witness(ring):
    """``zcl_witness`` as :func:`zero_divisor` factors multiplied in block
    order, each on the right of the running product."""
    factors = [
        zero_divisor(ring, e(j, p))
        for j, n in enumerate(ring.ranks, start=1)
        for p in range(1, min(n, 2) + 1)
    ]
    length, element = 0, TensorElem.one(ring)
    cur = TensorElem.one(ring)
    for r, f in enumerate(factors, start=1):
        cur = cur * f
        if not cur:
            break
        length, element = r, cur
    return length, len(factors), element


def test_zcl_witness_is_the_block_order_product():
    # table_specs ends with the inconsistent table, and most perturbed rings
    # are not a Groebner basis either: the degree bound holds on them too
    rings = [ring_of(spec) for spec in table_specs()] + perturbed_rings()
    for ring in rings:
        wit = zcl_witness(ring)
        assert (wit.num_factors, wit.num_factors, wit.element) == (
            block_order_witness(ring)
        )


def truncate(spec, j):
    """The quotient of ``spec`` on its first ``j`` blocks."""
    actions = {
        key: action for key, action in spec.actions.items() if key[1] <= j
    }
    return AdpSpec(spec.ranks[:j], actions)


def prefix_witnesses(ring):
    """Per block ``j``: the longest nonzero prefix among the
    :func:`zero_divisor` factors of blocks ``1..j``, multiplied in block
    order, as ``(length, num_factors, terms)``."""
    length, num_factors = 0, 0
    element = cur = TensorElem.one(ring)
    out = []
    for j, n in enumerate(ring.ranks, start=1):
        for p in range(1, min(n, 2) + 1):
            num_factors += 1
            if cur:
                cur = cur * zero_divisor(ring, e(j, p))
                if cur:
                    length, element = num_factors, cur
        out.append((length, num_factors, element.terms))
    return out


def test_each_block_prefix_is_the_witness_of_its_quotient():
    specs = table_specs()
    specs += [pure_braid(7), upper_mccool(7)]
    specs += [pure_braid_mod_center(8), upper_mccool_mod_center(8)]
    rng = random.Random(5)
    specs += [random_spec(rng, max_blocks=5) for _ in range(200)]
    cases = 0
    for spec in specs:
        ring = ring_of(spec)
        for j, prefix in enumerate(prefix_witnesses(ring), start=1):
            wit = zcl_witness(ring_of(truncate(spec, j)))
            assert (wit.num_factors, wit.num_factors, wit.element.terms) == prefix
            cases += 1
    # one case per block of every spec
    assert cases == 851


def test_zcl_witness_builds_no_tensor_product(count_calls):
    products = count_calls(TensorElem, "__mul__")
    for spec in (pure_braid(5), upper_mccool_mod_center(5)):
        assert not zcl_witness(cohomology_ring(spec)).element.is_zero()
    assert products == []


def test_zcl_witness_reduces_only_block_pairs_within_the_degree_bound(
    count_calls,
):
    specs = [pure_braid(8), upper_mccool(7), parse_spec(INCONSISTENT)]
    specs += [extend_with_torus(pure_braid_mod_center(6), 1)]
    specs += [upper_mccool_mod_center(7), AdpSpec((2, 3, 2))]
    rings = [cohomology_ring(spec) for spec in specs]
    reduced = count_calls(CohomologyRing, "reduce_mono")
    checked = 0
    for ring in rings:
        reduced.clear()
        zcl_witness(ring)
        monos = {args[1] for args in reduced}
        if min(ring.ranks) >= 2:
            # both sides of every prefix term are full: nothing to reduce
            assert monos == set()
        checked += len(monos)
        for mono in monos:
            j = mono[-1][0]
            rest = mono[:-2]
            assert mono[-2:] == ((j, 1), (j, 2))
            assert len(mono) <= j
            assert all(g[0] < j for g in rest) and is_normal(rest)
            expect = ring.normal_form(ExtElem.monomial(rest) * e(j, 1) * e(j, 2))
            assert ExtElem(ring.reduce_mono(mono)) == expect
    # a rank-one block before a larger one leaves short sides to reduce
    assert checked > 0


def test_zcl_witness_keys_share_one_tuple_per_monomial():
    specs = [pure_braid(8), upper_mccool(7), parse_spec(INCONSISTENT)]
    specs += [extend_with_torus(pure_braid_mod_center(6), 1)]
    for spec in specs:
        shared = {}
        for key in zcl_witness(cohomology_ring(spec)).element.terms:
            for mono in key:
                assert shared.setdefault(mono, mono) is mono


def test_claim_matches_direct_product():
    specs = [pure_braid_mod_center(4), upper_mccool_mod_center(4), AdpSpec((2, 3))]
    rng = random.Random(61)
    specs += [random_spec(rng, max_blocks=3, min_rank=2, max_rank=3) for _ in range(8)]
    for spec in specs:
        ring = cohomology_ring(spec)
        assert claim_expansion(ring) == zcl_witness(ring).element


def test_claim_requires_rank_two_blocks():
    with pytest.raises(ValueError):
        claim_expansion(cohomology_ring(pure_braid(3)))


def test_claim_monomials_are_distinct_basis_pairs():
    spec = pure_braid_mod_center(5)
    ring = cohomology_ring(spec)
    terms = claim_expansion(ring).terms
    l = len(spec.ranks)
    assert len(terms) == 2 ** l
    lefts = {left for left, _ in terms}
    rights = {right for _, right in terms}
    assert len(lefts) == 2 ** l
    assert len(rights) == 2 ** l
    for (left, right), coeff in terms.items():
        assert coeff in (1, -1)
        assert is_normal(left)
        assert is_normal(right)


def test_torus_shuffle_expansion():
    # the m-torus witness expands into 2^m signed shuffles
    for m in (1, 2, 3):
        el = torus_shuffle_expansion(m)
        assert len(el.terms) == 2 ** m
        ring = CohomologyRing((1,) * m, {})
        full = None
        for j in range(1, m + 1):
            zd = zero_divisor(ring, e(j, 1))
            full = zd if full is None else full * zd
        assert el == full


def test_tc_certificate_pure_braid_family():
    # the center contributes the circle factor, so the braid group itself
    # is certified through its quotient times a line
    for l in (3, 4, 5, 6):
        cert = tc_certificate(extend_with_torus(pure_braid_mod_center(l), 1))
        assert cert.exact == 2 * l - 2
    # directly on the braid group the upper bound counts the rank-1 block
    # as free and overshoots by one
    cert = tc_certificate(pure_braid(3))
    assert cert.lower_bound == 4
    assert cert.upper_bound == 5
    assert cert.exact is None


def test_tc_certificate_upper_mccool_family():
    # the quotient by the center has n - 2 blocks of ranks 2..n-1
    for n in (4, 5, 6):
        cert = tc_certificate(extend_with_torus(upper_mccool_mod_center(n), 1))
        assert cert.exact == 2 * n - 2


def test_tc_certificate_partial_braid_family():
    for k in (2, 3):
        for l in (1, 2, 3):
            cert = tc_certificate(partial_pure_braid(l, k))
            assert cert.exact == 2 * l + 1


def test_tc_certificate_counts_torus_blocks():
    base = pure_braid_mod_center(3)
    for m in (0, 1, 2, 3):
        cert = tc_certificate(extend_with_torus(base, m))
        assert cert.exact == 2 + m + 1
        assert cert.torus_blocks == m
        assert cert.free_blocks == 1


def test_tc_certificate_free_group():
    # a single rank-2 block is a wedge of circles
    cert = tc_certificate(AdpSpec((2,)))
    assert cert.exact == 3
    # one circle alone
    cert = tc_certificate(AdpSpec((1,)))
    assert cert.exact == 2


@lru_cache(maxsize=None)
def witness_corpus():
    """``(specs, rings, witnesses)`` for the coefficient checks.

    The specs are the specs under test, 300 random specs, the inconsistent
    table and the builtins times ``Z``; the rings are theirs, in the same
    order, followed by the perturbed rings, whose relations are not a
    Groebner basis.  ``witnesses`` holds ``zcl_witness`` of each ring.
    """
    rng = random.Random(11)
    specs = specs_under_test() + [random_spec(rng) for _ in range(300)]
    specs.append(parse_spec(INCONSISTENT))
    specs += [extend_with_torus(s, 1) for s in all_builtins_through_five_blocks()]
    rings = [ring_of(spec) for spec in specs] + perturbed_rings()
    return specs, rings, [zcl_witness(ring) for ring in rings]


def test_witness_term_is_a_coefficient_of_the_zcl_witness():
    specs, rings, witnesses = witness_corpus()
    for ring, wit in zip(rings, witnesses):
        key, sign = witness_term(ring.ranks)
        # a coefficient +-1 makes the product, and so each prefix, nonzero
        assert wit.element.terms[key] == sign
        # each factor adds one generator to every term: two factors per
        # block of rank at least 2, one per rank-1 block
        factors = sum(2 if n >= 2 else 1 for n in ring.ranks)
        assert all(len(a) + len(b) == factors for a, b in wit.element.terms)
    # tc's lower bound is one more than the length of the product
    for spec in specs:
        factors = sum(2 if n >= 2 else 1 for n in spec.ranks)
        assert tc_certificate(spec).witness_degree == factors
    uncertified = sum(ring.critical_pair_verify() is not None for ring in rings)
    assert len(rings) == len(specs) + 900
    assert 0 < uncertified < len(rings)


def test_tc_certificate_builds_no_product(count_calls):
    reduced = count_calls(CohomologyRing, "reduce_mono")
    witnessed = count_calls(invariants, "zcl_witness")
    cert = tc_certificate(pure_braid(6))
    assert (cert.lower_bound, cert.upper_bound) == (10, 11)
    cert = tc_certificate(extend_with_torus(pure_braid_mod_center(5), 1))
    assert cert.exact == 8
    assert reduced == []
    assert witnessed == []


def term_by_term_token(elem):
    """The reference for :func:`~almostdirect.cli.elem_token`: one
    ``_key_str`` and one formatted string for every term."""
    if elem.is_zero():
        return "0"
    parts = []
    for key in sorted(elem.terms, key=elem._order):
        c = elem.terms[key]
        body = elem._key_str(key) or "1"
        parts.append("%s%s*%s" % ("+" if c > 0 else "", c, body))
    return "".join(parts)


def test_elem_token_is_the_term_by_term_formula():
    _, rings, witnesses = witness_corpus()
    elems = [wit.element for wit in witnesses]
    for spec in all_builtins_through_five_blocks():
        ring = ring_of(spec)
        elems += [ring.eta(j, p, q) for (j, p), (_, q) in ring.etas]
    elems += [ExtElem(), TensorElem(rings[0])]
    elems.append(ExtElem({(): Fraction(1, 2), ((1, 1),): -3}))
    # equal left monomials whose right ones differ in length, where the
    # order of the pairs is not deg-lex on the right
    a, b, c = ((1, 1),), ((2, 1),), ((1, 1), (2, 1))
    elems.append(TensorElem(rings[0], {(a, b): 1, (a, c): -2, (b, a): 3, (a, ()): 4}))
    elems.append(TensorElem(rings[0], {(c, b): 1, (c, a): 1, (b, c): -1, (b, b): 2}))
    # the unit monomial on either side, and a Fraction coefficient
    unit = TensorElem.UNIT
    mixed = {unit: Fraction(1, 2), ((), a): -3, (a, ()): Fraction(-2, 3)}
    elems.append(TensorElem(rings[0], mixed))
    for elem in elems:
        assert elem_token(elem) == term_by_term_token(elem)
