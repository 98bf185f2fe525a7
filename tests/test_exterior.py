import gc
import math
import random
from itertools import combinations

import pytest

from almostdirect.adp import (
    AdpSpec,
    build_presentation,
    extend_with_torus,
    partial_pure_braid,
    pure_braid,
    pure_braid_mod_center,
    upper_mccool,
    upper_mccool_mod_center,
)
from almostdirect.cli import main, parse_spec
from almostdirect.exterior import (
    CohomologyRing,
    ExtElem,
    cohomology_ring,
    deg_lex_key,
    e,
    mono_mul,
)
from almostdirect.homology import kernel_basis
from almostdirect.invariants import zcl_witness
from almostdirect.linalg import span_rank
from oracles import critical_product, is_normal, leading_term, random_spec, unit, xi
from test_acceptance import pair_matrix, ring_of, specs_under_test
from test_cli import INCONSISTENT


def table_specs():
    """Specs of the table and count tests: every spec under test, 20 seeded
    random specs, two builtins times a circle and the inconsistent table,
    whose relations are not a Groebner basis."""
    rng = random.Random(7)
    specs = specs_under_test() + [random_spec(rng) for _ in range(20)]
    specs += [
        extend_with_torus(pure_braid_mod_center(5), 1),
        extend_with_torus(upper_mccool_mod_center(5), 1),
    ]
    return specs + [parse_spec(INCONSISTENT)]


def test_deg_lex_order():
    # degree dominates, ties break lexicographically on the index tuples
    assert deg_lex_key(()) < deg_lex_key(((1, 1),))
    assert deg_lex_key(((3, 1),)) < deg_lex_key(((1, 1), (1, 2)))
    assert deg_lex_key(((1, 1), (2, 1))) < deg_lex_key(((1, 1), (2, 2)))
    assert deg_lex_key(((1, 1),)) < deg_lex_key(((1, 2),))
    assert deg_lex_key(((1, 1), (1, 2))) > deg_lex_key(((1, 2),))


def test_mono_mul_signs():
    assert mono_mul(((1, 1),), ((2, 1),)) == (1, ((1, 1), (2, 1)))
    # one transposition flips the sign
    assert mono_mul(((2, 1),), ((1, 1),)) == (-1, ((1, 1), (2, 1)))
    assert mono_mul(((1, 1),), ((1, 1),)) is None
    assert mono_mul((), ((1, 1),)) == (1, ((1, 1),))
    # two generators hopping over one other generator each keep the sign
    sign, mono = mono_mul(((2, 1), (2, 2)), ((1, 1), (1, 2)))
    assert sign == 1
    assert mono == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_exterior_element_arithmetic():
    a, b, c = e(1, 1), e(1, 2), e(2, 1)
    assert a * b == -(b * a)
    assert (a * a).is_zero()
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * unit(ExtElem) == a
    assert str(a * c) == "e(1,1)e(2,1)"


def test_leading_term_uses_deg_lex():
    el = e(1, 1) + e(1, 1) * e(2, 1)
    assert leading_term(el) == (((1, 1), (2, 1)), 1)


def test_two_strand_normal_form_oracle():
    ring = cohomology_ring(pure_braid(3))
    nf = ring.normal_form(e(2, 1) * e(2, 2))
    assert nf == -(e(1, 1) * e(2, 1)) + e(1, 1) * e(2, 2)
    # rewriting the defining relation itself gives zero
    for eta in ring.eta_elements():
        assert ring.normal_form(eta).is_zero()


def test_normal_form_is_idempotent_and_linear():
    ring = cohomology_ring(pure_braid(4))
    rng = random.Random(17)
    gens = [e(b, p) for b, n in enumerate(ring.ranks, start=1) for p in range(1, n + 1)]
    for _ in range(20):
        el = unit(ExtElem)
        for _ in range(rng.randint(1, 3)):
            el = el * rng.choice(gens)
        nf = ring.normal_form(el)
        assert ring.normal_form(nf) == nf
        assert ring.normal_form(el + el) == nf + nf


def test_products_in_the_quotient_associate():
    # confluence check: with a Groebner basis both bracketings rewrite to
    # the one normal form of the triple product
    rng = random.Random(29)
    specs = [pure_braid(4), upper_mccool(4)] + [random_spec(rng) for _ in range(8)]
    for spec in specs:
        ring = cohomology_ring(spec)
        gens = [e(*g) for g in ring.gens]
        if len(gens) < 2:
            continue

        def word():
            return math.prod(
                (rng.choice(gens) for _ in range(rng.randint(1, 2))),
                start=unit(ExtElem),
            )

        nf = ring.normal_form
        for _ in range(10):
            a, b, c = word(), word(), word()
            assert nf(nf(a * b) * c) == nf(a * nf(b * c))


def rank_three_block_ring():
    """A ring on ranks ``(1, 1, 3)`` with seeded kappas in ``{0, 1, -1}``.

    Its relations are no Groebner basis, so a monomial with two same-block
    pairs rewrites differently depending on which pair goes first.
    """
    rng = random.Random(0)
    etas = {}
    for p, q in ((1, 2), (1, 3), (2, 3)):
        lead = ((3, p), (3, q))
        etas[lead] = {lead: 1}
        for i in (1, 2):
            for s in (1, 2, 3):
                c = rng.choice((0, 1, -1))
                if c:
                    etas[lead][((i, 1), (3, s))] = c
    return CohomologyRing((1, 1, 3), etas)


def test_rewriting_takes_the_leftmost_same_block_pair():
    ring = rank_three_block_ring()
    assert ring.critical_pair_verify() is not None
    # e(3,1) e(3,2) is rewritten first
    assert ring.reduce_mono(((3, 1), (3, 2), (3, 3))) == {
        ((1, 1), (2, 1), (3, 1)): -1,
        ((1, 1), (2, 1), (3, 2)): -2,
        ((1, 1), (2, 1), (3, 3)): -1,
    }
    # rewriting e(3,2) e(3,3) first gives another normal form, so the
    # bracketings of the associativity check disagree on this ring
    a, b, c = e(3, 1), e(3, 2), e(3, 3)
    nf = ring.normal_form
    assert nf(a * nf(b * c)) == ExtElem(
        {((1, 1), (2, 1), (3, 1)): -2, ((1, 1), (2, 1), (3, 3)): -1}
    )
    assert nf(nf(a * b) * c) != nf(a * nf(b * c))


def test_the_memo_stores_only_rewritten_monomials():
    ring = cohomology_ring(pure_braid(6))
    normal = ((1, 1), (2, 1), (4, 3))
    assert ring.reduce_mono(normal) == {normal: 1}
    assert ring._memo == {}
    # the certificate rewrites nothing through the memo
    assert ring.critical_pair_verify() is None
    assert ring._memo == {}
    for lead, cofactor in ring.critical_pairs():
        assert not ring.normal_form(critical_product(ring, lead, cofactor))
    size = len(ring._memo)
    assert size > 0
    assert not any(is_normal(m) for m in ring._memo)
    for m in ring.basis(3):
        assert ring.reduce_mono(m) == {m: 1}
    assert len(ring._memo) == size


def test_rewriting_leaves_no_reference_cycles():
    # a rewriting helper that refers to itself through a closure cell is a
    # cycle that only the collector frees
    ring = cohomology_ring(pure_braid(8))
    gc.collect()
    gc.disable()
    try:
        assert ring.critical_pair_verify() is None
        zcl_witness(ring)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_zero_kappa_coefficients_are_dropped():
    lead = ((2, 1), (2, 2))
    ring = CohomologyRing((1, 2), {lead: {lead: 1, ((1, 1), (2, 1)): 0}})
    bare = CohomologyRing((1, 2), {lead: {lead: 1}})
    assert ring == bare and hash(ring) == hash(bare)
    assert ring.etas == {lead: {lead: 1}}
    assert ring.normal_form(e(2, 1) * e(2, 2)) == 0


def test_normal_monomials_have_at_most_one_generator_per_block():
    ring = cohomology_ring(pure_braid(4))
    for k in range(4):
        for mono in ring.basis(k):
            assert is_normal(mono)
    assert not is_normal(((2, 1), (2, 2)))


def test_dimensions_match_rank_polynomial():
    # dim H^k equals the k-th elementary symmetric value of the ranks
    for spec in (pure_braid(4), upper_mccool(5)):
        ring = cohomology_ring(spec)
        n = len(spec.ranks)
        for k in range(n + 2):
            coeff = 0
            for blocks in combinations(spec.ranks, k):
                term = 1
                for r in blocks:
                    term *= r
                coeff += term
            assert ring.dimension(k) == coeff
    assert [cohomology_ring(pure_braid(3)).dimension(k) for k in range(4)] == [1, 3, 2, 0]
    assert [cohomology_ring(pure_braid(4)).dimension(k) for k in range(4)] == [1, 6, 11, 6]


def test_dimension_counts_the_basis():
    for spec in table_specs():
        ring = ring_of(spec)
        for k in range(-1, len(spec.ranks) + 2):
            assert ring.dimension(k) == len(ring.basis(k))


def test_dimension_reads_the_rank_polynomial():
    # 64 blocks of rank 2 have 2^64 subsets, far too many to enumerate
    ring = cohomology_ring(AdpSpec((2,) * 64))
    for k in range(-1, 66):
        expected = math.comb(64, k) * 2**k if k >= 0 else 0
        assert ring.dimension(k) == expected, k


def test_hilbert_check_does_not_list_the_basis(count_calls, capsys, tmp_path):
    basis = count_calls(CohomologyRing, "basis")
    images = tmp_path / "images.spec"
    images.write_text(INCONSISTENT)
    for ref, code in (("builtin:purebraid:5", 0), (str(images), 2)):
        assert main(["hilbert", ref, "--check", "--porcelain"]) == code
        assert "dim 1" in capsys.readouterr().out
    assert basis == []


def test_product_in_quotient_is_reduced():
    ring = cohomology_ring(pure_braid(4))
    a = e(2, 1) * e(3, 2)
    b = e(2, 2)
    product = ring.normal_form(a * b)
    assert product and all(is_normal(m) for m in product.terms)
    assert ring.normal_form(product) == product


def test_xi_leading_terms_are_the_plain_monomials():
    ring = cohomology_ring(pure_braid(4))
    subsets = [(1,), (1, 2), (2, 3)]
    el = xi(ring, subsets)
    mono = tuple(
        (j, q) for j, s in enumerate(subsets, start=1) for q in s
    )
    lead_mono, lead_coeff = leading_term(el)
    assert lead_mono == mono
    assert lead_coeff == 1


def test_xi_family_is_a_triangular_basis_of_each_degree():
    spec = pure_braid(4)
    ring = cohomology_ring(spec)
    n_total = sum(spec.ranks)
    by_degree = {}
    block_subsets = [
        [s for k in range(n + 1) for s in combinations(range(1, n + 1), k)]
        for n in spec.ranks
    ]
    def product_choices(blocks):
        if not blocks:
            yield ()
            return
        for head in blocks[0]:
            for rest in product_choices(blocks[1:]):
                yield (head,) + rest
    for choice in product_choices(block_subsets):
        deg = sum(len(s) for s in choice)
        by_degree.setdefault(deg, []).append(xi(ring, list(choice)))
    for k in range(n_total + 1):
        elems = by_degree.get(k, [])
        assert len(elems) == math.comb(n_total, k)
        assert span_rank([dict(el.terms) for el in elems]) == len(elems)


def test_xi_with_a_block_pair_lies_in_the_ideal():
    ring = cohomology_ring(pure_braid(4))
    assert ring.normal_form(xi(ring, [(), (1, 2), ()])).is_zero()
    assert ring.normal_form(xi(ring, [(1,), (1, 2), (3,)])).is_zero()
    assert not ring.normal_form(xi(ring, [(1,), (2,), (3,)])).is_zero()


def test_xi_validation():
    ring = cohomology_ring(pure_braid(3))
    with pytest.raises(ValueError):
        xi(ring, [(1,)])
    with pytest.raises(ValueError):
        xi(ring, [(1, 1), (1,)])
    with pytest.raises(ValueError):
        xi(ring, [(1,), (3,)])


def test_groebner_verify_reports_each_degree():
    ring = cohomology_ring(pure_braid(4))
    report = ring.groebner_verify()
    assert report.ok
    assert [d.degree for d in report.degrees] == [2, 3, 4]
    for d in report.degrees:
        assert d.span_rank == d.expected_rank
        assert d.ok
    # the quotient vanishes one past the number of blocks
    top = report.degrees[-1]
    assert top.expected_rank == math.comb(6, top.degree)


def test_ring_pairing_choice_does_not_change_the_rules():
    # the ring of the image rows against rings of the pair formula
    for spec in (pure_braid(4), upper_mccool(4)):
        ring = cohomology_ring(spec)
        words = build_presentation(spec)
        for pairing in ("first", "last"):
            matrix = pair_matrix(spec.ranks, words, pairing)
            paired = CohomologyRing(spec.ranks, kernel_basis(matrix))
            assert [el.terms for el in ring.eta_elements()] == [
                el.terms for el in paired.eta_elements()
            ]


def test_critical_pairs_agree_with_the_rank_oracle():
    for spec in specs_under_test():
        ring = ring_of(spec)
        assert (ring.critical_pair_verify() is None) == ring.groebner_verify().ok


def test_critical_pairs_reject_the_inconsistent_table():
    ring = cohomology_ring(parse_spec(INCONSISTENT))
    assert not ring.groebner_verify().ok
    # e(3,1) times eta(3;1,2), the first product, survives rewriting
    assert ring.critical_pair_verify() == (((3, 1), (3, 2)), ((3, 1),))


def test_critical_pairs_reject_a_perturbed_relation():
    ring = cohomology_ring(pure_braid(4))
    etas = {lead: dict(terms) for lead, terms in ring.etas.items()}
    *_, lead = etas
    # the first tail term of the last eta, in (i, r, s) order
    key = next(mono for mono in etas[lead] if mono != lead)
    etas[lead][key] += 1
    bad = CohomologyRing(ring.ranks, etas)
    assert not bad.groebner_verify().ok
    witness = bad.critical_pair_verify()
    assert witness is not None
    assert bad.normal_form(critical_product(bad, *witness))


def all_pairs_verify(ring):
    """The all-pairs oracle of the degree-three certificate.

    It rewrites every check of the exterior Buchberger criterion: the
    square products, then the S-polynomial of every two relations,
    disjoint leads (degree four) included.  Returns the first failing
    ``(lead, other)``, or None.
    """
    leads = list(ring.etas)
    checks = [(lead, (g,)) for lead in leads for g in lead]
    checks += combinations(leads, 2)
    for lead, other in checks:
        if ring.normal_form(critical_product_oracle(ring, lead, other)):
            return lead, other
    return None


def genuine_rings():
    """Fifteen rings of genuine products: 14 builtins and a random spec."""
    specs = [pure_braid(l) for l in (3, 4, 5)]
    specs += [upper_mccool(n) for n in (3, 4, 5)]
    specs += [pure_braid_mod_center(l) for l in (4, 5)]
    specs += [upper_mccool_mod_center(n) for n in (4, 5)]
    specs += [partial_pure_braid(l, k) for l, k in ((2, 2), (2, 3), (3, 1), (3, 2))]
    rng = random.Random(3)
    spec = random_spec(rng, max_blocks=4, min_rank=2, max_rank=3)
    while len(spec.ranks) < 3:
        spec = random_spec(rng, max_blocks=4, min_rank=2, max_rank=3)
    return [ring_of(spec) for spec in specs + [spec]]


def perturbed_rings(per_ring=60):
    """Each genuine ring with one to three ``kappa`` entries moved by +-1."""
    rng = random.Random(1)
    out = []
    for ring in genuine_rings():
        leads = list(ring.etas)
        for _ in range(per_ring):
            etas = dict(ring.etas)
            for _ in range(rng.randint(1, 3)):
                lead = leads[rng.randrange(len(leads))]
                j = lead[0][0]
                keys = [
                    ((i, r), (j, s))
                    for i in range(1, j)
                    for r in range(1, ring.ranks[i - 1] + 1)
                    for s in range(1, ring.ranks[j - 1] + 1)
                ]
                if not keys:
                    # the first block has no earlier block to pair with
                    continue
                key = rng.choice(keys)
                eta = dict(etas[lead])
                eta[key] = eta.get(key, 0) + rng.choice((1, -1))
                etas[lead] = eta
            out.append(CohomologyRing(ring.ranks, etas))
    return out


def test_degree_three_certificate_agrees_with_all_pairs():
    rings = [ring_of(spec) for spec in specs_under_test()]
    rings += [cohomology_ring(parse_spec(INCONSISTENT)), rank_three_block_ring()]
    rings += perturbed_rings()
    assert len(rings) == len(specs_under_test()) + 2 + 900
    first_disjoint = []
    for ring in rings:
        witness = ring.critical_pair_verify()
        full = all_pairs_verify(ring)
        assert (witness is None) == (full is None), ring.etas
        if len(ring.gens) <= 9:
            assert ring.groebner_verify().ok == (witness is None)
        if full is not None and not (set(full[0]) & set(full[1])):
            first_disjoint.append((full, witness))
    # a ring that all pairs reject first at two disjoint leads, in degree
    # four, fails in degree three as well: at e(4,3) eta(4;2,4), the product
    # inside the S-polynomial of eta(4;2,3) and eta(4;2,4)
    assert first_disjoint == [
        (
            (((4, 1), (4, 2)), ((4, 3), (4, 4))),
            (((4, 2), (4, 4)), ((4, 3),)),
        )
    ]


def test_certificate_normal_forms_are_the_rewritten_products():
    # term for term against normal_form, whose leftmost rewriting decides
    # the normal form also where the relations are no Groebner basis
    rings = [ring_of(spec) for spec in specs_under_test()]
    rings += [cohomology_ring(parse_spec(INCONSISTENT)), rank_three_block_ring()]
    rings += perturbed_rings()
    rings += [
        cohomology_ring(random_spec(random.Random(s), max_factors=8))
        for s in range(1000)
    ]
    checks = failed = 0
    for ring in rings:
        first = None
        for lead, cofactor, terms in ring.critical_normal_forms():
            expect = ring.normal_form(critical_product(ring, lead, cofactor))
            assert terms == expect.terms, (ring.etas, lead, cofactor)
            if terms and first is None:
                first = lead, cofactor
            checks += 1
        assert ring.critical_pair_verify() == first
        failed += first is not None
    assert checks == sum(
        2 * math.comb(n + 1, 3) for ring in rings for n in ring.ranks
    )
    assert 0 < failed < len(rings)


def critical_product_oracle(ring, lead, other):
    """``e_g eta`` for ``other = (g,)``, else the S-polynomial of the
    relations leading with ``lead`` and ``other``, built through
    ``ExtElem`` products."""

    def eta(lead):
        (j, p), (_, q) = lead
        return ring.eta(j, p, q)

    def lead_multiple(lead, union):
        cofactor = tuple(g for g in union if g not in lead)
        sign, _ = mono_mul(cofactor, lead)
        return ExtElem.monomial(cofactor, sign) * eta(lead)

    if len(other) == 1:
        return ExtElem.monomial(other) * eta(lead)
    union = tuple(sorted(set(lead) | set(other)))
    return lead_multiple(lead, union) - lead_multiple(other, union)


def test_critical_product_matches_the_exterior_product():
    rings = [ring_of(spec) for spec in specs_under_test()]
    rings += [cohomology_ring(parse_spec(INCONSISTENT))]
    rings += perturbed_rings()
    checks = 0
    for ring in rings:
        pairs = set(ring.critical_pairs())
        for lead, other in ring.critical_pairs():
            expect = critical_product_oracle(ring, lead, other)
            assert critical_product(ring, lead, other) == expect
            checks += 1
        # the S-polynomial of two leads that share a generator is a signed
        # sum of two products e_g eta, each a check or one that rewrites to
        # zero by itself
        for a, b in combinations(ring.etas, 2):
            if not set(a) & set(b):
                continue
            union = tuple(sorted(set(a) | set(b)))
            parts = []
            for rel in (a, b):
                (g,) = (g for g in union if g not in rel)
                product = critical_product_oracle(ring, rel, (g,))
                assert (rel, (g,)) in pairs or not ring.normal_form(product)
                parts.append(mono_mul((g,), rel)[0] * product)
            assert critical_product_oracle(ring, a, b) == parts[0] - parts[1]
    assert checks > len(rings)


def test_critical_pairs_are_the_products_with_r_at_most_q():
    for spec in specs_under_test() + [parse_spec(INCONSISTENT)]:
        ring = ring_of(spec)
        expect = [
            (((j, p), (j, q)), ((j, r),))
            for (j, p), (_, q) in ring.etas
            for r in range(1, q + 1)
        ]
        assert list(ring.critical_pairs()) == expect
        assert len(expect) == sum(2 * math.comb(n + 1, 3) for n in ring.ranks)


def test_every_skipped_product_rewrites_to_zero():
    rings = [ring_of(spec) for spec in specs_under_test()]
    rings += [cohomology_ring(parse_spec(INCONSISTENT)), rank_three_block_ring()]
    rings += perturbed_rings()
    skipped = 0
    for ring in rings:
        checked = set(ring.critical_pairs())
        for lead in ring.etas:
            (j, _), (_, q) = lead
            for i, r in ring.gens:
                if (lead, ((i, r),)) in checked:
                    continue
                # g in another block, or after the leading pair
                assert i != j or r > q
                product = critical_product_oracle(ring, lead, ((i, r),))
                assert not ring.normal_form(product), (ring.etas, lead, (i, r))
                skipped += 1
    assert skipped > len(rings)


def test_ring_refuses_kappa_outside_the_earlier_blocks():
    lead = ((2, 1), (2, 2))
    for key in (((2, 1), (2, 1)), ((1, 2), (2, 1)), ((1, 1), (2, 3)), ((1, 1), (3, 1))):
        with pytest.raises(ValueError, match="outside the earlier blocks"):
            CohomologyRing((1, 2), {lead: {lead: 1, key: 1}})


def test_ring_refuses_leads_off_the_same_block_pairs():
    lead = ((2, 1), (2, 2))
    for bad in (((2, 1), (2, 5)), ((2, 0), (2, 1)), ((1, 1), (2, 1)), ((3, 1), (3, 2))):
        etas = {lead: {lead: 1}, bad: {bad: 1}}
        with pytest.raises(ValueError, match="not a same-block pair"):
            CohomologyRing((1, 2), etas)


def test_ring_refuses_a_lead_coefficient_other_than_one():
    lead = ((2, 1), (2, 2))
    for terms in ({lead: 2}, {lead: -1}, {((1, 1), (2, 1)): 1}):
        with pytest.raises(ValueError, match="lead coefficient"):
            CohomologyRing((1, 2), {lead: terms})


def test_ring_refuses_a_missing_pair():
    lead = ((2, 1), (2, 3))
    with pytest.raises(ValueError, match="block 2 pair \\(1,2\\)"):
        CohomologyRing((1, 3), {lead: {lead: 1}})


def test_critical_pairs_certify_nine_strands():
    # far past the reach of groebner_verify, whose degree-10 rows number
    # C(36, 8) times 84
    ring = cohomology_ring(pure_braid(9))
    assert len(ring.etas) == math.comb(9, 3)
    assert ring.critical_pair_verify() is None
    pairs = list(ring.critical_pairs())
    assert len(pairs) == 2 * math.comb(10, 4)

