"""Acceptance suite: one test per numbered criterion, all exact.

Every test prints one ``criterion N: PASS/FAIL`` line (shown with ``-s``
or on failure) and asserts the stated values with zero tolerance, so the
``pytest -v`` report carries one line per criterion.
"""

import math
import random
from itertools import combinations

from almostdirect.adp import (
    build_presentation,
    extend_with_torus,
    partial_pure_braid,
    pure_braid,
    pure_braid_mod_center,
    random_spec,
    relation_keys,
    upper_mccool,
    upper_mccool_mod_center,
)
from almostdirect.exterior import cohomology_ring, e
from almostdirect.fox import GroupRingElem, fox_gradient
from almostdirect.homology import (
    H2Matrix,
    h2_matrix,
    verify_chain_map,
    wedge,
)
from almostdirect.invariants import (
    lcs_identity_holds,
    lcs_ranks,
    poincare_vector,
    tc_certificate,
    zcl_witness,
)
from almostdirect.linalg import span_rank
from almostdirect.sparse import add_scaled
from almostdirect.words import Word, commutator_decompose
from oracles import claim_expansion, dense, is_normal, spans_equal


def report(num, ok, detail):
    print("criterion %d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def all_builtins_through_five_blocks():
    specs = [pure_braid(l) for l in range(2, 7)]
    specs += [partial_pure_braid(l, k) for l in (1, 2, 3) for k in (1, 2, 3)]
    specs += [upper_mccool(n) for n in range(2, 7)]
    specs += [pure_braid_mod_center(l) for l in range(3, 7)]
    specs += [upper_mccool_mod_center(n) for n in range(3, 7)]
    assert all(len(s.ranks) <= 5 for s in specs)
    return specs


_CACHE = {}


def fifty_random_specs():
    if "random" not in _CACHE:
        rng = random.Random(20260815)
        _CACHE["random"] = [
            random_spec(rng, max_blocks=4, min_rank=1, max_rank=3, max_factors=4)
            for _ in range(50)
        ]
    return _CACHE["random"]


def specs_under_test():
    return all_builtins_through_five_blocks() + fifty_random_specs()


def ring_of(spec):
    if ("ring", spec) not in _CACHE:
        _CACHE[("ring", spec)] = cohomology_ring(spec)
    return _CACHE[("ring", spec)]


def pair_matrix(ranks, words, pairing):
    """The H2 matrix by the pair formula, independent of :func:`h2_matrix`.

    Row ``(i, j, p, q)`` of each relation word in ``words`` is the mixed
    unit plus ``sum ab(u) ^ ab(v)`` over the commutator pairs ``(u, v)`` of
    the word under ``pairing``; any other key has the implied unit row.
    """
    rows = {}
    for (i, j, p, q), word in words.items():
        row = {((i, p), (j, q)): 1}
        for u, v in commutator_decompose(word, pairing):
            add_scaled(row, wedge(u.exponent_sums(), v.exponent_sums()))
        rows[(i, j, p, q)] = row
    return H2Matrix(ranks, rows)


def rows_of(elems):
    return [dict(el.terms) for el in elems]


def test_criterion_01_pure_braid_kernel_span():
    # the degree-2 kernel of the braid group equals the span of the Arnold
    # relations e_ij e_ik - e_ij e_jk + e_ik e_jk over strand triples
    ok = True
    detail = []
    for l in (3, 4, 5):
        ring = ring_of(pure_braid(l))
        eta_rows = rows_of(ring.eta_elements())

        def E(i, j):
            return e(j - 1, i)

        arnold = [
            E(i, j) * E(i, k) - E(i, j) * E(j, k) + E(i, k) * E(j, k)
            for i, j, k in combinations(range(1, l + 1), 3)
        ]
        arnold_rows = rows_of(arnold)
        ok = ok and spans_equal(eta_rows, arnold_rows)
        detail.append("l=%d rank %d" % (l, span_rank(eta_rows)))
    assert report(1, ok, ", ".join(detail))


def test_criterion_02_mccool_kernel_span():
    # the computed kernel equals the span of e_{i,p} e_{j,i+1} - e_{j,p} e_{j,i+1}
    ok = True
    detail = []
    for n in (3, 4, 5):
        ring = ring_of(upper_mccool(n))
        eta_rows = rows_of(ring.eta_elements())
        rel = [
            e(i, p) * e(j, i + 1) - e(j, p) * e(j, i + 1)
            for j in range(1, n)
            for i in range(1, j)
            for p in range(1, i + 1)
        ]
        rel_rows = rows_of(rel)
        ok = ok and spans_equal(eta_rows, rel_rows)
        detail.append("n=%d rank %d" % (n, span_rank(eta_rows)))
    assert report(2, ok, ", ".join(detail))


def test_criterion_03_hilbert_function():
    # quotient dimensions match the coefficients of prod (1 + n_i t)
    specs = specs_under_test()
    ok = True
    for spec in specs:
        ring = ring_of(spec)
        expect = poincare_vector(spec.ranks)
        dims = tuple(ring.dimension(k) for k in range(len(spec.ranks) + 1))
        ok = ok and dims == expect
        # dimension reads the same recurrence as poincare_vector; the
        # enumerated basis is what can disagree with it
        counted = tuple(len(ring.basis(k)) for k in range(len(spec.ranks) + 1))
        ok = ok and counted == expect
    p4 = tuple(ring_of(pure_braid(4)).dimension(k) for k in range(4))
    ok = ok and p4 == (1, 6, 11, 6)
    assert report(
        3, ok, "%d specs, P_4 dimensions %s" % (len(specs), (1, 6, 11, 6))
    )


def test_criterion_04_chain_map_identity():
    # d2 after a2 equals the presentation boundary on every relation
    specs = specs_under_test()
    ok = True
    total = 0
    for spec in specs:
        total += len(relation_keys(spec.ranks))
        rep = verify_chain_map(spec.ranks, build_presentation(spec))
        ok = ok and rep.ok
    assert report(4, ok, "%d relations over %d specs" % (total, len(specs)))


def test_criterion_05_groebner_certification():
    # elimination ranks match the Hilbert prediction in degrees 2..l+1,
    # including the vanishing of the quotient one past the block count
    specs = specs_under_test()
    ok = True
    for spec in specs:
        ring = ring_of(spec)
        rep = ring.groebner_verify()
        ok = ok and rep.ok
        l = len(spec.ranks)
        n_total = sum(spec.ranks)
        top = [d for d in rep.degrees if d.degree == l + 1]
        ok = ok and len(top) == 1
        ok = ok and top[0].expected_rank == math.comb(n_total, l + 1)
        ok = ok and ring.dimension(l + 1) == 0
    assert report(5, ok, "degrees 2..l+1 on %d specs" % len(specs))


def test_criterion_06_decomposition_independence():
    # the integral matrix of the ring, read off the images, equals the
    # matrix of the pair formula under either split of the relation words
    # into commutators
    specs = specs_under_test()
    ok = True
    for spec in specs:
        words = build_presentation(spec)
        rows = dense(h2_matrix(spec.ranks, spec.images))
        for pairing in ("first", "last"):
            ok = ok and dense(pair_matrix(spec.ranks, words, pairing)) == rows
    assert report(
        6, ok, "image rows vs first and last pairing on %d specs" % len(specs)
    )


def test_criterion_07_lcs_formula():
    # prod_{k<=12} (1 - t^k)^{phi_k} = prod (1 - n_i t) mod t^13
    ok = True
    for spec in all_builtins_through_five_blocks():
        ok = ok and lcs_identity_holds(spec.ranks, 12)
    p3 = lcs_ranks((1, 2), 3)
    ok = ok and p3 == (3, 1, 2)
    assert report(7, ok, "builtins through degree 12, phi(P_3) = (3, 1, 2)")


def test_criterion_08_tc_closed_forms():
    braid = {
        l: tc_certificate(extend_with_torus(pure_braid_mod_center(l), 1)).exact
        for l in (3, 4, 5, 6)
    }
    braid_ok = all(braid[l] == 2 * l - 2 for l in braid)

    partial = {
        (l, k): tc_certificate(partial_pure_braid(l, k)).exact
        for k in (2, 3)
        for l in (1, 2, 3)
    }
    partial_ok = all(partial[(l, k)] == 2 * l + 1 for (l, k) in partial)

    rng = random.Random(48)
    random_ok = True
    for _ in range(20):
        spec = random_spec(rng, max_blocks=3, min_rank=2, max_rank=3)
        l = len(spec.ranks)
        for m in range(4):
            cert = tc_certificate(extend_with_torus(spec, m))
            random_ok = random_ok and cert.exact == 2 * l + m + 1

    # TC = 2l + m + 1 for l free blocks of rank >= 2 times Z^m; both center
    # quotients below have blocks of ranks 2..n-1, so times Z it is 2n - 2
    mccool_premise = all(
        upper_mccool_mod_center(n).ranks == tuple(range(2, n)) for n in (4, 5, 6)
    )
    mccool = {
        n: tc_certificate(extend_with_torus(upper_mccool_mod_center(n), 1)).exact
        for n in (4, 5, 6)
    }
    mccool_ok = all(mccool[n] == 2 * n - 2 for n in mccool)

    ok = braid_ok and partial_ok and random_ok and mccool_premise and mccool_ok
    report(
        8,
        ok,
        "braid %s, partial %s, random %s, mccool certified %s vs 2n-2 = %s"
        % (
            braid_ok,
            partial_ok,
            random_ok,
            tuple(mccool.values()),
            tuple(2 * n - 2 for n in mccool),
        ),
    )
    assert braid_ok
    assert partial_ok
    assert random_ok
    assert mccool_premise, "upper McCool center quotient ranks are not 2..n-1"
    assert mccool_ok, "mccool certified %s, closed form 2n-2 = %s" % (
        tuple(mccool.values()),
        tuple(2 * n - 2 for n in mccool),
    )


def test_criterion_09_claim_equivalence():
    # the signed double-sum expansion equals the multiplied witness product,
    # with 2^l distinct basis monomials on each tensor leg
    specs = [s for s in all_builtins_through_five_blocks() if min(s.ranks) >= 2]
    specs += [s for s in fifty_random_specs() if min(s.ranks) >= 2]
    rng = random.Random(64)
    specs += [
        random_spec(rng, max_blocks=3, min_rank=2, max_rank=3) for _ in range(10)
    ]
    ok = True
    for spec in specs:
        ring = ring_of(spec)
        claim = claim_expansion(ring)
        ok = ok and claim == zcl_witness(ring).element
        l = len(spec.ranks)
        lefts = {left for left, _ in claim.terms}
        rights = {right for _, right in claim.terms}
        ok = ok and len(claim.terms) == 2 ** l
        ok = ok and len(lefts) == 2 ** l and len(rights) == 2 ** l
        ok = ok and all(is_normal(m) for m in lefts | rights)
    assert report(9, ok, "%d rank->=2 specs" % len(specs))


def reduced_words(max_len, rank):
    letters = [((1, p), s) for p in range(1, rank + 1) for s in (1, -1)]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g, s in letters:
                if w and w[-1][0] == g and w[-1][1] == -s:
                    continue
                nxt.append(w + ((g, s),))
        out.extend(nxt)
        frontier = nxt
    return out


def gradient(grads, w):
    # the product rule asks again and again for the gradients of the same
    # subwords, so fox_gradient runs once per word of the dict ``grads``
    grad = grads.get(w.letters)
    if grad is None:
        grad = grads[w.letters] = fox_gradient(w)
    return grad


def fundamental_formula_holds(letters, grads):
    w = Word(letters)
    one = GroupRingElem.one()
    total = GroupRingElem()
    for g, d in gradient(grads, w).items():
        total = total + d * (GroupRingElem({Word(((g, 1),)): 1}) - one)
    return total == GroupRingElem({w: 1}) - one


def product_rule_holds(letters, cut, gens, grads):
    u, v = Word(letters[:cut]), Word(letters[cut:])
    w = u * v
    gw = gradient(grads, w)
    gu = gradient(grads, u)
    gv = gradient(grads, v)
    au = GroupRingElem({u: 1})
    zero = GroupRingElem()
    for g in gens:
        lhs = gw.get(g, zero)
        if lhs != gu.get(g, zero) + au * gv.get(g, zero):
            return False
    return True


def test_criterion_10_fox_calculus_oracle():
    gens = [(1, p) for p in (1, 2, 3)]
    words = reduced_words(6, 3)
    grads = {}
    ok = all(fundamental_formula_holds(w, grads) for w in words)
    ok = ok and all(
        product_rule_holds(w, cut, gens, grads)
        for w in words
        for cut in range(len(w) + 1)
    )
    rng = random.Random(101)
    letters_pool = [((1, p), s) for p in (1, 2, 3) for s in (1, -1)]
    for _ in range(1000):
        length = rng.randint(7, 40)
        letters = tuple(rng.choice(letters_pool) for _ in range(length))
        ok = ok and fundamental_formula_holds(letters, grads)
        cut = rng.randint(0, length)
        ok = ok and product_rule_holds(letters, cut, gens, grads)
    assert report(
        10, ok, "%d reduced words exhaustively, 1000 random longer" % len(words)
    )
