import random
from itertools import combinations
from pathlib import Path

import pytest

from almostdirect import homology
from almostdirect.adp import (
    MAGNUS,
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
from almostdirect.homology import (
    H2Matrix,
    RowStructureError,
    chain_a2,
    h2_matrix,
    kernel_basis,
    koszul_d2,
    verify_chain_map,
    wedge,
)
from almostdirect.cli import load_spec, main, parse_spec
from almostdirect.laurent import LaurentPoly, t
from almostdirect.words import Word, commutator_decompose, x
from oracles import dense, koszul_d1, sorted_generator_pairs
from test_acceptance import pair_matrix, specs_under_test
from test_benchmark_targets import load
from test_cli import INCONSISTENT
from test_words import reassemble


ONE = LaurentPoly.constant(1)
GOLDEN_SPECS = Path(__file__).parent / "golden" / "specs"


def test_generator_pairs_order():
    # pairs are listed by the deg-lex order on the second then first leg
    assert sorted_generator_pairs((1, 2)) == [
        ((1, 1), (2, 1)),
        ((1, 1), (2, 2)),
        ((2, 1), (2, 2)),
    ]
    assert sorted_generator_pairs((2,)) == [((1, 1), (1, 2))]


def test_wedge_is_alternating():
    f = {(1, 1): ONE, (2, 1): t(1, 1)}
    g = {(2, 2): ONE, (1, 1): t(2, 1)}
    fg = wedge(f, g)
    gf = wedge(g, f)
    assert set(fg) == set(gf)
    for pair in fg:
        assert fg[pair] == -gf[pair]
    assert wedge(f, f) == {}


def test_koszul_composition_vanishes():
    # d1 after d2 must be zero on every elementary 2-chain
    for a, b in sorted_generator_pairs((2, 3)):
        k2 = {(a, b): t(1, 1) - ONE}
        assert koszul_d1(koszul_d2(k2)).is_zero()


def test_chain_map_on_builtins():
    specs = [
        pure_braid(3),
        pure_braid(4),
        pure_braid(5),
        partial_pure_braid(2, 3),
        upper_mccool(4),
        upper_mccool(5),
        pure_braid_mod_center(4),
        upper_mccool_mod_center(4),
    ]
    for spec in specs:
        report = verify_chain_map(spec.ranks, build_presentation(spec))
        assert report.ok, (spec.name, report.failures)


def test_chain_map_on_random_specs():
    rng = random.Random(41)
    for _ in range(15):
        spec = random_spec(rng)
        assert verify_chain_map(spec.ranks, build_presentation(spec)).ok


def test_chain_map_failures_are_reported():
    # sanity check on the report shape for a passing presentation
    spec = pure_braid(3)
    report = verify_chain_map(spec.ranks, build_presentation(spec))
    assert report.ok
    assert report.failures == []


def test_h2_matrix_two_strand_oracle():
    # the two relations of the three strand group pair the mixed slots with
    # the identity and hit the inner slot with opposite signs
    spec = pure_braid(3)
    m = h2_matrix(spec.ranks, spec.images)
    assert list(m.rows) == [(1, 2, 1, 1), (1, 2, 1, 2)]
    assert sorted_generator_pairs(m.ranks) == [
        ((1, 1), (2, 1)),
        ((1, 1), (2, 2)),
        ((2, 1), (2, 2)),
    ]
    assert dense(m) == [[1, 0, -1], [0, 1, 1]]


def test_h2_matrix_full_row_rank_on_builtins():
    for spec in (pure_braid(4), upper_mccool(4), partial_pure_braid(2, 2)):
        assert h2_matrix(spec.ranks, spec.images).has_full_row_rank()


def test_full_row_rank_fails_on_dependent_or_empty_rows():
    # hand-built rows: relation keys to column pairs to nonzero integers
    keys = [(1, 2, 1, 1), (1, 2, 1, 2)]
    a, b = ((1, 1), (2, 1)), ((2, 1), (2, 2))

    def matrix(row0, row1):
        return H2Matrix((1, 2), {keys[0]: row0, keys[1]: row1})

    m = matrix({a: 1}, {b: 1})
    assert m.has_full_row_rank()
    assert sorted_generator_pairs(m.ranks) == [a, ((1, 1), (2, 2)), b]
    assert dense(m) == [[1, 0, 0], [0, 0, 1]]
    assert not matrix({a: 1, b: 2}, {a: 2, b: 4}).has_full_row_rank()
    empty = matrix({}, {a: 1, b: 1})
    assert not empty.has_full_row_rank()
    assert dense(empty) == [[0, 0, 0], [1, 0, 1]]
    # without a row of its own, keys[0] has the implied unit row at a
    implied = H2Matrix((1, 2), {keys[1]: {a: 1, b: 1}})
    assert dense(implied) == [[1, 0, 0], [1, 0, 1]]
    assert implied.has_full_row_rank()
    implied = H2Matrix((1, 2), {keys[1]: {a: 1}})
    assert dense(implied) == [[1, 0, 0], [1, 0, 0]]
    assert not implied.has_full_row_rank()


def test_chain_a2_augments_to_matrix_row():
    # the matrix is read off exponent sums; the augmented Laurent chain map,
    # which verify_chain_map checks against the presentation, must agree
    specs = [pure_braid(4)]
    specs += [
        load_spec(str(path))
        for path in sorted(GOLDEN_SPECS.glob("longword-*.spec"))
    ]
    rng = random.Random(5)
    specs += [random_spec(rng) for _ in range(20)]
    assert len(specs) == 23
    for spec in specs:
        words = build_presentation(spec)
        m = h2_matrix(spec.ranks, spec.images)
        cols = sorted_generator_pairs(m.ranks)
        # every row, the implied unit rows of the unmoved relations too
        keys = relation_keys(spec.ranks)
        for key, row in zip(keys, dense(m), strict=True):
            a2 = chain_a2(key, words.get(key, Word()))
            aug = {pair: poly.augment() for pair, poly in a2.items()}
            assert [aug.get(c, 0) for c in cols] == row, key


def test_both_pairings_reassemble_the_long_relators():
    # the pairs of either pairing multiply back to w, so both give the row
    # that h2_matrix reads off w
    names = ("longword-1-3.spec", "longword-2-2.spec", "inconsistent.spec")
    longest = 0
    for name in names:
        spec = load_spec(str(GOLDEN_SPECS / name))
        words = build_presentation(spec)
        for pairing in ("first", "last"):
            for key, word in words.items():
                pairs = commutator_decompose(word, pairing)
                assert reassemble(pairs) == word, (name, key, pairing)
                longest = max(longest, len(word))
            rows = dense(pair_matrix(spec.ranks, words, pairing))
            assert rows == dense(h2_matrix(spec.ranks, words)), (name, pairing)
    assert longest >= 80


def test_reassembly_agrees_with_the_laurent_chain_map():
    # the pairs reassemble to w, which by Fox calculus gives the Laurent
    # chain map, on every spec under test and every golden spec file
    specs = specs_under_test()
    specs += [load_spec(str(path)) for path in sorted(GOLDEN_SPECS.glob("*.spec"))]
    assert len(specs) == len(specs_under_test()) + 3
    for spec in specs:
        words = build_presentation(spec)
        assert verify_chain_map(spec.ranks, words).ok, spec
        assert all(
            reassemble(commutator_decompose(w)) == w for w in words.values()
        ), spec


def magnus_row(key, word):
    """The mixed unit plus ``c_ab(w)`` over every pair of letter positions
    ``k < l`` of ``w`` with ``g_k = a < b = g_l``."""
    i, j, p, q = key
    row = {((i, p), (j, q)): 1}
    letters = word.letters
    for k, (a, eps) in enumerate(letters):
        for b, eta in letters[k + 1 :]:
            if a < b:
                row[(a, b)] = row.get((a, b), 0) + eps * eta
    return row


def test_presentation_stores_the_moved_relations_and_implies_the_rest():
    specs = specs_under_test()
    specs += [pure_braid(7), partial_pure_braid(3, 2), upper_mccool(7)]
    specs += [pure_braid_mod_center(7), upper_mccool_mod_center(7)]
    specs.append(extend_with_torus(pure_braid_mod_center(5), 2))
    specs.append(parse_spec(INCONSISTENT))
    for spec in specs:
        ranks = spec.ranks
        words = build_presentation(spec)
        every = sorted(
            (
                (i, j, p, q)
                for i, j in combinations(range(1, len(ranks) + 1), 2)
                for p in range(1, ranks[i - 1] + 1)
                for q in range(1, ranks[j - 1] + 1)
            ),
            key=lambda k: (k[1], k[0], k[2], k[3]),
        )
        assert relation_keys(ranks) == every, spec
        assert len(every) == sum(
            ranks[i] * ranks[j] for i, j in combinations(range(len(ranks)), 2)
        )
        # one stored word per moved image, in relation order
        assert list(words) == [k for k in every if k in spec.images]
        assert set(words) == set(spec.images)
        assert all(words.values())
        for key in every:
            i, j, p, q = key
            image = spec.action_image(i, j, p, q)
            assert words.get(key, Word()) == x(j, q, -1) * image
        # the dense matrix over every relation, unit rows included
        m = h2_matrix(ranks, words)
        cols = sorted_generator_pairs(m.ranks)
        expect = [
            [magnus_row(k, words.get(k, Word())).get(c, 0) for c in cols]
            for k in every
        ]
        assert dense(m) == expect, spec
        assert m.has_full_row_rank()
    assert len(specs) == len(specs_under_test()) + 7


def test_cohomology_builds_no_relation_and_stores_the_moved_words(
    count_calls, monkeypatch, capsys
):
    from almostdirect import adp, exterior

    presented = count_calls(adp, "build_presentation")
    decomposed = count_calls(homology, "commutator_decompose")
    built = []

    def recorded(ranks, table):
        built.append(h2_matrix(ranks, table))
        return built[-1]

    monkeypatch.setattr(exterior, "h2_matrix", recorded)
    assert main(["cohomology", "builtin:uppermccool:10", "--porcelain"]) == 0
    capsys.readouterr()
    assert presented == decomposed == []
    # 120 of the 870 relations of uppermccool 10 are moved, and the matrix
    # stores their rows only, keyed as the images
    (m,) = built
    images = upper_mccool(10).images
    assert len(relation_keys(m.ranks)) == 870
    assert list(m.rows) == list(images) and len(images) == 120
    assert all(len(row) > 1 for row in m.rows.values())


def test_rows_off_the_images_equal_rows_off_the_relation_words():
    # w = x(j,q)^-1 phi(x(j,q)) and its image phi(x(j,q)) have the same
    # degree-two Magnus coefficients (the module docstring of homology)
    specs = specs_under_test() + [parse_spec(INCONSISTENT)]
    specs += [
        load_spec(str(GOLDEN_SPECS / ("longword-%s.spec" % name)))
        for name in ("1-3", "2-2")
    ]
    rng = random.Random(5)
    specs += [random_spec(rng, max_factors=8) for _ in range(200)]
    for spec in specs:
        images = h2_matrix(spec.ranks, spec.images).rows
        words = h2_matrix(spec.ranks, build_presentation(spec)).rows
        assert list(images.items()) == list(words.items()), spec
    assert len(specs) == len(specs_under_test()) + 203


def test_johnson_rows_equal_the_rows_off_the_expanded_images(monkeypatch):
    # the ring reads a magnus action through tau_1, with no word expanded;
    # each of its rows equals the row read off the expanded image, term for
    # term (a key without a stored row has its unit row), and the eta
    # tables are equal, in the same order
    from almostdirect import exterior

    specs = [
        spec
        for spec in specs_under_test()
        if any(kind == MAGNUS for kind, _ in spec.actions.values())
    ]
    specs += [random_spec(random.Random(s), max_factors=8) for s in range(1000)]
    specs += [
        load_spec(str(GOLDEN_SPECS / ("longword-%s.spec" % name)))
        for name in ("1-3", "2-2")
    ]
    specs += [job.spec for job in load("workloads").make_jobs("verify_longwords", 1)]
    built = []
    real = exterior.h2_matrix

    def recorded(ranks, table):
        built.append(real(ranks, table))
        return built[-1]

    monkeypatch.setattr(exterior, "h2_matrix", recorded)
    for spec in specs:
        del built[:]
        exterior.cohomology_ring(spec)
        (johnson,) = built
        images = real(spec.ranks, spec.images)
        for key in relation_keys(spec.ranks):
            i, j, p, q = key
            unit = {((i, p), (j, q)): 1}
            assert johnson.rows.get(key, unit) == images.rows.get(key, unit), key
        etas = [(k, list(v.items())) for k, v in kernel_basis(johnson).items()]
        expect = [(k, list(v.items())) for k, v in kernel_basis(images).items()]
        assert etas == expect, spec
    # 24 of the fifty random specs of specs_under_test() act at all
    assert len(specs) == 24 + 1000 + 2 + 27


def not_reassembled(ranks, words):
    # the keys of the relations whose pairs, as the Laurent oracle reads
    # them, do not multiply back to the relation word
    return [
        key
        for key in relation_keys(ranks)
        if reassemble(homology.commutator_decompose(words.get(key, Word())))
        != words.get(key, Word())
    ]


def tamper_pairs(monkeypatch, word, extra):
    # the Laurent oracle reads its pairs from homology.commutator_decompose:
    # the pairs of each relation word equal to word gain the pairs extra,
    # so that they no longer multiply to it; the word stays as it is.  Every
    # unmoved relation has the empty word, so Word() tampers all of them
    real = homology.commutator_decompose

    def tampered(w, pairing="first"):
        out = real(w, pairing)
        return out + list(extra) if w == word else out

    monkeypatch.setattr(homology, "commutator_decompose", tampered)


def failing_keys(ranks, words):
    return [failure[0] for failure in verify_chain_map(ranks, words).failures]


def test_reassembly_and_the_chain_map_reject_a_stray_letter(monkeypatch):
    spec = pure_braid(4)
    words = build_presentation(spec)
    key = next(iter(words))
    # a stray commutator among the pairs of one relation: they no longer
    # multiply to its word, which no other relation shares
    assert list(words.values()).count(words[key]) == 1
    tamper_pairs(monkeypatch, words[key], ((x(1, 1), x(3, 1)),))
    assert not_reassembled(spec.ranks, words) == [key]
    assert failing_keys(spec.ranks, words) == [key]
    # the unmoved relations, which the table lacks, are checked by the
    # oracles too
    unmoved = [k for k in relation_keys(spec.ranks) if k not in words]
    assert unmoved == [(1, 3, 1, 3), (2, 3, 2, 1)]
    tamper_pairs(monkeypatch, Word(), ((x(1, 1), x(3, 1)),))
    bad = [key] + unmoved
    assert not_reassembled(spec.ranks, words) == bad
    assert failing_keys(spec.ranks, words) == bad


def test_reassembly_sees_past_the_metabelian_quotient(monkeypatch):
    from almostdirect.words import commutator

    key = (1, 3, 1, 2)
    a, b = x(3, 1), x(3, 2)
    # [[a, b], [a^2, b]] lies in F'' and is not trivial
    u, v = commutator(a, b), commutator(a**2, b)
    extra = commutator(u, v)
    assert len(extra) == 16 and extra.exponent_sums() == {}
    spec = pure_braid(4)
    words = build_presentation(spec)
    tamper_pairs(monkeypatch, words[key], ((u, v),))
    # the Laurent chain map sees words through F/F'' only, so it passes,
    # while the pairs no longer multiply back to the word
    assert verify_chain_map(spec.ranks, words).ok
    assert not_reassembled(spec.ranks, words) == [key]


def test_presentation_is_the_table_of_relation_words(monkeypatch):
    # a plain dict from each moved key to w = x(j,q)^-1 phi(x(j,q)), in the
    # order of the spec's image table
    specs = specs_under_test() + [parse_spec(INCONSISTENT)]
    specs += [
        load_spec(str(GOLDEN_SPECS / ("longword-%s.spec" % name)))
        for name in ("1-3", "2-2")
    ]
    for spec in specs:
        words = build_presentation(spec)
        assert type(words) is dict, spec
        expect = {
            (i, j, p, q): x(j, q, -1) * image
            for (i, j, p, q), image in spec.images.items()
        }
        assert list(words.items()) == list(expect.items()), spec
    assert len(specs) == len(specs_under_test()) + 3
    # five moved relations and one unmoved: tampering the pairs of one of
    # each, the oracle names exactly those two keys, in relation order
    spec = pure_braid_mod_center(4)
    words = build_presentation(spec)
    (unmoved,) = [k for k in relation_keys(spec.ranks) if k not in words]
    moved = list(words)[-1]
    assert len(words) == 5 and moved > unmoved
    tamper_pairs(monkeypatch, words[moved], ((x(1, 1), x(2, 1)),))
    tamper_pairs(monkeypatch, Word(), ((x(1, 1), x(2, 2)),))
    assert failing_keys(spec.ranks, words) == [unmoved, moved]


def _one_relation(pairs):
    # x(2,1) x(1,1) = x(1,1) x(2,1) w, w the product of the given pairs, in
    # ranks (1, 2)
    return {(1, 2, 1, 1): reassemble(pairs)}


def test_h2_matrix_rejects_entries_outside_the_blocks():
    # [x(1,1), x(2,2)] puts a mixed entry into a column of another row
    table = _one_relation(((x(1, 1), x(2, 2)),))
    with pytest.raises(ValueError) as info:
        h2_matrix((1, 2), table)
    assert str((1, 2, 1, 1)) in str(info.value)
    assert str(((1, 1), (2, 2))) in str(info.value)
    # verify prints the same row and column as its matrix-rank witness
    assert isinstance(info.value, RowStructureError)
    assert (info.value.row, info.value.col) == ((1, 2, 1, 1), ((1, 1), (2, 2)))


def test_h2_matrix_rejects_a_row_without_its_unit():
    # [x(1,1), x(2,1)] adds 1 to the row's own mixed entry
    table = _one_relation(((x(1, 1), x(2, 1)),))
    with pytest.raises(ValueError, match="lacks its unit mixed entry"):
        h2_matrix((1, 2), table)
    # a pair inside block 2 is allowed
    table = _one_relation(((x(2, 1), x(2, 2)),))
    m = h2_matrix((1, 2), table)
    assert m.rows[(1, 2, 1, 1)] == {((1, 1), (2, 1)): 1, ((2, 1), (2, 2)): 1}


def test_kernel_basis_two_strand_oracle():
    spec = pure_braid(3)
    m = h2_matrix(spec.ranks, spec.images)
    assert kernel_basis(m) == {
        ((2, 1), (2, 2)): {
            ((2, 1), (2, 2)): 1,
            ((1, 1), (2, 1)): 1,
            ((1, 1), (2, 2)): -1,
        }
    }


def test_kernel_count_is_sum_of_block_pair_counts():
    for spec in (pure_braid(5), upper_mccool(5), partial_pure_braid(3, 2)):
        m = h2_matrix(spec.ranks, spec.images)
        expect = sum(n * (n - 1) // 2 for n in spec.ranks)
        assert len(kernel_basis(m)) == expect


def test_kernel_keys_are_the_same_block_pairs_in_block_order():
    for spec in specs_under_test():
        etas = kernel_basis(h2_matrix(spec.ranks, spec.images))
        assert list(etas) == [
            ((j, p), (j, q))
            for j, n in enumerate(spec.ranks, start=1)
            for p, q in combinations(range(1, n + 1), 2)
        ], spec.name


def test_kernel_elements_annihilate_the_matrix():
    # each eta is a column vector in the pair basis; the matrix sends it to 0
    rng = random.Random(13)
    specs = [pure_braid(4), upper_mccool(5), partial_pure_braid(2, 3)]
    specs += [random_spec(rng) for _ in range(10)]
    for spec in specs:
        m = h2_matrix(spec.ranks, spec.images)
        cols = sorted_generator_pairs(m.ranks)
        # every row, the implied unit rows of the unmoved relations too
        rows = dense(m)
        for lead, eta in kernel_basis(m).items():
            assert eta[lead] == 1
            column = [eta.get(pair, 0) for pair in cols]
            for key, row in zip(relation_keys(spec.ranks), rows, strict=True):
                total = sum(a * c for a, c in zip(row, column))
                assert total == 0, (spec.name, key, lead)


def test_kernel_mixed_terms_only_pair_into_the_same_block():
    # the tail terms live on pairs (e(i,r), e(j,s)) with the eta's own block j
    for spec in (pure_braid(5), upper_mccool(5)):
        m = h2_matrix(spec.ranks, spec.images)
        for lead, eta in kernel_basis(m).items():
            j = lead[0][0]
            for (i, r), (b, s) in eta.keys() - {lead}:
                assert b == j and i < j
                assert 1 <= r <= spec.ranks[i - 1]
                assert 1 <= s <= spec.ranks[j - 1]
