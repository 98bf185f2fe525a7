import random

import pytest

from almostdirect.adp import (
    BUILTINS,
    IMAGES,
    MAGNUS,
    ActionError,
    AdpSpec,
    build_presentation,
    extend_with_torus,
    generators,
    partial_pure_braid,
    pure_braid,
    pure_braid_mod_center,
    relation_keys,
    upper_mccool,
    upper_mccool_mod_center,
)
from almostdirect.cli import format_spec
from almostdirect.cli import main as cli_main
from almostdirect.fox import abel_gradient
from almostdirect.homology import delta2, verify_chain_map
from almostdirect.words import IAWord, Word, beta, commutator, commutator_decompose, x
from oracles import action_image, random_spec
from test_acceptance import all_builtins_through_five_blocks, specs_under_test
from test_words import reference_apply


def test_spec_validation():
    with pytest.raises(ValueError):
        AdpSpec(())
    with pytest.raises(ValueError):
        AdpSpec((1, 0))
    with pytest.raises(ValueError):
        AdpSpec((1, 2), {(2, 1, 1): (MAGNUS, IAWord(1))})
    with pytest.raises(ValueError):
        AdpSpec((1, 2), {(1, 2, 2): (MAGNUS, IAWord(2))})
    # IA word rank must match the acted-on block
    with pytest.raises(ValueError):
        AdpSpec((1, 3), {(1, 2, 1): (MAGNUS, IAWord(2, ((beta(1, 2), 1),)))})


def test_images_validation():
    # image must stay in its block and abelianize to its generator
    with pytest.raises(ValueError):
        AdpSpec((1, 2), {(1, 2, 1): (IMAGES, {1: x(1, 1)})})
    with pytest.raises(ValueError):
        AdpSpec((1, 2), {(1, 2, 1): (IMAGES, {1: x(2, 2), 2: x(2, 1)})})


def test_images_index_outside_the_block_names_the_key():
    # the library check reads like the spec file parser's
    for q in (0, 3):
        with pytest.raises(ActionError) as info:
            AdpSpec((1, 1, 2), {(2, 3, 1): (IMAGES, {q: x(3, 1)})})
        assert info.value.key == (2, 3, 1)
        assert str(info.value) == "image index %d exceeds rank 2 of block 3" % q


def test_images_equal_to_their_generator_are_dropped():
    conj = x(2, 2, -1) * x(2, 1) * x(2, 2)
    spec = AdpSpec(
        (1, 2, 2),
        {
            (1, 3, 1): (IMAGES, {1: x(3, 1), 2: x(3, 2)}),
            (2, 3, 1): (IMAGES, {2: x(3, 2)}),
            (1, 2, 1): (IMAGES, {2: x(2, 2), 1: conj}),
        },
    )
    # only the moved image is kept; the two all-fixed actions are gone
    assert spec.actions == {(1, 2, 1): (IMAGES, {1: conj})}
    assert spec.images == {(1, 2, 1, 1): conj}
    assert spec == AdpSpec((1, 2, 2), {(1, 2, 1): (IMAGES, {1: conj})})


def test_images_payload_must_be_a_map():
    for payload in ((x(2, 1), x(2, 2)), [x(2, 1)]):
        with pytest.raises(ActionError) as info:
            AdpSpec((1, 2), {(1, 2, 1): (IMAGES, payload)})
        assert info.value.key == (1, 2, 1)


def test_malformed_actions_raise_action_error_naming_the_key():
    conj = IAWord.parse(2, "B(1,2)")
    cases = [
        ((1, 2, 1), ("magnus", "B(1,2)"), "a magnus action needs an IAWord"),
        ((1, 2, 1), ("images", {1: "x(2,1)"}), "image of x(2,1) is not a Word"),
        ((1, 2, 1), ("images", {"1": x(2, 1)}), "images must map each index"),
        ((1, 2, 1), conj, "an action is a pair (kind, payload)"),
        ((1, 2), (MAGNUS, conj), "action key must be a triple (i, j, p)"),
        ("121", (MAGNUS, conj), "action key must be a triple (i, j, p)"),
        ((1, 2, "1"), (MAGNUS, conj), "action key must be a triple (i, j, p)"),
        ((1, 2, 1), ("wat", {1: x(2, 1)}), "unknown action kind 'wat'"),
    ]
    for key, action, message in cases:
        with pytest.raises(ActionError) as info:
            AdpSpec((2, 2), {key: action})
        assert info.value.key == key
        assert str(info.value).startswith(message), (key, action)


def test_images_checks_report_the_first_failing_image():
    # images are checked in index order, whatever the order of the map;
    # within one image, leaving the block is reported before a wrong
    # exponent sum
    not_ia = x(2, 1, 2)
    leaves = x(1, 1) * x(2, 2) * x(1, 1, -1)
    cases = [
        ((not_ia, leaves), "image of x(2,1) is not IA: x(2,1)^2"),
        ((leaves, not_ia), "image of x(2,1) leaves block 2: %s" % leaves),
        ((x(2, 1), x(1, 1) * x(2, 2)), "image of x(2,2) leaves block 2"),
        ((x(2, 1), x(2, 3)), "image of x(2,2) leaves block 2: x(2,3)"),
        ((x(2, 1), x(2, 2) * x(2, 1)), "image of x(2,2) is not IA"),
    ]
    for images, message in cases:
        reversed_map = {2: images[1], 1: images[0]}
        with pytest.raises(ActionError) as info:
            AdpSpec((1, 2), {(1, 2, 1): (IMAGES, reversed_map)})
        assert str(info.value).startswith(message)
        assert info.value.key == (1, 2, 1)


def test_trivial_actions_are_dropped():
    spec = AdpSpec(
        (1, 2),
        {
            (1, 2, 1): (MAGNUS, IAWord(2)),
        },
    )
    assert spec.actions == {}
    identity_images = AdpSpec((1, 2), {(1, 2, 1): (IMAGES, {1: x(2, 1), 2: x(2, 2)})})
    assert identity_images.actions == {}


def test_identity_words_are_dropped_from_actions_and_the_file():
    # tau_1 = 0 for both words, so the images decide: nothing moves
    cases = [
        ((1, 2), IAWord.parse(2, "B(1,2) B(1,2)^-1")),
        ((1, 4), IAWord.parse(4, "B(1,2) B(3,4) B(1,2)^-1 B(3,4)^-1")),
    ]
    for ranks, ia in cases:
        assert ia.johnson(2) == {}
        assert all(w == x(2, q) for q, w in enumerate(ia.images(2), start=1))
        spec = AdpSpec(ranks, {(1, 2, 1): (MAGNUS, ia)})
        assert spec.actions == {} and spec == AdpSpec(ranks)
        assert format_spec(spec) == format_spec(AdpSpec(ranks))
        assert "action" not in format_spec(spec)


def test_an_action_with_zero_tau_1_that_moves_is_kept(tmp_path, capsys):
    ia = IAWord.parse(3, "B(1,2) B(1,3) B(1,2)^-1 B(1,3)^-1")
    # its first image is x(2,1) conjugated by a commutator: not the identity
    images = dict(enumerate(ia.images(2), start=1))
    assert images[1] != x(2, 1) and images[1].exponent_sums() == {(2, 1): 1}
    assert images[2] == x(2, 2) and images[3] == x(2, 3)
    assert ia.johnson(2) == {}
    spec = AdpSpec((1, 3), {(1, 2, 1): (MAGNUS, ia)})
    assert spec.actions == {(1, 2, 1): (MAGNUS, ia)}
    assert not spec.acts_trivially_beyond(1)
    assert format_spec(spec).splitlines()[-1] == "action 2 1 1 = %s" % ia
    twin = AdpSpec((1, 3), {(1, 2, 1): (IMAGES, {1: images[1]})})
    assert spec == twin and twin == spec and hash(spec) == hash(twin)
    # the rank-1 block acts, so tc counts no torus block, as on the twin
    outputs = []
    for k, sp in enumerate((spec, twin)):
        path = tmp_path / ("%d.spec" % k)
        path.write_text(format_spec(sp))
        assert cli_main(["tc", str(path), "--porcelain"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "tc-torus-blocks 0" in outputs[0].splitlines()


def test_spec_equality_ignores_name():
    a = AdpSpec((1, 2), name="a")
    b = AdpSpec((1, 2), name="b")
    assert a == b
    # magnus and images forms of the same action compare equal
    conj = IAWord(2, ((beta(1, 2), 1),))
    m = AdpSpec((1, 2), {(1, 2, 1): (MAGNUS, conj)})
    im = AdpSpec(
        (1, 2),
        {(1, 2, 1): (IMAGES, {1: x(2, 2, -1) * x(2, 1) * x(2, 2), 2: x(2, 2)})},
    )
    assert m == im
    # the ranks decide first, and the name shows only in the repr
    assert AdpSpec((1, 2)) != AdpSpec((2, 1))
    assert repr(a) == "<AdpSpec a ranks=[1, 2] actions=0>"
    assert repr(AdpSpec((1, 2))) == "<AdpSpec adp ranks=[1, 2] actions=0>"
    assert repr(pure_braid(4)) == "<AdpSpec purebraid 4 ranks=[1, 2, 3] actions=4>"


def test_action_image_defaults_to_identity():
    spec = AdpSpec((1, 2))
    assert action_image(spec, 1, 2, 1, 1) == x(2, 1)
    assert spec.acts_trivially_beyond(1)


def test_generators_order():
    spec = AdpSpec((2, 1))
    assert generators(spec.ranks) == [(1, 1), (1, 2), (2, 1)]


def test_pure_braid_smallest_relations():
    # two-strand subgroups commute with the first strand pair exactly as in
    # the standard positive braid presentation
    words = build_presentation(pure_braid(3))
    assert list(words) == relation_keys((1, 2)) == [(1, 2, 1, 1), (1, 2, 1, 2)]
    assert words[(1, 2, 1, 1)] == commutator(x(2, 2), x(2, 1))
    assert words[(1, 2, 1, 2)] == commutator(x(2, 2, -1), x(2, 1))


def test_pure_braid_ranks():
    assert pure_braid(5).ranks == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        pure_braid(1)


def test_partial_pure_braid_matches_full_braid_at_one_puncture():
    assert partial_pure_braid(2, 1) == pure_braid(3)
    assert partial_pure_braid(3, 1) == pure_braid(4)
    assert partial_pure_braid(2, 3).ranks == (3, 4)


def test_upper_mccool_relations():
    # x(j,q) x(i,p) = x(i,p) x(j,q) [x(j,q)^-1, x(j,p)] when q = i + 1,
    # and the generators commute otherwise
    n = 4
    words = build_presentation(upper_mccool(n))
    keys = relation_keys(upper_mccool(n).ranks)
    assert len(keys) == 11
    # only the moved relations are stored
    assert list(words) == [k for k in keys if k[3] == k[0] + 1]
    for i, j, p, q in keys:
        word = words.get((i, j, p, q), Word())
        if q == i + 1:
            assert word == commutator(x(j, q, -1), x(j, p))
        else:
            assert not word


def test_mod_center_ranks():
    assert pure_braid_mod_center(3).ranks == (2,)
    assert pure_braid_mod_center(5).ranks == (2, 3, 4)
    assert upper_mccool_mod_center(4).ranks == (2, 3)
    with pytest.raises(ValueError):
        pure_braid_mod_center(2)
    with pytest.raises(ValueError):
        upper_mccool_mod_center(2)


def drop_first_block(spec):
    # the central quotient as the spec of the full group with its rank-1
    # first block removed and every later block index shifted down by one
    def shift_down(w):
        return Word(tuple(((b - 1, q), e) for (b, q), e in w.letters))

    actions = {}
    for i, j, p in spec.actions:
        if i > 1:
            images = {
                q: shift_down(action_image(spec, i, j, p, q))
                for q in range(1, spec.ranks[j - 1] + 1)
            }
            actions[(i - 1, j - 1, p)] = (IMAGES, images)
    return AdpSpec(spec.ranks[1:], actions)


def test_central_quotients_drop_the_first_block():
    for n in range(3, 13):
        assert pure_braid_mod_center(n) == drop_first_block(pure_braid(n))
        assert upper_mccool_mod_center(n) == drop_first_block(upper_mccool(n))


def test_mod_center_keeps_the_action():
    # dropping the central rank-1 block shifts every block index down one
    full = build_presentation(pure_braid(4))
    bar = build_presentation(pure_braid_mod_center(4))
    def shift_down(w):
        return Word(tuple(((b - 1, q), e) for (b, q), e in w.letters))
    for i, j, p, q in relation_keys(pure_braid(4).ranks):
        if i == 1:
            continue
        word = full.get((i, j, p, q), Word())
        assert bar.get((i - 1, j - 1, p, q), Word()) == shift_down(word)


def test_extend_with_torus():
    base = pure_braid_mod_center(4)
    ext = extend_with_torus(base, 2)
    assert ext.ranks == base.ranks + (1, 1)
    assert ext.actions == base.actions
    assert ext.name == "purebraidbar 4 x Z^2"
    assert extend_with_torus(base, 0) == base


def test_extend_with_torus_equals_the_spec_built_from_its_actions():
    # the checked actions are copied, not checked again
    for spec in specs_under_test():
        for m in (1, 2):
            ext = extend_with_torus(spec, m)
            built = AdpSpec(spec.ranks + (1,) * m, spec.actions)
            assert ext == built
            assert hash(ext) == hash(built)
            assert ext.actions == built.actions
            # the same table, in the same relation order
            assert list(ext.images.items()) == list(built.images.items())


def test_builtin_registry():
    assert set(BUILTINS) == {
        "purebraid",
        "partialpurebraid",
        "uppermccool",
        "purebraidbar",
        "uppermccoolbar",
    }


def test_random_spec_is_deterministic_under_seed():
    a = random_spec(random.Random(5))
    b = random_spec(random.Random(5))
    assert a == b


def test_random_spec_respects_bounds():
    rng = random.Random(11)
    for _ in range(40):
        spec = random_spec(rng, max_blocks=4, min_rank=1, max_rank=3, max_factors=4)
        assert 1 <= len(spec.ranks) <= 4
        assert all(1 <= n <= 3 for n in spec.ranks)
        for kind, payload in spec.actions.values():
            assert kind == MAGNUS
            assert len(payload.factors) <= 4


def test_random_spec_defines_consistent_products():
    # the generator draws powers of one automorphism per block, which is
    # exactly what makes the iterated action well defined; the chain-map
    # identity then holds relation by relation
    rng = random.Random(23)
    for _ in range(10):
        spec = random_spec(rng)
        assert verify_chain_map(spec.ranks, build_presentation(spec)).ok


def test_relation_words_live_in_the_later_block():
    rng = random.Random(3)
    for _ in range(10):
        spec = random_spec(rng)
        for (i, j, p, q), word in build_presentation(spec).items():
            assert word and word.single_block() == j
            assert word.exponent_sums() == {}


def test_relator_vanishes_under_defining_equation():
    # the relator of delta2 is the left side times the inverted right side,
    # so it freely reduces to 1 when the relation word is substituted back
    words = build_presentation(pure_braid(3))
    for key in relation_keys((1, 2)):
        i, j, p, q = key
        word = words.get(key, Word())
        lhs = x(j, q) * x(i, p)
        rhs = x(i, p) * x(j, q) * word
        assert delta2(key, word) == abel_gradient(lhs * ~rhs)


def builtin_specs():
    specs = [pure_braid(l) for l in range(2, 6)]
    specs += [partial_pure_braid(l, k) for l in (1, 2, 3) for k in (1, 2)]
    specs += [upper_mccool(n) for n in range(2, 6)]
    specs += [pure_braid_mod_center(l) for l in range(3, 6)]
    specs += [upper_mccool_mod_center(n) for n in range(3, 6)]
    specs.append(extend_with_torus(pure_braid_mod_center(4), 1))
    return specs


def random_specs(count=50):
    rng = random.Random(20260815)
    return [random_spec(rng) for _ in range(count)]


def all_keys(spec):
    l = len(spec.ranks)
    for j in range(2, l + 1):
        for i in range(1, j):
            for p in range(1, spec.ranks[i - 1] + 1):
                for q in range(1, spec.ranks[j - 1] + 1):
                    yield i, j, p, q


def test_action_image_reads_the_actions():
    # the stored table agrees with the action as given: the IA word applied
    # to the generator, the listed image, or the generator itself
    for spec in builtin_specs() + random_specs():
        for i, j, p, q in all_keys(spec):
            kind, payload = spec.actions.get((i, j, p), (None, None))
            if kind == MAGNUS:
                expect = reference_apply(payload, x(j, q))
            elif kind == IMAGES:
                expect = payload.get(q, x(j, q))
            else:
                expect = x(j, q)
            assert action_image(spec, i, j, p, q) == expect


def test_magnus_and_images_encodings_compare_and_hash_equal():
    for spec in random_specs():
        images = {
            (i, j, p): (
                IMAGES,
                {
                    q: action_image(spec, i, j, p, q)
                    for q in range(1, spec.ranks[j - 1] + 1)
                },
            )
            for i, j, p in spec.actions
        }
        twin = AdpSpec(spec.ranks, images)
        assert twin == spec
        assert hash(twin) == hash(spec)


def test_magnus_spec_applies_each_action_once_per_generator(count_calls):
    calls = count_calls(IAWord, "images")
    applied = count_calls(IAWord, "apply")
    conj = IAWord(3, ((beta(1, 2), 1), (beta(3, 1), -1)))
    trivial = IAWord(3, ((beta(1, 2), 1), (beta(1, 2), -1)))
    actions = {
        (1, 3, 1): (MAGNUS, conj),
        (2, 3, 1): (MAGNUS, conj.inverse()),
        (2, 3, 2): (MAGNUS, trivial),
    }
    spec = AdpSpec((1, 2, 3), actions)
    twin = AdpSpec((1, 2, 3), actions)
    # the trivial action has tau_1 = 0, so each spec expands it once and
    # drops it; tau_1 proves that the other two move, so they stay words
    assert calls == [(trivial, 3)] * 2
    assert applied == []
    assert set(spec.actions) == {(1, 3, 1), (2, 3, 1)}
    del calls[:]
    # equal actions compare equal without a table
    assert spec == twin
    assert calls == []
    # the first read of the table expands each kept action once, and no
    # generator is applied on its own
    for word in build_presentation(spec).values():
        commutator_decompose(word)
    for key in all_keys(spec):
        action_image(spec, *key)
    assert len(calls) == 2 and applied == []
    # hash reads the action keys, so it expands nothing
    assert hash(spec) == hash(twin)
    assert len(calls) == 2
    assert spec == twin and hash(spec) == hash(twin)
    assert len(calls) == 2


def conjugate(a, w):
    return a * w * ~a


def braid_block_oracle(ranks, shift):
    # the band generator images built by Word conjugation, as the builtins
    # did before they wrote each image as one reduced letter tuple
    actions = {}
    l = len(ranks)
    for a in range(1, l + 1):
        s = a + shift + 1
        for b in range(a + 1, l + 1):
            for p in range(1, ranks[a - 1] + 1):
                images = {}
                for q in range(1, ranks[b - 1] + 1):
                    if q == p:
                        conj = x(b, p) * x(b, s)
                        images[q] = conjugate(conj, x(b, q))
                    elif p < q < s:
                        conj = x(b, p) * x(b, s) * ~x(b, p) * ~x(b, s)
                        images[q] = conjugate(conj, x(b, q))
                    elif q == s:
                        images[q] = conjugate(x(b, p), x(b, q))
                    else:
                        images[q] = x(b, q)
                actions[(a, b, p)] = (IMAGES, images)
    return AdpSpec(ranks, actions)


def mccool_oracle(ranks, shift):
    actions = {}
    l = len(ranks)
    for a in range(1, l + 1):
        s = a + shift + 1
        for b in range(a + 1, l + 1):
            for p in range(1, ranks[a - 1] + 1):
                images = {
                    q: conjugate(x(b, p), x(b, q)) if q == s else x(b, q)
                    for q in range(1, ranks[b - 1] + 1)
                }
                actions[(a, b, p)] = (IMAGES, images)
    return AdpSpec(ranks, actions)


def test_builtin_images_equal_word_conjugation():
    pairs = [
        (pure_braid(l), braid_block_oracle(tuple(range(1, l)), 0))
        for l in range(2, 13)
    ]
    pairs += [
        (partial_pure_braid(l, k), braid_block_oracle(tuple(range(k, k + l)), k - 1))
        for l in range(1, 5)
        for k in range(1, 5)
    ]
    pairs += [
        (pure_braid_mod_center(l), braid_block_oracle(tuple(range(2, l)), 1))
        for l in range(3, 13)
    ]
    pairs += [
        (upper_mccool(n), mccool_oracle(tuple(range(1, n)), 0))
        for n in range(2, 11)
    ]
    pairs += [
        (upper_mccool_mod_center(n), mccool_oracle(tuple(range(2, n)), 1))
        for n in range(3, 11)
    ]
    for spec, oracle in pairs:
        assert spec == oracle, spec.name
        for key in all_keys(spec):
            letters = action_image(spec, *key).letters
            assert letters == action_image(oracle, *key).letters
            assert Word(letters).letters == letters  # freely reduced


def letter_tuples(spec):
    # the letter tuples of the image table, counted by identity, and the
    # number of its letters
    letters = [letter for word in spec.images.values() for letter in word.letters]
    return len(set(map(id, letters))), len(letters)


def test_builtin_tables_hold_one_tuple_per_letter():
    # every image is joined from the 2 n_b letters of its block, made once
    for spec in all_builtins_through_five_blocks() + [pure_braid(10)]:
        assert letter_tuples(spec)[0] <= 2 * sum(spec.ranks), spec.name
    # blocks 2..9 of purebraid 10 have 88 letters
    assert letter_tuples(pure_braid(10)) == (88, 2850)


def test_presentation_words_equal_full_reduction():
    from test_acceptance import all_builtins_through_five_blocks, specs_under_test
    from test_cli import INCONSISTENT

    from almostdirect.cli import parse_spec

    rng = random.Random(3)
    specs = specs_under_test() + [parse_spec(INCONSISTENT)]
    specs += [random_spec(rng, max_factors=8) for _ in range(200)]
    for spec in specs:
        words = build_presentation(spec)
        assert relation_keys(spec.ranks) == list(all_keys(spec))
        for i, j, p, q in all_keys(spec):
            image = action_image(spec, i, j, p, q)
            # one full free reduction of x(j,q)^-1 followed by the image
            expect = Word((((j, q), -1),) + image.letters)
            assert words.get((i, j, p, q), Word()).letters == expect.letters


def test_fixed_generators_take_no_word_product(count_calls):
    spec = upper_mccool(10)
    calls = count_calls(Word, "__mul__")
    words = build_presentation(spec)
    # 870 relations, of which 120 have a moved image: one product each
    assert (len(relation_keys(spec.ranks)), len(words)) == (870, 120)
    assert all(words.values())
    assert len(calls) <= 120


def relation_order(key):
    return (key[1], key[0]) + key[2:]


def test_presentation_keys_come_in_relation_order():
    # the spec keeps its actions and its relation table in (j, i, p, q)
    # order, whatever order the actions come in, and build_presentation
    # makes the relations in that order; every builtin through eight
    # strands, and each of them with its actions given in reverse
    from test_acceptance import all_builtins_through_five_blocks, specs_under_test

    specs = specs_under_test()
    for n in range(2, 9):
        specs += [pure_braid(n), upper_mccool(n)]
        specs += [partial_pure_braid(l, n - l) for l in range(1, n)]
        if n >= 3:
            specs += [pure_braid_mod_center(n), upper_mccool_mod_center(n)]
    specs += [
        AdpSpec(spec.ranks, dict(reversed(list(spec.actions.items()))))
        for spec in specs
    ]
    for spec in specs:
        keys = relation_keys(spec.ranks)
        assert keys == sorted(keys, key=relation_order)
        assert len(keys) == len(set(all_keys(spec)))
        assert list(spec.actions) == sorted(spec.actions, key=relation_order)
        assert list(spec.images) == sorted(spec.images, key=relation_order)
        assert list(build_presentation(spec)) == list(spec.images)
