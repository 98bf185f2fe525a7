"""Almost-direct products of free groups and their commutator presentations.

An :class:`AdpSpec` records an iterated semidirect product of free groups
``F(n_1) x| F(n_2) x| ... x| F(n_l)`` in which every block acts on every
later block by automorphisms that fix the abelianization.  The action of the
generator ``x(i,p)`` on block ``j > i`` is stored either as an ``IAWord``
(automorphism written in the basic IA generators) or as a map from the
generators it moves to their image words; missing entries mean the trivial
action.

:func:`build_presentation` turns a spec into the finite presentation with
generators ``x(i,p)`` and one relation

    x(j,q) x(i,p) = x(i,p) x(j,q) w

per pair of generators in distinct blocks, where ``w`` is a product of
commutators of words in block ``j``: a table from the key ``(i, j, p, q)``
of each moved relation to its word ``w``.  Builtin specs cover the pure
braid groups, their partial versions on a subset of strands, the upper
triangular McCool groups, and the quotients of these by their centers.
"""

from __future__ import annotations

from .words import IAWord, Word, _word, x

__all__ = [
    "ActionError",
    "AdpSpec",
    "generators",
    "relation_keys",
    "build_presentation",
    "pure_braid",
    "partial_pure_braid",
    "upper_mccool",
    "pure_braid_mod_center",
    "upper_mccool_mod_center",
    "extend_with_torus",
    "BUILTINS",
]

MAGNUS = "magnus"
IMAGES = "images"


def generators(ranks):
    """The generators ``(block, index)`` of the given ranks, block first."""
    return [(i, p) for i, n in enumerate(ranks, start=1) for p in range(1, n + 1)]


class ActionError(ValueError):
    """An invalid action of an :class:`AdpSpec`, at action key ``key``."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


class AdpSpec:
    """Ranks plus the IA actions of earlier blocks on later blocks.

    ``actions`` maps ``(i, j, p)`` with ``i < j`` to either
    ``("magnus", IAWord)`` or ``("images", {q: w_q})`` where ``w_q`` is the
    image of ``x(j,q)``; a generator the map omits stays fixed.  An invalid
    action raises :class:`ActionError`, naming its key.  Images equal to
    their own generator are dropped, and so are actions that move nothing,
    so specs compare equal iff they define the same product.  A magnus
    action stays an IA word: a nonzero Johnson homomorphism ``tau_1``
    (Johnson, Math. Ann. 249, 1980), read by
    :meth:`~almostdirect.words.IAWord.johnson`, proves that it moves a
    generator, and only a word with ``tau_1 = 0`` is expanded to decide.
    ``actions`` comes in relation order (see :func:`relation_keys`).
    ``tau1`` keeps the ``tau_1`` the check computes, keyed ``(i, j, p)``
    like ``actions``, for every magnus action: the classes ``{q: {(a, b):
    c}}`` of :meth:`~almostdirect.words.IAWord.johnson`.  Nothing computes
    ``tau_1`` of a spec's action again.

    ``images`` is the spec's relation table, built on first access: the
    image of ``x(j,q)`` under ``x(i,p)``, keyed ``(i, j, p, q)``, for every
    generator the action moves, in relation order.  A magnus action
    expands with :meth:`~almostdirect.words.IAWord.images`.
    :func:`build_presentation` and the images form of ``format_spec`` read
    it; ``==`` compares only the actions that differ, by ``tau1`` when both
    are IA words and then by the images they move; the ring reads
    :meth:`h2_entries`, and ``hash`` the keys of ``actions``.
    """

    __slots__ = ("ranks", "actions", "tau1", "name", "_images")

    def __init__(self, ranks, actions=None, name=""):
        ranks = tuple(int(n) for n in ranks)
        if not ranks or any(n < 1 for n in ranks):
            raise ValueError("ranks must be a nonempty tuple of positive ints")
        self.ranks = ranks
        self.name = name
        self._images = None
        self.tau1 = {}
        checked = {}  # in the order given, so the first invalid one raises
        for key, action in (actions or {}).items():
            try:
                self._check_key(key)
                action = self._checked(key, action)
            except ValueError as err:
                raise ActionError(key, str(err)) from None
            if action is not None:
                checked[key] = action
        self.actions = {
            key: checked[key]
            for key in sorted(checked, key=lambda k: (k[1], k[0], k[2]))
        }

    def _check_key(self, key):
        if not (
            isinstance(key, tuple)
            and len(key) == 3
            and all(isinstance(k, int) for k in key)
        ):
            raise ValueError("action key must be a triple (i, j, p): %r" % (key,))
        i, j, p = key
        l = len(self.ranks)
        if not (1 <= i < j <= l):
            raise ValueError("action blocks must satisfy 1 <= i < j <= %d" % l)
        if not (1 <= p <= self.ranks[i - 1]):
            raise ValueError(
                "acting index %d exceeds rank %d of block %d"
                % (p, self.ranks[i - 1], i)
            )

    def _checked(self, key, action):
        # the action in canonical form, or None when it moves nothing; a
        # kept magnus action leaves its tau_1 in ``self.tau1``
        j = key[1]
        if not (isinstance(action, (tuple, list)) and len(action) == 2):
            raise ValueError("an action is a pair (kind, payload): %r" % (action,))
        kind, payload = action
        n = self.ranks[j - 1]
        if kind == MAGNUS:
            if not isinstance(payload, IAWord):
                raise ValueError("a magnus action needs an IAWord: %r" % (payload,))
            if payload.rank != n:
                raise ValueError(
                    "IA word has rank %d but block %d has rank %d"
                    % (payload.rank, j, n)
                )
            action = (MAGNUS, payload)
            tau = payload.johnson(j)
            if not (tau or _moved(j, action)):
                return None
            self.tau1[key] = tau
            return action
        if kind != IMAGES:
            raise ValueError("unknown action kind %r" % (kind,))
        if not (
            isinstance(payload, dict) and all(isinstance(q, int) for q in payload)
        ):
            raise ValueError("images must map each index q to a word")
        moved = {}
        for q, w in sorted(payload.items()):
            if not (1 <= q <= n):
                raise ValueError(
                    "image index %d exceeds rank %d of block %d" % (q, n, j)
                )
            if not isinstance(w, Word):
                raise ValueError("image of x(%d,%d) is not a Word: %r" % (j, q, w))
            if w.letters == (((j, q), 1),):
                continue  # a fixed generator
            # one scan: block membership, then the exponent sum of each
            # index, which must be 1 at q and 0 elsewhere
            sums = [0] * (n + 1)
            for (b, index), e in w.letters:
                if b != j or not (1 <= index <= n):
                    raise ValueError(
                        "image of x(%d,%d) leaves block %d: %s" % (j, q, j, w)
                    )
                sums[index] += e
            sums[q] -= 1
            if any(sums):
                raise ValueError("image of x(%d,%d) is not IA: %s" % (j, q, w))
            moved[q] = w
        return (IMAGES, moved) if moved else None

    @property
    def images(self):
        if self._images is None:
            self._images = {
                (i, j, p, q): w
                for (i, j, p), action in self.actions.items()
                for q, w in _moved(j, action).items()
            }
        return self._images

    def h2_entries(self):
        """The H2 table of the ring, keyed and ordered as :attr:`images`:
        the moved images of an images action, and the classes ``tau_1``
        that ``tau1`` keeps of a magnus action, so no IA word expands."""
        return {
            (i, j, p, q): entry
            for (i, j, p), (kind, payload) in self.actions.items()
            for q, entry in (payload if kind == IMAGES else self.tau1[i, j, p]).items()
        }

    @property
    def has_uncertified_images(self):
        """True when some action is given by raw images.

        Image maps are only checked to fix the abelianization; nothing
        certifies that they define an invertible endomorphism.
        """
        return any(kind == IMAGES for kind, _ in self.actions.values())

    def acts_trivially_beyond(self, i):
        """True when block ``i`` acts trivially on every later block."""
        return not any(key[0] == i for key in self.actions)

    def __eq__(self, other):
        # both encodings keep exactly the actions that move something, so
        # equal specs have equal keys; tau_1 is a homomorphism, so magnus
        # words with different tau_1 differ
        if not (isinstance(other, AdpSpec) and self.ranks == other.ranks):
            return False
        if self.actions == other.actions:
            return True
        if self.actions.keys() != other.actions.keys():
            return False
        for key, a in self.actions.items():
            b, j = other.actions[key], key[1]
            if a == b:
                continue
            if a[0] == b[0] == MAGNUS and self.tau1[key] != other.tau1[key]:
                return False
            if _moved(j, a) != _moved(j, b):
                return False
        return True

    def __hash__(self):
        # both encodings drop exactly the actions that move nothing
        return hash((self.ranks, frozenset(self.actions)))

    def __repr__(self):
        label = self.name or "adp"
        return "<AdpSpec %s ranks=%s actions=%d>" % (
            label,
            list(self.ranks),
            len(self.actions),
        )


def relation_keys(ranks):
    """Every relation key ``(i, j, p, q)`` of the given ranks, in relation
    order: the block pairs ``(i, j)`` sorted by ``(j, i)``, then ``(p, q)``
    lexicographically."""
    return [
        (i, j, p, q)
        for j in range(2, len(ranks) + 1)
        for i in range(1, j)
        for p in range(1, ranks[i - 1] + 1)
        for q in range(1, ranks[j - 1] + 1)
    ]


def build_presentation(spec):
    """The relation words of an almost-direct product, keyed ``(i, j, p, q)``.

    For each acting generator ``x(i,p)`` and each ``x(j,q)`` in a later
    block, ``w = x(j,q)^-1 alpha(x(j,q))`` where ``alpha`` is the action of
    ``x(i,p)`` on block ``j``.  Every ``w`` has vanishing exponent sums,
    because :class:`AdpSpec` admits only IA actions, so it lies in the
    commutator subgroup of block ``j``;
    :func:`~almostdirect.words.commutator_decompose` writes it as a product
    of commutators.  The dict holds one word per entry of the spec's
    relation table ``spec.images``, in its order.  A key of
    :func:`relation_keys` that it lacks is a generator the action fixes:
    its word is empty.  The ring builds no relation word: see
    :func:`~almostdirect.exterior.cohomology_ring`.
    """
    return {key: x(key[1], key[3], -1) * image for key, image in spec.images.items()}


def _moved(j, action):
    # {q: image} for each generator x(j,q) the action moves, by q
    kind, payload = action
    if kind == IMAGES:
        return payload
    return {
        q: w
        for q, w in enumerate(payload.images(j), start=1)
        if w.letters != (((j, q), 1),)
    }


def pure_braid(l):
    """The pure braid group on ``l`` strands as an almost-direct product.

    Block ``i`` is free of rank ``i`` for ``i = 1 .. l-1``; its generator
    ``x(i,p)`` is the band crossing strand ``p`` over strand ``i+1``.  The
    action on later blocks is the restriction of the braid action, written
    as explicit images.
    """
    if l < 2:
        raise ValueError("pure braid needs at least 2 strands")
    return _conjugation_spec(range(1, l), "purebraid %d" % l, band=True)


def partial_pure_braid(l, k):
    """The kernel of forgetting the last ``l`` strands down to ``k``.

    Equivalently the last ``l`` blocks of the pure braid group on ``k + l``
    strands: ranks ``k, k+1, ..., k+l-1``, with block ``a`` here standing
    for braid block ``a + k - 1`` and carrying the same images.
    """
    if l < 1 or k < 1:
        raise ValueError("partial pure braid needs l >= 1 and k >= 1")
    name = "partialpurebraid %d %d" % (l, k)
    return _conjugation_spec(range(k, k + l), name, band=True)


def upper_mccool(n):
    """The upper triangular McCool group on ``n`` strands.

    Block ``j`` is free of rank ``j`` for ``j = 1 .. n-1``; the generator
    ``x(i,p)`` conjugates ``x(j,i+1)`` by ``x(j,p)`` in every later block
    ``j`` and fixes the other generators.
    """
    if n < 2:
        raise ValueError("upper McCool needs n >= 2")
    return _conjugation_spec(range(1, n), "uppermccool %d" % n, band=False)


def pure_braid_mod_center(l):
    """The pure braid group on ``l`` strands modulo its center.

    The center is the full twist generated by the rank-1 first block, so the
    quotient is the spec with that block removed.  Needs ``l >= 3``.
    """
    if l < 3:
        raise ValueError("central quotient needs l >= 3")
    return _conjugation_spec(range(2, l), "purebraidbar %d" % l, band=True)


def upper_mccool_mod_center(n):
    """The upper McCool group on ``n`` strands modulo its center."""
    if n < 3:
        raise ValueError("central quotient needs n >= 3")
    return _conjugation_spec(range(2, n), "uppermccoolbar %d" % n, band=False)


def _conjugation_spec(ranks, name, band):
    # A block a of rank n acts through strand s = n + 1: x(a,p) conjugates
    # x(b,s) by x(b,p) in every later block b, which is the McCool action
    # and the image of x(b,s) under the band crossing strand p over strand
    # s.  The band also moves x(b,p) and each x(b,q), p < q < s.  Each moved
    # image is c x(b,q) c^-1 where c ends in x(b,s)^+-1 and q != s, or
    # c = x(b,p) and q = s > p: no image needs reducing.  The images are
    # joined from the 2 n_b letters of each acted-on block b, made once, so
    # the table holds one tuple per letter.
    l = len(ranks)
    letters = {
        b: (
            [None] + [((b, q), 1) for q in range(1, ranks[b - 1] + 1)],
            [None] + [((b, q), -1) for q in range(1, ranks[b - 1] + 1)],
        )
        for b in range(2, l + 1)
    }
    actions = {}
    for a, n in enumerate(ranks, start=1):
        s = n + 1
        for b in range(a + 1, l + 1):
            up, down = letters[b]
            xs, xs_inv = up[s], down[s]
            for p in range(1, n + 1):
                xp, xp_inv = up[p], down[p]
                images = {s: _word((xp, xs, xp_inv))}
                if band:
                    images[p] = _word((xp, xs, xp, xs_inv, xp_inv))
                    # c = [x(b,p), x(b,s)] and c^-1, shared by every q
                    head = (xp, xs, xp_inv, xs_inv)
                    tail = (xs, xp, xs_inv, xp_inv)
                    for q in range(p + 1, s):
                        images[q] = _word((*head, up[q], *tail))
                actions[(a, b, p)] = (IMAGES, images)
    return AdpSpec(ranks, actions, name)


def extend_with_torus(spec, m):
    """Append ``m`` rank-1 blocks with trivial action: the product with Z^m."""
    if m < 0:
        raise ValueError("torus rank must be nonnegative")
    if m == 0:
        return spec
    name = "%s x Z^%d" % (spec.name or "spec", m)
    out = AdpSpec(spec.ranks + (1,) * m, name=name)
    # the new blocks have no actions, so the checked ones carry over
    out.actions = dict(spec.actions)
    out.tau1 = dict(spec.tau1)
    return out


BUILTINS = {
    "purebraid": (pure_braid, 1),
    "partialpurebraid": (partial_pure_braid, 2),
    "uppermccool": (upper_mccool, 1),
    "purebraidbar": (pure_braid_mod_center, 1),
    "uppermccoolbar": (upper_mccool_mod_center, 1),
}
