"""Freely reduced words over doubly indexed free-group generators.

A generator is a pair ``(block, index)`` written ``x(block, index)``; a word
is a product of generators and their inverses, kept freely reduced at all
times.  The letters of one block generate a free group, and the classes here
also model the automorphisms of a single block that act trivially on its
abelianization: the basic ones conjugate one generator by another
(``B(i, j)``) or multiply a generator by a commutator of two others
(``T(i; s, t)``).

Commutator bookkeeping is done by :func:`commutator_decompose`, which writes
any word with vanishing exponent sums as an ordered product of commutators
``[u_k, v_k]`` of subwords.  :meth:`IAWord.johnson` reads a composite of
basic automorphisms to first order, one wedge per distinct factor, with no
word.  The parsers read each distinct token text of a payload once.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain, islice

__all__ = [
    "Word",
    "x",
    "commutator",
    "commutator_decompose",
    "beta",
    "theta",
    "IAWord",
]


def _reduce(letters):
    # keeps the letter tuples it is given, so words can share them
    out = []
    for letter in letters:
        g, e = letter
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _seam(left, right):
    # the product of two freely reduced letter tuples: only the run where the
    # tail of ``left`` inverts the head of ``right`` can cancel
    k = 0
    n = min(len(left), len(right))
    while k < n:
        g, e = left[-1 - k]
        h, f = right[k]
        if g != h or e != -f:
            break
        k += 1
    return left[: len(left) - k] + right[k:]


def _word(letters):
    # a Word from a letter tuple that is already freely reduced: no
    # validation, no reduction
    w = object.__new__(Word)
    w.letters = letters
    return w


# one capturing group around a whole factor, so ``findall`` lists the factor
# texts, and '' for a match of the final \S alternative
_LETTER_RE = re.compile(r"(x\(\d+,\d+\)(?:\^-?\d+)?)|\S")
_INT_RE = re.compile(r"-?\d+")

# the most letters or factors one parsed payload may hold, and so the
# largest exponent it may write
MAX_PAYLOAD = 10**6


def _scan(pattern, text, what):
    # raise at the first character no factor starts with: every payload
    # pattern ends in |\S, and a match of that alternative is where the
    # syntax breaks
    for m in pattern.finditer(text):
        if m.lastindex is None:
            raise ValueError("bad %s syntax at %r" % (what, text[m.start() :]))


def _read(pattern, text, what, decode, tokens):
    # the tokens of a payload, decoded and chained.  A token is a run of
    # non-blank characters: one factor as ``str`` writes it, or several
    # written without blanks.  ``tokens`` maps each token text to its tuple
    # of letters or factors, each letter or factor to its one shared copy,
    # and None to the most items any of its tokens holds.  The distinct
    # texts are decoded in the order of their first occurrence, each left to
    # right, so the first bad factor of the text decides the error; only
    # valid texts are stored.  The new tokens, and then all of them, may
    # hold at most MAX_PAYLOAD items; the exact count of all of them is
    # needed only when they could hold more.
    found = text.split()
    if tokens is None:
        tokens = {}
    longest = tokens.get(None, 0)
    size = 0  # the items of the new tokens
    for token in dict.fromkeys(found):
        if token not in tokens:
            parts = []
            for factor in pattern.findall(token):
                if not factor:  # a \S match: _scan raises there
                    _scan(pattern, text, what)
                parts += decode(factor, tokens)
                if size + len(parts) > MAX_PAYLOAD:
                    _too_long(what)
            tokens[token] = tuple(parts)
            size += len(parts)
            if len(parts) > longest:
                tokens[None] = longest = len(parts)
    if len(found) * longest > MAX_PAYLOAD:
        if sum(map(len, map(tokens.__getitem__, found))) > MAX_PAYLOAD:
            _too_long(what)
    return chain.from_iterable(map(tokens.__getitem__, found))


def _too_long(what):
    unit = "letters" if what == "word" else "factors"
    raise ValueError("%s has more than %d %s" % (what, MAX_PAYLOAD, unit))


def _power(tokens, item, power):
    # |power| copies of the shared ``item``, the exponent checked first
    if abs(power) > MAX_PAYLOAD:
        raise ValueError("exponent %d is too large" % power)
    return (tokens.setdefault(item, item),) * abs(power)


def _letter_factor(text, tokens):
    # ``x(b,i)^k`` as |k| shared letters
    block, index, *power = map(int, _INT_RE.findall(text))
    if block < 1 or index < 1:
        raise ValueError("generator indices start at 1")
    power = power[0] if power else 1
    return _power(tokens, ((block, index), 1 if power > 0 else -1), power)


class Word:
    """A freely reduced word.

    Letters are pairs ``(generator, exponent)`` with ``exponent`` in
    ``{+1, -1}`` and ``generator = (block, index)``.  Construction reduces,
    so two words are equal iff they name the same group element.

    >>> w = x(1, 1) * x(2, 1) * ~x(2, 1)
    >>> w == x(1, 1)
    True
    >>> print(x(2, 1) ** -2 * x(2, 2))
    x(2,1)^-2 x(2,2)
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        for g, e in letters:
            if e not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1: %r" % (e,))
        self.letters = _reduce(letters)

    def __mul__(self, other):
        """The product; letters cancel only at the seam of the two words.

        >>> u = Word.parse("x(1,1) x(1,2)")
        >>> print(u * Word.parse("x(1,2)^-1 x(1,3)"))
        x(1,1) x(1,3)
        >>> print(u * Word.parse("x(1,2)^-1 x(1,1)^-1 x(1,3)"))
        x(1,3)
        """
        if not isinstance(other, Word):
            return NotImplemented
        return _word(_seam(self.letters, other.letters))

    def __invert__(self):
        return _word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n):
        if n < 0:
            return (~self) ** (-n)
        w = Word()
        for _ in range(n):
            w = w * self
        return w

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def exponent_sums(self):
        """Total exponent of each generator, as a dict without zeros.

        >>> commutator(x(2, 1), x(2, 2)).exponent_sums()
        {}
        """
        sums = {}
        for g, e in self.letters:
            sums[g] = sums.get(g, 0) + e
        return {g: s for g, s in sums.items() if s}

    def blocks(self):
        return {g[0] for g, _ in self.letters}

    def single_block(self):
        """The unique block the word lives in; error if letters mix blocks."""
        blocks = self.blocks()
        if len(blocks) != 1:
            raise ValueError("word does not lie in a single block: %s" % self)
        return blocks.pop()

    def text(self, sep=" "):
        """The runs of equal letters as ``x(b,i)^k``, joined by ``sep``:
        spaces for ``str``, none for a porcelain token."""
        letters = self.letters
        parts = []
        i, n = 0, len(letters)
        while i < n:
            letter = letters[i]
            j = i + 1
            while j < n and letters[j] == letter:
                j += 1
            g, e = letter
            power = e * (j - i)
            if power == 1:
                parts.append("x(%d,%d)" % g)
            else:
                parts.append("x(%d,%d)^%d" % (g[0], g[1], power))
            i = j
        return sep.join(parts) or "1"

    __str__ = __repr__ = text

    @classmethod
    def parse(cls, text, tokens=None):
        """Parse the notation produced by ``str``: ``x(1,1)^2 x(2,1)^-1``.

        Whitespace between letters is optional; ``1`` is the identity.
        The payload splits at its blanks, and each distinct token is read
        once.  ``tokens`` is a token table, a dict that starts empty, to
        share between the parses of many words: each distinct token is then
        read once for all of them, and they share their letter tuples.
        """
        text = text.strip()
        if text == "1" or not text:
            return cls()
        letters = _read(_LETTER_RE, text, "word", _letter_factor, tokens)
        # every exponent is +1 or -1 already: reduce without validating
        return _word(_reduce(letters))


def x(block, index, power=1):
    """The word ``x(block, index) ** power``.

    >>> print(x(1, 2, -3))
    x(1,2)^-3
    """
    if block < 1 or index < 1:
        raise ValueError("generator indices start at 1")
    return _word((((block, index), 1 if power > 0 else -1),) * abs(power))


def commutator(u, v):
    """The commutator ``[u, v] = u v u^-1 v^-1``."""
    return u * v * ~u * ~v


def commutator_decompose(w, pairing="first"):
    """Write ``w`` as an ordered product of commutators of subwords.

    Requires every exponent sum of ``w`` to vanish.  Returns a list of pairs
    ``(u_k, v_k)`` with ``w == product of commutator(u_k, v_k)``.  The first
    letter ``g^e`` of the current word is matched with an occurrence of
    ``g^-e`` later in the word (the first such occurrence for
    ``pairing="first"``, the last for ``pairing="last"``); writing the word
    as ``g^e A g^-e B`` gives the factor ``[g^e, A]`` and the algorithm
    recurses on the reduction of ``A B``.

    >>> w = commutator(x(2, 1), x(2, 2))
    >>> commutator_decompose(w)
    [(x(2,1), x(2,2))]
    >>> w = commutator(x(2, 1), x(2, 2)) * commutator(x(2, 1), x(2, 3))
    >>> commutator_decompose(w, pairing="last")
    [(x(2,1), x(2,2) x(2,1)^-1 x(2,2)^-1 x(2,1) x(2,3)), (x(2,2), x(2,1)^-1)]
    """
    if pairing not in ("first", "last"):
        raise ValueError("pairing must be 'first' or 'last'")
    if w.exponent_sums():
        raise ValueError("exponent sums do not vanish: %s" % w)
    pairs = []
    letters = w.letters
    while letters:
        first = letters[0]
        inverse = (first[0], -first[1])
        if pairing == "first":
            k = letters.index(inverse, 1)
        else:
            k = len(letters) - 1 - letters[::-1].index(inverse)
        # slices of a reduced word are reduced
        a = letters[1:k]
        pairs.append((_word((first,)), _word(a)))
        letters = _seam(a, letters[k + 1 :])
    return pairs


def beta(i, j):
    """Conjugation automorphism: sends ``y_i`` to ``y_j^-1 y_i y_j``."""
    if i == j:
        raise ValueError("beta requires i != j")
    return ("beta", i, j)


def theta(i, s, t):
    """Commutator multiplication: sends ``y_i`` to ``y_i [y_s, y_t]``."""
    if len({i, s, t}) != 3:
        raise ValueError("theta requires distinct indices")
    return ("theta", i, s, t)


_IA_RE = re.compile(
    r"(B\(\d+,\d+\)(?:\^-?\d+)?|T\(\d+;\d+,\d+\)(?:\^-?\d+)?)|\S"
)


def _ia_factor(text, tokens):
    # ``B(i,j)^k`` or ``T(i;s,t)^k`` as |k| shared factors
    ints = list(map(int, _INT_RE.findall(text)))
    arity = 2 if text[0] == "B" else 3
    gen = beta(*ints[:2]) if arity == 2 else theta(*ints[:3])
    power = ints[arity] if len(ints) > arity else 1
    if power == 0:
        raise ValueError("IA factor exponent must be nonzero")
    return _power(tokens, (gen, 1 if power > 0 else -1), power)


class IAWord:
    """A composition of basic IA-automorphisms of a rank ``n`` free block.

    Factors apply left to right: ``IAWord(n, [f, g]).apply(w)`` is
    ``g`` applied to ``f`` applied to ``w``.  Every factor fixes the
    abelianization, so applying an ``IAWord`` never changes exponent sums.
    ``str`` and :meth:`johnson` read each distinct factor once, so their
    Python work grows with the distinct factors of a word, not with its
    length.

    >>> a = IAWord(2, [(beta(1, 2), 1)])
    >>> print(a.apply(x(5, 1)))
    x(5,2)^-1 x(5,1) x(5,2)
    >>> a.inverse().apply(a.apply(x(5, 1))) == x(5, 1)
    True
    """

    __slots__ = ("rank", "factors")

    def __init__(self, rank, factors=()):
        factors = tuple((gen, exp) for gen, exp in factors)
        if not {exp for _, exp in factors} <= {1, -1}:
            raise ValueError("IA factor exponents must be +1 or -1")
        # each generator once, in the order of its first factor
        for gen in dict.fromkeys(gen for gen, _ in factors):
            indices = gen[1:]
            if gen[0] not in ("beta", "theta"):
                raise ValueError("unknown IA generator kind %r" % (gen[0],))
            arity = 2 if gen[0] == "beta" else 3
            if len(indices) != arity or not all(isinstance(k, int) for k in indices):
                raise ValueError("IA generator %r needs %d int indices" % (gen, arity))
            if len(set(indices)) != len(indices):
                raise ValueError("IA generator indices must be distinct")
            if any(not (1 <= k <= rank) for k in indices):
                raise ValueError(
                    "IA generator %r exceeds block rank %d" % (gen, rank)
                )
        self.rank = rank
        self.factors = factors

    def __eq__(self, other):
        return (
            isinstance(other, IAWord)
            and self.rank == other.rank
            and self.factors == other.factors
        )

    def __hash__(self):
        return hash((self.rank, self.factors))

    def inverse(self):
        return IAWord(
            self.rank, tuple((gen, -exp) for gen, exp in reversed(self.factors))
        )

    def images(self, block):
        """The images of ``x(block, 1), ..., x(block, rank)``, as Words.

        The table is composed inward: it starts as the identity, and each
        factor, last to first, replaces the image of the one generator
        ``y_i`` it moves by the table substituted into the 3 or 5 letters of
        its image of ``y_i``.  Those pieces are freely reduced, so letters
        cancel only at their seams, and one factor costs the length of one
        image.  Every letter of the table is one of the ``2 * rank``
        letters of the block, made once per call.

        >>> a = IAWord.parse(2, "B(1,2) B(2,1)")
        >>> for w in a.images(3):
        ...     print(w)
        x(3,1)^-1 x(3,2)^-1 x(3,1) x(3,2) x(3,1)
        x(3,1)^-1 x(3,2) x(3,1)
        >>> a.images(3)[0] == a.apply(x(3, 1))
        True
        """
        flip = _flip(block, self.rank)
        table = [None] + [(up,) for up in list(flip)[::2]]  # the identity
        for gen, exp in reversed(self.factors):
            # one list per new image, each seam cancelled as a piece lands:
            # the cancelled run is counted first and dropped in one slice
            out = []
            for k, f in _factor_image(gen, exp):
                piece = table[k]
                m = 0
                if f == 1:
                    for a, b in zip(reversed(out), piece):
                        if a is not flip[b]:
                            break
                        m += 1
                    del out[len(out) - m :]
                    out += islice(piece, m, None)
                else:
                    for a, b in zip(reversed(out), reversed(piece)):
                        if a is not b:
                            break
                        m += 1
                    del out[len(out) - m :]
                    rest = islice(reversed(piece), m, None)
                    out += map(flip.__getitem__, rest)
            table[gen[1]] = tuple(out)
        return tuple(_word(letters) for letters in table[1:])

    def johnson(self, block):
        """The Johnson homomorphism ``tau_1`` of the composite, no word built.

        ``tau_1`` sends an IA automorphism ``phi`` to the map
        ``y -> y^-1 phi(y)`` read in ``gamma_2 F / gamma_3 F = Lambda^2 H``
        (Johnson, Math. Ann. 249, 1980).  It is a homomorphism, so it is the
        sum over the factors, one wedge each: ``B(i,j)`` sends ``y_i`` to
        ``y_i ^ y_j``, ``T(i;s,t)`` sends ``y_i`` to ``y_s ^ y_t``, an
        inverse factor gives the negative, and the other generators go to 0.
        The sum is commutative, so each distinct factor is read once, times
        the number of its occurrences.
        Returns ``{i: {(a, b): c}}`` with ``a < b`` generators ``x(block, .)``
        for each ``y_i`` of nonzero class, by ``i``.  ``tau_1 = 0`` does not
        make the automorphism trivial: it kills every commutator.

        >>> IAWord.parse(2, "B(1,2) B(2,1)").johnson(3)
        {1: {((3, 1), (3, 2)): 1}, 2: {((3, 1), (3, 2)): -1}}
        >>> IAWord.parse(3, "B(1,2) B(1,3) B(1,2)^-1 B(1,3)^-1").johnson(3)
        {}
        """
        classes = {}
        for (gen, exp), count in Counter(self.factors).items():
            a, b = gen[1:3] if gen[0] == "beta" else gen[2:]
            c = exp * count
            if a > b:
                a, b, c = b, a, -c
            row = classes.setdefault(gen[1], {})
            pair = ((block, a), (block, b))
            c += row.pop(pair, 0)
            if c:
                row[pair] = c
        return {i: classes[i] for i in sorted(classes) if classes[i]}

    def apply(self, w):
        """Apply the composed automorphism to a word in a single block.

        Substitutes the :meth:`images` of the block into the letters of
        ``w`` and reduces once.
        """
        if not w.letters:
            return w
        block = w.single_block()
        if any(index > self.rank for (_, index), _ in w.letters):
            raise ValueError("word index exceeds block rank %d" % self.rank)
        table = self.images(block)
        flip = _flip(block, self.rank)
        out = []
        for (_, k), e in w.letters:
            image = table[k - 1].letters
            if e == 1:
                out += image
            else:
                out += map(flip.__getitem__, reversed(image))
        return _word(_reduce(out))

    def __str__(self):
        if not self.factors:
            return "1"
        text = {}
        for gen, exp in set(self.factors):
            s = ("B(%d,%d)" if gen[0] == "beta" else "T(%d;%d,%d)") % gen[1:]
            text[gen, exp] = s if exp == 1 else s + "^-1"
        return " ".join(map(text.__getitem__, self.factors))

    __repr__ = __str__

    @classmethod
    def parse(cls, rank, text, tokens=None):
        """Parse notation like ``B(1,2) T(3;1,2)^-1``.

        Each distinct token is read once; ``tokens`` is a token table to
        share between the parses of many IA words, as for
        :meth:`Word.parse`, but not with word parses.  It holds no rank: the
        constructor checks the generators of each word against ``rank``.
        """
        text = text.strip()
        if text == "1" or not text:
            return cls(rank)
        return cls(rank, _read(_IA_RE, text, "IA word", _ia_factor, tokens))


def _flip(block, rank):
    # the 2 * rank letters of a block, each mapped to its inverse
    flip = {}
    for k in range(1, rank + 1):
        up, down = ((block, k), 1), ((block, k), -1)
        flip[up] = down
        flip[down] = up
    return flip


def _factor_image(gen, exp):
    # image of the moved generator y_i under one basic automorphism, as
    # (index, exp) letters
    if gen[0] == "beta":
        _, i, j = gen
        if exp == 1:
            return [(j, -1), (i, 1), (j, 1)]
        return [(j, 1), (i, 1), (j, -1)]
    _, i, s, t = gen
    if exp == 1:
        return [(i, 1), (s, 1), (t, 1), (s, -1), (t, -1)]
    return [(i, 1), (t, 1), (s, 1), (t, -1), (s, -1)]
