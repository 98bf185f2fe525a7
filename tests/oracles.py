"""Oracles of the tests: the literal forms the package is checked against.

No subcommand runs these.  Each restates a fact the package computes
another way, or builds an element only a test inspects: the dense H2
matrix and its column order, span equality as a rank identity, the
triangular basis ``xi`` of the exterior algebra, the products that the
Groebner certificate rewrites, the tensor square with its product, the
tensor-square elements and closed forms that the zero-divisor witness
must equal, and ``tau_1`` and the printed form of an IA word read one
factor at a time.  Some build the inputs of the tests: the unit and the
augmentation of a sparse algebra, one image of a spec's action, and the
seeded random specs.
"""

from itertools import combinations

from almostdirect.adp import MAGNUS, AdpSpec, generators, relation_keys
from almostdirect.exterior import CohomologyRing, ExtElem, deg_lex_key, e, mono_mul
from almostdirect.invariants import TensorElem
from almostdirect.laurent import LaurentPoly, t
from almostdirect.linalg import span_rank
from almostdirect.words import IAWord, beta, theta, x


def unit(cls):
    """The unit ``1`` of a :class:`~almostdirect.sparse.Sparse` algebra."""
    return cls({cls.UNIT: 1})


def augment(elem):
    """The sum of the coefficients: every variable or letter sent to 1."""
    return sum(elem.terms.values())


def action_image(spec, i, j, p, q):
    """The image of ``x(j,q)`` under the action of ``x(i,p)`` in ``spec``."""
    spec._check_key((i, j, p))
    if not (1 <= q <= spec.ranks[j - 1]):
        raise ValueError("index %d exceeds rank of block %d" % (q, j))
    image = spec.images.get((i, j, p, q))
    return x(j, q) if image is None else image


def _random_ia_factor(rng, n):
    if n >= 3 and rng.random() < 0.5:
        a, b, c = rng.sample(range(1, n + 1), 3)
        gen = theta(a, b, c)
    else:
        a, b = rng.sample(range(1, n + 1), 2)
        gen = beta(a, b)
    return (gen, rng.choice((1, -1)))


def random_spec(rng, max_blocks=4, min_rank=1, max_rank=3, max_factors=4):
    """A random magnus-mode spec that is a genuine almost-direct product.

    An arbitrary assignment of IA words to the acting generators does not
    in general extend to an action of the iterated product (the earlier
    blocks are not free once they commute up to conjugation), so plain
    per-generator randomness leaves the intended domain as soon as three
    blocks interact.  Instead one random IA automorphism is drawn per
    block and every acting generator acts on that block by a power of it,
    of word length at most ``max_factors``: words with zero exponent sums
    then act trivially, which makes the iterated action consistent for
    every choice of powers.  ``rng`` is a ``random.Random``.
    """
    l = rng.randint(1, max_blocks)
    ranks = tuple(rng.randint(min_rank, max_rank) for _ in range(l))
    actions = {}
    for j in range(2, l + 1):
        n = ranks[j - 1]
        if n < 2:
            continue
        base_len = rng.randint(1, max(1, max_factors // 2))
        sigma = tuple(_random_ia_factor(rng, n) for _ in range(base_len))
        sigma_inv = tuple((g, -e) for g, e in reversed(sigma))
        max_power = max_factors // base_len
        for i in range(1, j):
            for p in range(1, ranks[i - 1] + 1):
                c = rng.randint(-max_power, max_power)
                if not c:
                    continue
                factors = (sigma if c > 0 else sigma_inv) * abs(c)
                actions[(i, j, p)] = (MAGNUS, IAWord(n, factors))
    return AdpSpec(ranks, actions, name="random")


class RingTensorElem(TensorElem):
    """An element of the tensor square bound to its ring, so it multiplies.

    Multiplication follows the sign rule ``(a (x) b)(c (x) d) =
    (-1)^{|b||c|} ac (x) bd`` with both components reduced to normal form.
    Elements of different rings do not add, subtract or multiply.
    """

    __slots__ = ("ring",)

    def __init__(self, ring, terms=None):
        self.ring = ring
        super().__init__(terms)

    @classmethod
    def one(cls, ring):
        return cls(ring, {cls.UNIT: 1})

    def _new(self, terms):
        return type(self)(self.ring, terms)

    def _same_ring(self, other):
        return other.ring is self.ring or other.ring == self.ring

    def _coerce(self, other):
        if isinstance(other, RingTensorElem) and not self._same_ring(other):
            return None
        return super()._coerce(other)

    def __mul__(self, other):
        if not isinstance(other, RingTensorElem):
            return super().__mul__(other)
        if not self._same_ring(other):
            return NotImplemented
        ring = self.ring
        terms = {}
        for (a, b), c1 in self.terms.items():
            for (u, v), c2 in other.terms.items():
                sign = -1 if (len(b) * len(u)) & 1 else 1
                left = mono_mul(a, u)
                if left is None:
                    continue
                right = mono_mul(b, v)
                if right is None:
                    continue
                s_l, m_l = left
                s_r, m_r = right
                coeff = sign * s_l * s_r * c1 * c2
                for ml, cl in ring.reduce_mono(m_l).items():
                    for mr, cr in ring.reduce_mono(m_r).items():
                        key = (ml, mr)
                        s = terms.get(key, 0) + coeff * cl * cr
                        if s:
                            terms[key] = s
                        else:
                            del terms[key]
        return type(self)(ring, terms)


def spans_equal(rows1, rows2):
    """True when the two row families span the same rational subspace."""
    rows1, rows2 = list(rows1), list(rows2)
    return span_rank(rows1) == span_rank(rows2) == span_rank(rows1 + rows2)


def sorted_generator_pairs(ranks):
    """Every product of two distinct generators, in the column order of the
    H2 matrix: sorted by (second block, first block, first index, second
    index)."""
    gens = generators(ranks)
    pairs = [(g1, g2) for k, g1 in enumerate(gens) for g2 in gens[k + 1 :]]
    return sorted(
        pairs, key=lambda pair: (pair[1][0], pair[0][0], pair[0][1], pair[1][1])
    )


def dense(matrix):
    """An :class:`~almostdirect.homology.H2Matrix` as a list of rows: every
    relation in relation order, the implied unit rows included, over the
    columns of :func:`sorted_generator_pairs`."""
    cols = sorted_generator_pairs(matrix.ranks)
    out = []
    for key in relation_keys(matrix.ranks):
        row = matrix.rows.get(key)
        if row is None:
            i, j, p, q = key
            row = {((i, p), (j, q)): 1}
        out.append([row.get(c, 0) for c in cols])
    return out


def koszul_d1(f):
    """The Koszul differential of a degree-one element: ``sum f_a (t_a - 1)``."""
    out = LaurentPoly()
    for (i, p), val in f.items():
        out = out + val * (t(i, p) - 1)
    return out


def is_normal(mono):
    """True when ``mono`` carries at most one generator per block."""
    blocks = [g[0] for g in mono]
    return len(blocks) == len(set(blocks))


def leading_term(el):
    """The deg-lex largest monomial of ``el`` and its coefficient."""
    m = max(el.terms, key=deg_lex_key)
    return m, el.terms[m]


def critical_product(ring, lead, cofactor):
    """``e_g eta``, the product a check ``(lead, (g,))`` of
    :meth:`~almostdirect.exterior.CohomologyRing.critical_pairs` stands for.

    One merge of ``g`` into each monomial of ``eta``; distinct monomials
    merge into distinct products.  ``ring.normal_form`` of it is what
    ``ring.critical_normal_forms`` must give, term for term.
    """
    out = {}
    for mono, c in ring.etas[lead].items():
        prod = mono_mul(cofactor, mono)
        if prod is not None:
            out[prod[1]] = prod[0] * c
    return ExtElem(out)


def xi(ring, subsets):
    """The triangular basis element attached to one index set per block.

    ``subsets[j-1]`` is a strictly increasing tuple of indices of block
    ``j``.  Blocks contribute ``e(j, q)`` for a single index, and
    ``eta(j; q1, q2) e(j, q3) ...`` for two or more, multiplied in block
    order inside the exterior algebra.  The deg-lex leading term is the
    plain monomial of ``subsets`` with coefficient 1, so these elements
    form a basis of their degree, with every element whose subsets
    include a pair lying in the ideal.
    """
    if len(subsets) != len(ring.ranks):
        raise ValueError("need one index set per block")
    out = unit(ExtElem)
    for j, qs in enumerate(subsets, start=1):
        qs = tuple(qs)
        if any(not 1 <= q <= ring.ranks[j - 1] for q in qs):
            raise ValueError("index out of range in block %d" % j)
        if list(qs) != sorted(set(qs)):
            raise ValueError("indices must be strictly increasing")
        if not qs:
            continue
        if len(qs) == 1:
            factor = e(j, qs[0])
        else:
            factor = ring.eta(j, qs[0], qs[1])
            for q in qs[2:]:
                factor = factor * e(j, q)
        out = out * factor
    return out


def tensor(ring, a, b):
    """The element ``a (x) b`` of the tensor square, both sides reduced."""
    a, b = ring.normal_form(a), ring.normal_form(b)
    terms = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            terms[(ma, mb)] = ca * cb
    return RingTensorElem(ring, terms)


def zero_divisor(ring, u):
    """The basic zero divisor ``1 (x) u - u (x) 1`` of a homogeneous ``u``
    of positive degree."""
    u = ring.normal_form(u)
    degrees = {len(m) for m in u.terms}
    if len(degrees) != 1 or 0 in degrees:
        raise ValueError("zero divisors come from positive-degree elements")
    one = unit(ExtElem)
    return tensor(ring, one, u) - tensor(ring, u, one)


def claim_expansion(ring):
    """Closed form of the full witness product when every rank is >= 2.

    With ``x_j = e(j,1)`` and ``y_j = e(j,2)`` the product of all
    ``2 l`` zero divisors expands, modulo the ideal, to

        sign * sum over subsets I of (-1)^{|I|} X[I] (x) Y[I]

    where ``X[I]`` picks ``x_j`` for ``j`` in ``I`` and ``y_j`` otherwise,
    ``Y[I]`` picks the complementary generators, and the global sign is
    ``(-1)^{floor(l / 2)}``.
    """
    l = ring.num_blocks
    if any(n < 2 for n in ring.ranks):
        raise ValueError("the closed form needs every block of rank >= 2")
    sign = -1 if (l // 2) & 1 else 1
    terms = {}
    for size in range(l + 1):
        for chosen in combinations(range(1, l + 1), size):
            x_mono = tuple((j, 1 if j in chosen else 2) for j in range(1, l + 1))
            y_mono = tuple((j, 2 if j in chosen else 1) for j in range(1, l + 1))
            terms[(x_mono, y_mono)] = sign * (-1) ** size
    return RingTensorElem(ring, terms)


def torus_shuffle_expansion(m):
    """Closed form of the product of the ``m`` torus zero divisors.

    The ring of the ``m``-torus has ``m`` blocks of rank one.  Expanding
    ``prod (1 (x) z_i - z_i (x) 1)`` gives one term per ordered partition
    of the index set into the left and right tensor factors, signed by the
    shuffle permutation:

        sum over subsets I of (-1)^{|I|} sign(I) z[I] (x) z[complement]

    where ``sign(I)`` is the parity of the shuffle sorting ``I`` followed
    by its complement.
    """
    ring = CohomologyRing((1,) * m, {})
    terms = {}
    indices = range(1, m + 1)
    for size in range(m + 1):
        for chosen in combinations(indices, size):
            rest = tuple(i for i in indices if i not in chosen)
            inversions = sum(1 for a in chosen for b in rest if b < a)
            left = tuple((i, 1) for i in chosen)
            right = tuple((i, 1) for i in rest)
            terms[(left, right)] = (-1) ** (size + inversions)
    return RingTensorElem(ring, terms)


def johnson_per_factor(ia, block):
    """``tau_1`` of an IA word summed one factor at a time, in order.

    The literal sum of one wedge per factor, where
    :meth:`~almostdirect.words.IAWord.johnson` takes each distinct factor
    once, times its count.  Same return shape: ``{i: {(a, b): c}}`` by
    ``i``, without zero classes.
    """
    classes = {}
    for gen, exp in ia.factors:
        a, b = gen[1:3] if gen[0] == "beta" else gen[2:]
        if a > b:
            a, b, exp = b, a, -exp
        row = classes.setdefault(gen[1], {})
        pair = ((block, a), (block, b))
        c = row.pop(pair, 0) + exp
        if c:
            row[pair] = c
    return {i: classes[i] for i in sorted(classes) if classes[i]}


def ia_text_per_factor(ia):
    """An IA word printed one factor at a time: ``B(1,2) T(3;1,2)^-1``."""
    if not ia.factors:
        return "1"
    parts = []
    for gen, exp in ia.factors:
        if gen[0] == "beta":
            s = "B(%d,%d)" % gen[1:]
        else:
            s = "T(%d;%d,%d)" % gen[1:]
        parts.append(s if exp == 1 else s + "^-1")
    return " ".join(parts)
