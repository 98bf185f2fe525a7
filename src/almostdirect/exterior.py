"""The cohomology ring as a quotient of a rational exterior algebra.

Monomials are strictly increasing tuples of generators ``e(block, index)``,
ordered block first, and compared in degree lexicographic order: lower total
degree first, then smaller generator at the first difference.  The quotient
ideal is generated by one kernel element

    eta(j; p, q) = e(j,p) e(j,q) + sum kappa e(i,r) e(j,s)

per same-block pair, which rewrites every monomial containing two
generators of one block into strictly smaller monomials.  Iterating the
rewrite computes a normal form supported on monomials with at most one
generator per block.  The rewrite always takes the leftmost same-block pair:
a block's generators sit next to each other in a sorted monomial, so that
pair is adjacent, and moving two adjacent generators to the front is an
even permutation, so the rewrite carries no sign.  The relations are a
quadratic Groebner basis, so the normal form is the unique representative
modulo the ideal and the ring is Koszul; two certificates of that are
provided.

The certificate that ``verify`` runs is
:meth:`CohomologyRing.critical_pair_verify`.  It proves that the relations
are a Groebner basis in every degree, that is ``E_k = N_k + J_k`` (a direct
sum) for every ``k``, where ``E`` is the exterior algebra, ``J`` the ideal
of the ``eta`` and ``N_k`` the span of the normal monomials of degree ``k``.
It rewrites the ``sum_j 2 C(n_j + 1, 3)`` products ``e(j,r) eta(j;p,q)``
with ``r <= q``, all of degree three, and the argument has three steps.

*Normal form.*  Write ``NF`` for the normal form of :meth:`normal_form`.  A
rewriting step replaces ``lead(eta) rest`` by ``-tail(eta) rest`` and so
subtracts ``eta rest``, an element of ``J``.  Hence ``NF`` is linear,
``NF(f) = f`` modulo ``J``, and ``NF`` fixes normal monomials.  So
``J_k`` meets ``N_k`` only in 0 iff ``NF`` vanishes on ``J_k``: an element
of both is its own normal form, and ``NF(f)`` lies in both when ``f`` is
in ``J_k``.  Every monomial rewrites into ``N_k``, so the sum is then all
of ``E_k``.

*Degree three.*  ``J_3`` is spanned by the products ``e_g eta``.  Let
``eta`` lead with ``e(j,p) e(j,q)``.  When the first rewrite of the merged
monomial of ``g`` and the lead uses ``eta`` itself, ``NF(e_g eta) = 0`` by
the step above.  That is the case when ``g`` lies in another block (the
lead is then the only same-block pair) and when ``g = e(j,r)`` with
``r > q`` (the lead is then the leftmost pair).  The products that remain
are ``e(j,r) eta(j;p,q)`` with ``r <= q``: the square products ``r = p``
and ``r = q``, whose merge with the lead vanishes, and the ``r < q``,
``r != p``, whose leftmost pair is ``e(j,r)`` and a generator of the lead.
Block ``j`` has ``sum_q q (q - 1) = 2 C(n_j + 1, 3)`` of them.

The certificate sums each ``NF`` from the rules instead of rewriting
monomial by monomial.  For ``a < b`` in block ``j``, ``eta(j;a,b)``
rewrites ``e(j,a) e(j,b)`` to ``sum_s omega(a,b)_s e(j,s)``, where
``omega(a,b)_s = -sum kappa e(i,x)`` over its terms ``kappa e(i,x)
e(j,s)`` has degree one in the earlier blocks; ``omega(b,a) =
-omega(a,b)`` and ``omega(a,a) = 0``.  Then

    NF(e(j,r) eta(j;p,q)) = sum_t X_t e(j,t),
    X_t = [r not in {p,q}] sum_s omega(r,p)_s omega(s,q)_t
          + sum_s omega(p,q)_s omega(r,s)_t,

with each product of two ``omega`` reduced in the earlier blocks.  These
are the leftmost rewrites of ``NF``.  For ``r < q`` the leftmost pair of
``e(j,r) e(j,p) e(j,q)`` is ``e(j,r) e(j,p)``, and ``e(j,r)`` times a tail
term ``e(i,x) e(j,s)`` is ``-e(i,x) e(j,r) e(j,s)``.  Each rewrite of a
pair of block ``j`` leaves terms with one generator of ``j`` fewer, so
after two every term has exactly one, and before it two degree-one
factors of earlier blocks.  Those are normal when their blocks differ;
otherwise their pair, the only one left, rewrites once into normal
monomials.

So ``NF`` vanishes on ``J_3`` iff every check of :meth:`critical_pairs`
rewrites to zero.  These products are the checks of degree three of the
exterior Buchberger criterion (T. Stokes, J. Automated Reasoning 6 (1990);
Aramova, Herzog and Hibi, J. Algebra 191 (1997), Sec. 1), truncated at
degree three.  The square products are its own checks, and each of its
S-polynomials reduces to these products: for indices ``a < b < c`` of
block ``j``, the S-polynomial of ``eta(a,b)`` and ``eta(a,c)`` is ``e_c
eta(a,b) + e_b eta(a,c)``, whose first term rewrites to zero by itself,
that of ``eta(a,b)`` and ``eta(b,c)`` is likewise ``e_a eta(b,c)`` up to
such a term, and that of ``eta(a,c)`` and ``eta(b,c)`` is a sum of the
two.  The criterion also lists the S-polynomials of disjoint leads, in
degree four.  The commutative coprime criterion does not dismiss those (a
tail times a lead can vanish in an exterior algebra); the next step does.

*All degrees.*  The quotient ``A = E/J`` is also ``T(V)/(R)``, with ``R``
spanned by the anticommutators ``x_b x_a + x_a x_b`` (``b > a``), the
squares ``x_a x_a`` and each ``eta`` lifted to a sum of ascending words.
Order the words of the tensor algebra deg-lex, letters by ``(block,
index)``: a semigroup order with the descending chain condition.  The
leading words of ``R`` are the descending pairs, the squares and the pairs
``e(j,p) e(j,q)``, ``p < q``; the other words of ``eta``,
``e(i,r) e(j,s)`` with ``i < j``, start with a smaller letter (the
constructor refuses a ``kappa`` outside the earlier blocks).  Reducing
each leading word to minus the rest of its relation is a reduction system
whose irreducible words are the ascending words with at most one letter
per block: the normal monomials.  The leading words have length two and
are distinct, so its only ambiguities are overlaps ``x y z`` of length
three.  If ``N_3`` meets ``J_3`` only in 0, the normal monomials are
independent in ``A_3 = E_3 / J_3``, and every overlap resolves: two
complete reductions of it end in normal combinations that agree in
``A_3``, hence agree.  Bergman's diamond lemma (Adv. Math. 29 (1978),
Thm. 1.2) then makes the irreducible words a basis of ``A`` in every
degree, which is ``E_k = N_k + J_k`` for every ``k``.  Polishchuk and
Positselski (*Quadratic Algebras*, 2005, Ch. 4) state this as the PBW
criterion: a quadratic algebra whose normal words are independent in
degree three has them as a basis.

Conversely, modulo a Groebner basis ``NF`` vanishes on all of ``J``, so a
check that does not rewrite to zero refutes the basis.  The certificate is
exact both ways, and a quadratic Groebner basis makes the ring Koszul.

:meth:`CohomologyRing.groebner_verify` is the independent oracle: it
rank-computes the span of the ideal in every degree through ``l + 1`` by
elimination, which costs ``C(N, k-2) #eta`` rows in degree ``k``.

:class:`ExtElem` builds on :class:`~almostdirect.sparse.Sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb

from .adp import generators
from .homology import h2_matrix, kernel_basis
from .linalg import span_rank
from .sparse import Sparse, add_scaled

__all__ = [
    "deg_lex_key",
    "mono_mul",
    "mono_token",
    "ExtElem",
    "e",
    "CohomologyRing",
    "cohomology_ring",
    "poincare_vector",
    "GroebnerReport",
    "GroebnerDegree",
]


def deg_lex_key(mono):
    return (len(mono), mono)


def mono_mul(m1, m2):
    """Merge two increasing monomials; ``(sign, product)`` or None if 0.

    The sign counts the transpositions needed to interleave the factors.

    >>> mono_mul(((2, 1),), ((1, 1),))
    (-1, ((1, 1), (2, 1)))
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    out = []
    inversions = 0
    i = j = 0
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            inversions += len(m1) - i
    out.extend(m1[i:])
    out.extend(m2[j:])
    sign = -1 if inversions & 1 else 1
    return sign, tuple(out)


def _reduce(mono, memo, rules):
    # the recursion of CohomologyRing.reduce_mono; a module function, not a
    # closure, so that it holds no reference to itself
    for k in range(len(mono) - 1):
        if mono[k][0] == mono[k + 1][0]:
            break
    else:
        return {mono: 1}
    out = memo.get(mono)
    if out is None:
        out = {}
        rest = mono[:k] + mono[k + 2 :]
        for rep, c in rules[mono[k : k + 2]].items():
            prod = mono_mul(rep, rest)
            if prod is not None:
                add_scaled(out, _reduce(prod[1], memo, rules), prod[0] * c)
        memo[mono] = out
    return out


_NO_RULE = {}  # e_g e_g = 0


def poincare_vector(ranks):
    """Coefficients of ``prod (1 + n t)``: the Betti numbers of the ring.

    >>> poincare_vector((1, 2, 3))
    (1, 6, 11, 6)
    """
    coeffs = [1]
    for n in ranks:
        prev = coeffs + [0]
        coeffs = [prev[k] + n * prev[k - 1] for k in range(len(prev))]
    return tuple(coeffs)


class _GenTokens(dict):
    """The text ``e(b,i)`` of each generator, built on first lookup."""

    def __missing__(self, g):
        token = self[g] = "e(%d,%d)" % g
        return token


_GEN_TOKENS = _GenTokens()


def mono_token(mono):
    """A monomial as text, ``e(1,1)e(2,1)``; the unit monomial is ``1``."""
    return "".join(map(_GEN_TOKENS.__getitem__, mono)) or "1"


class ExtElem(Sparse):
    """An element of the exterior algebra, exact coefficients.

    Terms map monomials to ints or Fractions.  ``*`` is the exterior
    product; scalars multiply from either side.

    >>> a = e(1, 1) * e(2, 1)
    >>> print(e(2, 1) * e(1, 1))
    -e(1,1)e(2,1)
    >>> (a * a).is_zero()
    True
    """

    __slots__ = ()

    _order = staticmethod(deg_lex_key)
    _key_mul = staticmethod(mono_mul)

    @staticmethod
    def _key_str(m):
        # the unit prints as its coefficient alone
        return mono_token(m) if m else ""

    @classmethod
    def monomial(cls, mono, c=1):
        return cls({tuple(mono): c})


def e(block, index):
    """The degree-one basis element ``e(block, index)``."""
    if block < 1 or index < 1:
        raise ValueError("generator indices start at 1")
    return ExtElem({((block, index),): 1})


@dataclass(frozen=True)
class GroebnerDegree:
    degree: int
    span_rank: int
    expected_rank: int

    @property
    def ok(self):
        return self.span_rank == self.expected_rank


@dataclass
class GroebnerReport:
    """Per-degree ranks of the ideal against the Hilbert prediction."""

    degrees: list = field(default_factory=list)

    @property
    def ok(self):
        return all(d.ok for d in self.degrees)


class CohomologyRing:
    """Exterior algebra on the ``e(i,p)`` modulo the kernel elements.

    Elements are kept in normal form: no monomial carries two generators of
    the same block.  ``etas`` is the table of
    :func:`~almostdirect.homology.kernel_basis`: for each same-block pair
    ``((j, p), (j, q))``, the terms of ``eta(j; p, q)`` as a dict from
    monomials to integers.  The constructor checks it in one pass and keeps
    it, less any zero coefficients, as ``_eta``; every method that reads an
    eta reads that table.  Its one rewrite table ``_rules`` holds each
    product ``e_g e_h`` of one block, in both orders, as a dict.
    """

    def __init__(self, ranks, etas):
        self.ranks = tuple(ranks)
        self.gens = generators(self.ranks)
        self._eta = {}
        self._rules = {}
        for lead, terms in etas.items():
            (j, p), (j2, q) = lead
            if not (
                j == j2
                and 1 <= j <= len(self.ranks)
                and 1 <= p < q <= self.ranks[j - 1]
            ):
                raise ValueError("eta lead %r is not a same-block pair" % (lead,))
            if terms.get(lead) != 1:
                raise ValueError(
                    "eta(%d;%d,%d) has lead coefficient %r, not 1"
                    % (j, p, q, terms.get(lead))
                )
            tail = {}
            for mono, c in terms.items():
                if mono == lead or not c:
                    # the merge in reduce_mono expects nonzero coefficients
                    continue
                (i, r), (b, s) = mono
                # the leading pair is e(j,p)e(j,q) only for tails e(i,r)e(j,s)
                # with i < j
                if not (
                    b == j
                    and 1 <= i < j
                    and 1 <= r <= self.ranks[i - 1]
                    and 1 <= s <= self.ranks[j - 1]
                ):
                    raise ValueError(
                        "term %r of eta(%d;%d,%d) is outside the earlier blocks"
                        % (mono, j, p, q)
                    )
                tail[mono] = c
            self._eta[lead] = {lead: 1, **tail}
            # eta = 0 rewrites e_g e_h to minus its tail, and e_h e_g to it
            self._rules[lead] = {m: -c for m, c in tail.items()}
            self._rules[lead[::-1]] = tail
        for j, n in enumerate(self.ranks, start=1):
            for p, q in combinations(range(1, n + 1), 2):
                if ((j, p), (j, q)) not in self._eta:
                    raise ValueError(
                        "missing kernel element for block %d pair (%d,%d)" % (j, p, q)
                    )
        self._memo = {}

    def __eq__(self, other):
        # rings with the same ranks and etas present the same quotient,
        # wherever they were built
        return (
            isinstance(other, CohomologyRing)
            and self.ranks == other.ranks
            and self._eta == other._eta
        )

    def __hash__(self):
        etas = frozenset((lead, frozenset(t.items())) for lead, t in self._eta.items())
        return hash((self.ranks, etas))

    @property
    def etas(self):
        """The eta table, keyed by leading pair in the order it was given."""
        return self._eta

    @property
    def num_blocks(self):
        return len(self.ranks)

    def eta(self, j, p, q):
        """The kernel element for pair ``(p, q)`` of block ``j``, as an element."""
        return ExtElem(self._eta[((j, p), (j, q))])

    def eta_elements(self):
        return [ExtElem(terms) for terms in self._eta.values()]

    def reduce_mono(self, mono):
        """Normal form of one monomial as a ``{monomial: coefficient}`` dict.

        Each step rewrites the leftmost same-block pair using its kernel
        element; the replacement monomials are strictly smaller in deg-lex
        order, so the rewriting terminates.  Monomials are sorted block
        first, so that pair is two adjacent generators, at positions ``k``
        and ``k + 1``, and moving it to the front takes ``2k``
        transpositions: an even permutation, with sign ``+1``.

        The memo stores only what it rewrites: the normal form of each
        monomial with a same-block pair, never a normal monomial, which is
        its own normal form.  Each rewrite moves one generator to an earlier
        block, so a monomial of degree ``d`` rewrites at most ``d(l-1)``
        times in a row and the recursion is at most ``d(l-1) + 1`` deep;
        on the certificate at ``purebraid 30`` it is 3 deep.  The returned
        dict may be the memo's own: do not change it.
        """
        return _reduce(mono, self._memo, self._rules)

    def normal_form(self, f):
        """The unique representative of ``f`` with no same-block pairs."""
        terms = {}
        for mono, coeff in f.terms.items():
            add_scaled(terms, self.reduce_mono(mono), coeff)
        return ExtElem(terms)

    def basis(self, k):
        """Normal monomials of degree ``k`` in deg-lex order."""
        if k < 0 or k > len(self.ranks):
            return []
        gens = [
            [(j, p) for p in range(1, n + 1)]
            for j, n in enumerate(self.ranks, start=1)
        ]
        monos = [m for chosen in combinations(gens, k) for m in product(*chosen)]
        return sorted(monos, key=deg_lex_key)

    def dimension(self, k):
        """Number of normal monomials of degree ``k``, i.e. ``len(basis(k))``.

        A normal monomial picks one generator from each of ``k`` blocks, so
        the count is the coefficient of ``t^k`` in ``prod (1 + n_j t)``.
        """
        betti = poincare_vector(self.ranks)
        return betti[k] if 0 <= k < len(betti) else 0

    def critical_pairs(self):
        """The checks of :meth:`critical_pair_verify`, as ``(lead, (g,))``.

        Each stands for the product ``e_g eta`` of the relation leading with
        ``lead = ((j, p), (j, q))`` and a generator ``g = (j, r)``, ``r <= q``.
        They come in relation order, then ``r = 1..q``: ``sum_j 2 C(n_j + 1,
        3)`` checks, all of degree three (see the module docstring).

        >>> from almostdirect.adp import pure_braid
        >>> sum(1 for _ in cohomology_ring(pure_braid(4)).critical_pairs())
        10
        """
        for lead in self._eta:
            (j, _), (_, q) = lead
            for r in range(1, q + 1):
                yield lead, ((j, r),)

    def critical_normal_forms(self):
        """Each check of :meth:`critical_pairs` with the normal form of its
        product, as ``(lead, (g,), terms)``.

        ``terms`` is the ``{monomial: coefficient}`` dict that
        :meth:`normal_form` gives ``e(j,r) eta(j;p,q)``, here summed as
        ``sum_t X_t e(j,t)`` straight from the rules (module docstring):
        no memo and no call of :meth:`reduce_mono`.
        """
        rules = self._rules
        for lead, cofactor in self.critical_pairs():
            (gp, gq), (gr,) = lead, cofactor
            # the first rewrite leaves terms c e_g times a pair of block j:
            # e_r e_s from e_r times the tail, e_s e_q from e_r e_p e_q
            # (which vanishes when r is p or q)
            firsts = [(c, g, (gr, gs)) for (g, gs), c in rules[lead].items()]
            if gr != gq:
                firsts += [
                    (c, g, (gs, gq))
                    for (g, gs), c in rules.get((gr, gp), _NO_RULE).items()
                ]
            out = {}
            for c, g, pair in firsts:
                for (h, gt), d in rules.get(pair, _NO_RULE).items():
                    # c d e_g e_h e_t: normal when g and h lie in two
                    # blocks, one rule away when they share one
                    if g[0] != h[0]:
                        if g < h:
                            out[g, h, gt] = out.get((g, h, gt), 0) + c * d
                        else:
                            out[h, g, gt] = out.get((h, g, gt), 0) - c * d
                    else:
                        for (a, b), k in rules.get((g, h), _NO_RULE).items():
                            out[a, b, gt] = out.get((a, b, gt), 0) + c * d * k
            yield lead, cofactor, {m: c for m, c in out.items() if c}

    def critical_pair_verify(self):
        """Certify the kernel elements are a Groebner basis from critical pairs.

        Returns None when every product of :meth:`critical_pairs` has normal
        form zero, which by the degree-three criterion of the module
        docstring proves the relations a Groebner basis in every degree.
        Otherwise returns the first failing ``(lead, (g,))``, which refutes
        the basis.

        >>> from almostdirect.adp import pure_braid
        >>> cohomology_ring(pure_braid(4)).critical_pair_verify() is None
        True
        """
        for lead, cofactor, terms in self.critical_normal_forms():
            if terms:
                return lead, cofactor
        return None

    def groebner_verify(self):
        """Certify the kernel elements are a Groebner basis, degree by degree.

        For each degree ``k`` the span of all exterior products ``m * eta``
        with ``m`` a monomial of degree ``k - 2`` is rank-computed by exact
        elimination, independent of the rewriting above, and compared with
        the count forced by the Hilbert series of the quotient.  Equality up
        to degree ``l + 1`` pins the ideal degreewise, makes the normal
        form unique, and certifies the quotient vanishes beyond degree
        ``l``; a quadratic Groebner basis also makes the ring Koszul.
        """
        n_total = len(self.gens)
        etas = self.eta_elements()
        report = GroebnerReport()
        for k in range(2, len(self.ranks) + 2):
            rows = []
            for m in combinations(self.gens, k - 2):
                e_m = ExtElem.monomial(m)
                for eta in etas:
                    row = (e_m * eta).terms
                    if row:
                        rows.append(row)
            expected = comb(n_total, k) - self.dimension(k)
            report.degrees.append(
                GroebnerDegree(k, span_rank(rows), expected)
            )
        return report


def cohomology_ring(spec):
    """The ring of a spec, from :meth:`~almostdirect.adp.AdpSpec.h2_entries`."""
    return CohomologyRing(
        spec.ranks, kernel_basis(h2_matrix(spec.ranks, spec.h2_entries()))
    )
