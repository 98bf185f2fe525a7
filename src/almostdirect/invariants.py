"""Numerical invariants: Hilbert series, lower central series ranks,
zero-divisor cup length, and topological complexity certificates.

The Poincare polynomial of the cohomology ring is the product of
``1 + n_j t`` over the blocks, so its coefficients are elementary symmetric
functions of the ranks.  The ranks ``phi_k`` of the lower central series
quotients come from the same data by Moebius inversion of
``prod (1 - n_j t) = prod_k (1 - t^k)^{phi_k}``.

Topological complexity is bracketed through the tensor square of the
cohomology ring.  The product of the standard zero divisors
``1 (x) u - u (x) 1`` is never zero: :func:`witness_term` names one of its
terms and the ``+-1`` coefficient that term carries, which bounds TC from
below by the number of factors plus one.  The block structure bounds it
from above, and the two meet exactly when every block that acts or is
acted on nontrivially has rank at least two.  :func:`zcl_witness` expands
the whole product, one block's factors per pass.  :class:`TensorElem`
builds on :class:`~almostdirect.sparse.Sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .exterior import mono_mul, mono_token, poincare_vector
from .sparse import Sparse

__all__ = [
    "poincare_vector",
    "lcs_ranks",
    "lcs_identity_holds",
    "TensorElem",
    "ZclWitness",
    "zcl_witness",
    "witness_term",
    "TcCertificate",
    "tc_certificate",
]


def _mobius(n):
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def lcs_ranks(ranks, max_k):
    """Ranks of the lower central series quotients, degrees 1 to ``max_k``.

    >>> lcs_ranks((1, 2), 3)
    (3, 1, 2)
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    out = []
    for k in range(1, max_k + 1):
        total = 0
        for d in range(1, k + 1):
            if k % d == 0:
                total += _mobius(k // d) * sum(n**d for n in ranks)
        if total % k:
            raise ArithmeticError("Moebius sum not divisible at k=%d" % k)
        out.append(total // k)
    return tuple(out)


def _trunc_mul(a, b, top):
    # a factor (1 - t^k)^phi_k has only top/k + 1 nonzero coefficients
    b = [(j, bj) for j, bj in enumerate(b) if bj]
    out = [0] * (top + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in b:
                if i + j > top:
                    break
                out[i + j] += ai * bj
    return out


def lcs_identity_holds(ranks, max_k):
    """Check ``prod (1 - n t) = prod_k (1 - t^k)^phi_k`` through ``t^max_k``."""
    phi = lcs_ranks(ranks, max_k)
    lhs = [1]
    for n in ranks:
        lhs = _trunc_mul(lhs, [1, -n], max_k)
    rhs = [1]
    for k, p in enumerate(phi, start=1):
        factor = [0] * (max_k + 1)
        for m in range(0, max_k // k + 1):
            factor[k * m] = (-1) ** m * comb(p, m)
        rhs = _trunc_mul(rhs, factor, max_k)
    lhs += [0] * (max_k + 1 - len(lhs))
    return lhs[: max_k + 1] == rhs[: max_k + 1]


class TensorElem(Sparse):
    """An element of the tensor square of a cohomology ring.

    Terms map pairs of normal monomials to coefficients; multiplication
    follows the sign rule ``(a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd``
    with both components reduced to normal form.  Elements of different
    rings do not add, subtract or multiply.
    """

    __slots__ = ("ring",)

    UNIT = ((), ())

    def __init__(self, ring, terms=None):
        self.ring = ring
        super().__init__(terms)

    @classmethod
    def one(cls, ring):
        return cls(ring, {cls.UNIT: 1})

    def _new(self, terms):
        return TensorElem(self.ring, terms)

    def _same_ring(self, other):
        return other.ring is self.ring or other.ring == self.ring

    def _coerce(self, other):
        if isinstance(other, TensorElem) and not self._same_ring(other):
            return None
        return super()._coerce(other)

    @staticmethod
    def _key_str(key):
        return "%s(x)%s" % tuple(map(mono_token, key))

    def __mul__(self, other):
        if not isinstance(other, TensorElem):
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
        return TensorElem(ring, terms)


@dataclass
class ZclWitness:
    """The product of the standard zero divisors.

    ``num_factors`` is ``2 a + b`` where ``a`` blocks have rank at least
    two and ``b`` have rank one, and ``element`` is the product of that many
    factors, taken in block order.  It is never zero (see
    :func:`witness_term`), so ``num_factors`` is also the length of the
    longest nonzero prefix product.
    """

    num_factors: int
    element: TensorElem


def zcl_witness(ring):
    """Multiply the standard zero divisors, one block at a time.

    The factors are ``z(u) = 1 (x) u - u (x) 1`` for ``u = x, y``, with
    ``x = e(j,1)`` and ``y = e(j,2)``, per block ``j`` of rank at least two,
    and for ``u = x`` alone at rank one, in block order.  The product is
    never zero: its term :func:`witness_term` has coefficient ``+-1``.

    Each block multiplies the prefix product of the earlier blocks on the
    right by ``z(x)`` or by ``z(x) z(y) = 1 (x) xy + y (x) x - x (x) y +
    xy (x) 1``.  Every monomial of the prefix lies in blocks ``< j`` (see
    :func:`witness_term`), so a term ``a (x) b`` becomes

        a (x) NF(b xy) + (-1)^|b| (ay (x) bx - ax (x) by) + NF(a xy) (x) b

    or ``a (x) bx - (-1)^|b| ax (x) b`` at rank one.  The appended
    monomials are normal, and the reductions are those of the product of
    the factors ``z(u)``, so the result agrees term for term.

    A rewrite keeps the degree of a monomial and keeps it in blocks
    ``1..j``, because the constructor refuses a tail outside the earlier
    blocks, and a normal monomial there has at most ``j`` generators.  So
    ``NF(b xy)`` is zero when ``|b| >= j - 1``, on every ring the
    constructor accepts, Groebner basis or not, and
    :meth:`~almostdirect.exterior.CohomologyRing.reduce_mono` runs only on
    a side of at most ``j - 2`` generators.  For the same reason the normal
    monomials of blocks ``1..j`` span the cohomology ring of the quotient
    group on those blocks, and the prefix through block ``j`` is that
    quotient's own witness.
    """
    reduce_mono = ring.reduce_mono
    element = {TensorElem.UNIT: 1}
    for j, n in enumerate(ring.ranks, start=1):
        x = (j, 1)
        monos = {m for key in element for m in key}
        with_x = {m: m + (x,) for m in monos}
        terms = {}
        if n == 1:
            for (a, b), c in element.items():
                terms[(a, with_x[b])] = c
                terms[(with_x[a], b)] = c if len(b) & 1 else -c
            element = terms
            continue
        y = (j, 2)
        xy = (x, y)
        with_y = {m: m + (y,) for m in monos}
        # a reduction can reach a monomial that a block also appends
        shared = {m: m for m in (*with_x.values(), *with_y.values())}.setdefault
        get = terms.get
        bound = j - 2
        for (a, b), c in element.items():
            # an appended key has block j on both sides and comes from this
            # term alone; a reduced key has it on one side only, so reduced
            # keys are the only ones that can meet, and cancel
            cb = -c if len(b) & 1 else c
            terms[(with_y[a], with_x[b])] = cb
            terms[(with_x[a], with_y[b])] = -cb
            if len(b) <= bound:
                for m, cm in reduce_mono(b + xy).items():
                    key = (a, shared(m, m))
                    s = get(key, 0) + c * cm
                    if s:
                        terms[key] = s
                    else:
                        del terms[key]
            if len(a) <= bound:
                for m, cm in reduce_mono(a + xy).items():
                    key = (shared(m, m), b)
                    s = get(key, 0) + c * cm
                    if s:
                        terms[key] = s
                    else:
                        del terms[key]
        element = terms
    # every coefficient is nonzero: the product takes the dict as it is
    product = TensorElem(ring)
    product.terms = element
    (left, right), _ = witness_term(ring.ranks)
    return ZclWitness(len(left) + len(right), product)


def witness_term(ranks):
    """One term of the zero-divisor product and its coefficient, in O(l).

    Reads only the block ranks ``ranks`` of the ring.  Returns ``((X, Y),
    sign)``.  ``X`` picks ``e(j,1)`` in every block of rank at least two;
    ``Y`` picks ``e(j,2)`` in those blocks and ``e(j,1)`` in the rank-one
    blocks; ``sign`` is the product of ``-(-1)^(j-1)`` over the blocks of
    rank at least two.  The product :func:`zcl_witness`
    computes has coefficient ``sign`` on ``X (x) Y``, on every ring the
    constructor accepts, whether or not its relations are a Groebner basis.

    The proof is an induction over the blocks.  Write ``P_j`` for the
    product of the factors of blocks ``1..j`` and ``X_j (x) Y_j`` for the
    part of the term in those blocks.  A rewrite turns a pair in block
    ``i`` into tails ``e(h,r) e(i,s)`` with ``h < i``, because the
    constructor refuses any other tail, so every monomial of ``P_{j-1}``
    lies in blocks ``< j``.

    * The factor for ``e(j,1)`` therefore only appends ``e(j,1)`` on one
      side of each term.  For a rank-one block, ``X_j (x) Y_j`` arises only
      from ``X_{j-1} (x) Y_{j-1}`` this way, with sign ``+1``.
    * For a block of rank at least two, a term with ``e(j,1)`` on the left
      and ``e(j,2)`` on the right comes only from appending ``e(j,2)`` on
      the right of a term ``a e(j,1) (x) b``.  That path carries
      ``-(-1)^|b|``, and ``|Y_{j-1}| = j - 1``.
    * Every other path ends with ``e(j,2)`` on the left, or puts
      ``e(j,1) e(j,2)`` on one side.  The rewrite of that pair leaves one
      generator of block ``j`` and none on the other side, and rewrites in
      earlier blocks never touch block ``j``.  Neither kind of term is
      ``X_j (x) Y_j``.

    So the coefficient of ``X_j (x) Y_j`` in ``P_j`` is ``+-1`` times that
    of ``X_{j-1} (x) Y_{j-1}`` in ``P_{j-1}``, the product is never zero,
    and the lower bound ``TC >= 2 a + b + 1`` needs no product at all.

    >>> from almostdirect.adp import pure_braid
    >>> from almostdirect.exterior import cohomology_ring
    >>> ring = cohomology_ring(pure_braid(4))
    >>> witness_term(ring.ranks)
    ((((2, 1), (3, 1)), ((1, 1), (2, 2), (3, 2))), -1)
    >>> zcl_witness(ring).element.terms[witness_term(ring.ranks)[0]]
    -1
    """
    left, right = [], []
    sign = 1
    for j, n in enumerate(ranks, start=1):
        if n >= 2:
            left.append((j, 1))
            right.append((j, 2))
            if j & 1:
                sign = -sign
        else:
            right.append((j, 1))
    return (tuple(left), tuple(right)), sign


@dataclass
class TcCertificate:
    """Bracketing of topological complexity, tight when bounds meet.

    ``lower_bound`` is one more than ``witness_degree``, the number
    ``2 a + b`` of standard zero divisors, whose product is nonzero because
    its term :func:`witness_term` has coefficient ``+-1``;
    ``upper_bound`` is ``2 * free_blocks + torus_blocks + 1`` where
    ``torus_blocks`` counts rank-1 blocks acting trivially on all later
    blocks (these split off as direct circle factors) and ``free_blocks``
    counts the rest.  ``exact`` is set iff the bounds agree.
    """

    lower_bound: int
    upper_bound: int
    exact: int | None
    witness_degree: int
    free_blocks: int
    torus_blocks: int


def tc_certificate(spec):
    """Bracket TC of ``spec``; for ``G x Z^m`` pass ``extend_with_torus``.

    Both bounds read the block structure alone, so no ring is built: the
    lower bound is the length of the product whose term
    :func:`witness_term` has coefficient ``+-1`` on every ring the
    constructor accepts.
    """
    (left, right), _ = witness_term(spec.ranks)
    degree = len(left) + len(right)
    torus_blocks = sum(
        1
        for j, n in enumerate(spec.ranks, start=1)
        if n == 1 and spec.acts_trivially_beyond(j)
    )
    free_blocks = len(spec.ranks) - torus_blocks
    lower = degree + 1
    upper = 2 * free_blocks + torus_blocks + 1
    return TcCertificate(
        lower_bound=lower,
        upper_bound=upper,
        exact=lower if lower == upper else None,
        witness_degree=degree,
        free_blocks=free_blocks,
        torus_blocks=torus_blocks,
    )
