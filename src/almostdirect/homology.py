"""The degree-two chain map and the kernel basis of its matrix.

Over the Laurent coefficient ring, the Koszul complex on the generators
``e(i,p)`` has differentials

    d1(e_a) = t_a - 1
    d2(e_a e_b) = -(t_a - 1) e_b + (t_b - 1) e_a

with the sign of a generator inside a wedge monomial depending on its
position, so that ``d2(f ^ g) = d1(g) f - d1(f) g`` for degree-one ``f, g``.
A relation ``x(j,q) x(i,p) = x(i,p) x(j,q) w`` with ``w`` a product of
commutators ``[u_k, v_k]`` is sent to

    a2(r) = e(i,p) e(j,q) + t(i,p) t(j,q) sum_k grad(u_k) ^ grad(v_k)

and :func:`verify_chain_map` confirms ``d2(a2(r))`` equals the abelianized
Fox gradient of the relator ``x(j,q) x(i,p) w^-1 x(j,q)^-1 x(i,p)^-1``,
which is exactly the degree-two differential of the presentation.

That identity follows from the words alone.  Fox's fundamental formula
gives ``d1(grad u) = ab(u) - 1`` for any word ``u``, ``ab`` its abelianized
monomial, so ``d2(grad u ^ grad v) = -grad [u, v]``.  The gradient of a
product of commutators is the sum of their gradients, because each prefix
abelianizes to 1.  So when the commutators of the pairs multiply to ``w``
in the free group, ``d2(a2(r))`` and the gradient of the relator agree
term by term.  The pairs of
:func:`~almostdirect.words.commutator_decompose` multiply to ``w`` by its
loop invariant, so ``verify`` checks neither the words nor the chain map;
:func:`verify_chain_map` is the Laurent oracle of the tests, which also
multiply the pairs back.  Word equality is the stronger check:
abelianized Fox derivatives see a word only through ``F/F''`` (the Magnus
embedding), so appending an element of ``F''`` such as
``[[a, b], [a^2, b]]`` to ``w`` passes the oracle and fails the
reassembly.

Applying the augmentation (every ``t -> 1``) to ``a2`` gives an integer
matrix ``A`` whose rows are indexed by relations and columns by products of
two generators.  The augmentation is a ring map and the wedge is bilinear,
so row ``r`` is ``e(i,p) e(j,q) + sum_k ab(u_k) ^ ab(v_k)``, ``ab`` the
exponent-sum vector (Fox's fundamental formula).  That pair formula belongs
to the oracle.  When the pairs multiply to ``w``, the sum is the class of
``w`` in ``gamma2 F / gamma3 F = Lambda^2 H`` (Magnus-Karrass-Solitar,
*Combinatorial Group Theory*, Ch. 5), which depends on ``w`` alone.  Its
coefficient on ``e_a e_b``, ``a < b``, is the degree-two Magnus
coefficient of the letters ``g_1^eps_1 ... g_m^eps_m`` of ``w``

    c_ab(w) = sum eps_k eps_l  over k < l with g_k = a, g_l = b,

which :func:`h2_matrix` reads off the image ``phi(x(j,q))`` instead.  The
two agree: ``w`` is the free reduction of ``x(j,q)^-1 phi(x(j,q))``, a
cancelling pair ``g^e g^-e`` adds terms to ``c_ab`` that cancel in sign,
and the leading ``x(j,q)^-1`` only adds ``-sigma_b(phi(x(j,q)))``, the
exponent sum of ``b``, to column ``(x(j,q), b)``, ``b > x(j,q)``: 0 for IA.

For a magnus action ``phi`` the class of ``w`` is ``tau_1(phi)(x(j,q))``,
where ``tau_1`` is the Johnson homomorphism (Johnson, Math. Ann. 249,
1980).  It is additive over the factors of the IA word, so
:meth:`~almostdirect.words.IAWord.johnson` sums one wedge per factor and
the image is never expanded; :func:`h2_matrix` takes those classes as they
are.

It raises :class:`RowStructureError` unless each row has a single 1 in its
mixed column and its other entries in the columns of the acted-on block.
Then ``A`` has full row rank, and the kernel of right multiplication by
``A`` is spanned by one element per same-block pair of generators:

    eta(j; p, q) = e(j,p) e(j,q) + sum kappa e(i,r) e(j,s)

with ``kappa(i, r, s) = -A[(i, j, r, s), (e(j,p), e(j,q))]``.

A relation whose generator the action fixes has the empty word ``w``.  It
has no pairs, and its row is the mixed unit alone, which no eta reads.
The spec's image table and the table of relation words hold the moved
generators only, and the ``tau_1`` table the generators of nonzero class,
so :func:`h2_matrix` builds their rows only: the other rows are implied by
:class:`H2Matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .adp import relation_keys
from .fox import abel_gradient
from .laurent import LaurentPoly, t
from .linalg import span_rank
from .sparse import add_scaled
from .words import Word, commutator_decompose, x

__all__ = [
    "wedge",
    "chain_a2",
    "koszul_d2",
    "delta2",
    "verify_chain_map",
    "ChainMapReport",
    "H2Matrix",
    "RowStructureError",
    "h2_matrix",
    "kernel_basis",
]


def wedge(f, g):
    """Exterior product of two degree-one vectors, Laurent or integer."""
    terms = {}
    for a, fa in f.items():
        for b, gb in g.items():
            if a == b:
                continue
            key, val = ((a, b), fa * gb) if a < b else ((b, a), -(gb * fa))
            cur = terms.get(key)
            terms[key] = val if cur is None else cur + val
    return {k: v for k, v in terms.items() if v}


def chain_a2(key, word):
    """The degree-two chain map on the relation ``key`` with word ``word``,
    over the Laurent ring."""
    i, j, p, q = key
    terms = {((i, p), (j, q)): LaurentPoly.constant(1)}
    scale = t(i, p) * t(j, q)
    for u, v in commutator_decompose(word):
        add_scaled(terms, wedge(abel_gradient(u), abel_gradient(v)), scale)
    return terms


def koszul_d2(k2):
    """Koszul differential of a degree-two element, as a gradient vector."""
    out = {}
    for (a, b), val in k2.items():
        add_scaled(out, {a: (t(*b) - 1) * val, b: (1 - t(*a)) * val})
    return out


def delta2(key, word):
    """The presentation differential: the Fox gradient of the relator
    ``x(j,q) x(i,p) w^-1 x(j,q)^-1 x(i,p)^-1``."""
    i, j, p, q = key
    return abel_gradient(x(j, q) * x(i, p) * ~word * x(j, q, -1) * x(i, p, -1))


@dataclass
class ChainMapReport:
    """The verdict of :func:`verify_chain_map` and each failing relation."""

    ok: bool
    failures: list = field(default_factory=list)


def verify_chain_map(ranks, words):
    """Check ``d2 o a2 = delta2`` on every relation of the given ranks.

    ``words`` maps relation keys to words, as :func:`h2_matrix` reads
    them.  A key it lacks has the empty word and is checked too: its mixed
    term ``e(i,p) e(j,q)`` is real.
    """
    failures = []
    unmoved = Word()
    for key in relation_keys(ranks):
        word = words.get(key, unmoved)
        lhs = koszul_d2(chain_a2(key, word))
        rhs = delta2(key, word)
        if lhs != rhs:
            failures.append((key, lhs, rhs))
    return ChainMapReport(ok=not failures, failures=failures)


class H2Matrix:
    """The augmented chain map matrix, rows by relations, columns by pairs.

    ``rows`` maps a relation key ``(i, j, p, q)`` to its row: a dict from
    column pairs to nonzero integers.  A key of the ranks without an entry
    has the implied unit row ``{e(i,p) e(j,q): 1}``, the row of a relation
    with the empty word, so :func:`h2_matrix` stores the rows of moved
    relations only.  :meth:`has_full_row_rank` reads every row, implied or
    stored.
    """

    __slots__ = ("ranks", "rows")

    def __init__(self, ranks, rows):
        self.ranks = ranks
        self.rows = rows

    def has_full_row_rank(self):
        # each implied unit row is the only pivot its mixed column needs:
        # it adds one to the rank and clears that column from the stored
        # rows, which leaves their rank to decide
        rows = self.rows
        stored = [
            {
                (a, b): c
                for (a, b), c in row.items()
                if a[0] == b[0] or (a[0], b[0], a[1], b[1]) in rows
            }
            for row in rows.values()
        ]
        return span_rank(stored) == len(stored)


class RowStructureError(ValueError):
    """A row of :func:`h2_matrix` off its structure, at key ``row`` and
    column ``col``."""

    def __init__(self, row, col, message):
        super().__init__(message)
        self.row = row
        self.col = col


def h2_matrix(ranks, table):
    """The augmented chain map over all relations, as one integer matrix.

    ``table`` maps relation keys ``(i, j, p, q)`` to words, and each gets
    the row of the module docstring: the mixed unit plus the ``c_ab`` of
    its word, in one pass over the letters with running exponent sums.  A
    key may instead map to that class itself, a dict ``{(a, b): c}``, as
    :meth:`~almostdirect.words.IAWord.johnson` gives it for a magnus
    action.  Images, relation words and ``tau_1`` give the same rows, up
    to unit rows stored or implied.  Any other key has the implied unit
    row of :class:`H2Matrix`.
    Raises :class:`RowStructureError`, naming the row and column, unless
    the mixed entry is 1 and every other entry sits in a same-block column
    of block ``j``: the structure that gives the matrix an identity minor
    and makes each eta of :func:`kernel_basis` annihilate every row.
    Every image of a spec has it, so only a table of the caller's own can
    break it.
    """
    rows = {}
    for key, entry in table.items():
        i, j, p, q = key
        mixed = ((i, p), (j, q))
        summed = {mixed: 1}
        if isinstance(entry, dict):  # the class itself
            summed.update(entry)
        else:
            sums = {}  # exponent sums of the letters read so far
            for b, eps in entry.letters:
                for a, s in sums.items():
                    if a < b and s:
                        summed[(a, b)] = summed.get((a, b), 0) + s * eps
                sums[b] = sums.get(b, 0) + eps
        # one walk drops the cancelled entries and checks the others
        row = {}
        for pair, c in summed.items():
            if not c:
                continue
            if pair != mixed and not (pair[0][0] == pair[1][0] == j):
                raise RowStructureError(
                    key,
                    pair,
                    "row %s has an entry outside its blocks at %s" % (key, pair),
                )
            row[pair] = c
        if row.get(mixed) != 1:
            raise RowStructureError(
                key, mixed, "row %s lacks its unit mixed entry" % (key,)
            )
        rows[key] = row
    return H2Matrix(ranks, rows)


def kernel_basis(matrix):
    """The eta table: one kernel element per same-block pair ``p < q``.

    Keys are the leading pairs ``((j, p), (j, q))``, in block order and
    then by ``(p, q)``; each value is a dict from degree-two monomials to
    integers, ``1`` on the leading pair and, on ``e(i,r) e(j,s)``, minus
    the entry of row ``(i, j, r, s)`` in column ``(e(j,p), e(j,q))``.  The
    stored rows come in ``(j, i, r, s)`` order, so one pass over them fills
    each eta in ``(i, r, s)`` order; an implied unit row has no entry in a
    same-block column, so it adds nothing.
    """
    etas = {}
    for j, n in enumerate(matrix.ranks, start=1):
        for p, q in combinations(range(1, n + 1), 2):
            lead = ((j, p), (j, q))
            etas[lead] = {lead: 1}
    for (i, j, r, s), row in matrix.rows.items():
        for col, c in row.items():
            if col[0][0] == col[1][0] == j:
                etas[col][((i, r), (j, s))] = -c
    return etas
