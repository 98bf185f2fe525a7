"""Fox calculus over the integral group ring of a free group.

The free derivative ``d(w)/d(g)`` is computed by a left-to-right scan: a
letter ``g`` at position ``k`` contributes the prefix before it, and a letter
``g^-1`` contributes minus the prefix up to and including it.  This satisfies
the product rule ``d(uv) = d(u) + u d(v)`` and the fundamental formula

    w - 1 = sum over g of (d(w)/d(g)) (g - 1)

in the group ring.  :func:`fox_gradient` makes that scan once for all
generators: ``w`` is freely reduced, so each prefix is a slice of its
letters, reduced already, and is built once as a word with no reduction.

Abelianizing coefficients (each generator ``x(i,p)`` becomes the Laurent
variable ``t(i,p)``) gives the gradients used by the degree-two chain map.
:func:`abel_gradient` is that composition, :func:`abelianize` applied to
:func:`fox_gradient`: the reference algorithm, used only by the Laurent
oracle of :mod:`~almostdirect.homology`.

:class:`GroupRingElem` builds on :class:`~almostdirect.sparse.Sparse`.
"""

from __future__ import annotations

from .laurent import LaurentPoly, monomial
from .sparse import Sparse
from .words import Word, _word

__all__ = [
    "GroupRingElem",
    "fox_derivative",
    "fox_gradient",
    "abelianize_word",
    "abelianize",
    "abel_gradient",
]


class GroupRingElem(Sparse):
    """An integer linear combination of words."""

    __slots__ = ()

    UNIT = Word()
    _order = staticmethod(lambda w: (len(w), w.letters))

    @staticmethod
    def _key_mul(w1, w2):
        return 1, w1 * w2

    @staticmethod
    def _term_str(w, c):
        return str(w) if c == 1 else "%s (%s)" % (c, w)


def fox_derivative(w, g):
    """The free derivative of ``w`` with respect to the generator ``g``.

    >>> from .words import x
    >>> print(fox_derivative(x(1, 1) * x(1, 2), (1, 1)))
    1
    >>> print(fox_derivative(x(1, 1, -1), (1, 1)))
    -x(1,1)^-1
    """
    return fox_gradient(w).get(g, GroupRingElem())


def fox_gradient(w):
    """All nonzero free derivatives of ``w``, keyed by generator."""
    letters = w.letters
    grad = {}
    for k, (g, e) in enumerate(letters):
        key = _word(letters[:k] if e == 1 else letters[: k + 1])
        terms = grad.setdefault(g, {})
        s = terms.get(key, 0) + e
        if s:
            terms[key] = s
        else:
            del terms[key]
    return {g: GroupRingElem(terms) for g, terms in grad.items() if terms}


def abelianize_word(w):
    """The Laurent monomial of exponent sums of ``w``."""
    return LaurentPoly({monomial(w.exponent_sums()): 1})


def abelianize(elem):
    """Push a group ring element to the Laurent polynomial ring."""
    out = LaurentPoly()
    for w, c in elem.terms.items():
        out = out + c * abelianize_word(w)
    return out


def abel_gradient(w):
    """The abelianized Fox gradient: generator to Laurent polynomial.

    >>> from .words import commutator, x
    >>> grad = abel_gradient(commutator(x(2, 1), x(2, 2)))
    >>> print(grad[(2, 1)], "|", grad[(2, 2)])
    1 - t(2,2) | -1 + t(2,1)
    """
    grad = {g: abelianize(d) for g, d in fox_gradient(w).items()}
    return {g: poly for g, poly in grad.items() if poly}
