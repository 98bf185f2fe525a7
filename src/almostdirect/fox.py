"""Fox calculus over the integral group ring of a free group.

The free derivative ``d(w)/d(g)`` is computed by a left-to-right scan: a
letter ``g`` at position ``k`` contributes the prefix before it, and a letter
``g^-1`` contributes minus the prefix up to and including it.  This satisfies
the product rule ``d(uv) = d(u) + u d(v)`` and the fundamental formula

    w - 1 = sum over g of (d(w)/d(g)) (g - 1)

in the group ring.  :func:`fox_gradient` makes that scan once for all
generators: ``w`` is freely reduced, so each prefix is a slice of its
letters and is built once, as the word it already is.

Abelianizing coefficients (each generator ``x(i,p)`` becomes the Laurent
variable ``t(i,p)``) gives the gradients used by the degree-two chain map.
:func:`abel_gradient` computes them in one scan without building any word
or group ring element: it keeps the exponent sums of the prefix read so far,
and a letter ``g`` adds ``+t^(prefix)`` to the gradient of ``g`` while
``g^-1`` adds ``-t^(prefix - e_g)``.
"""

from __future__ import annotations

from .laurent import LaurentPoly, monomial
from .words import Word

__all__ = [
    "GroupRingElem",
    "fox_derivative",
    "fox_gradient",
    "abelianize_word",
    "abelianize",
    "abel_gradient",
]


class GroupRingElem:
    """An integer linear combination of words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {w: c for w, c in terms.items() if c}

    @classmethod
    def from_word(cls, w, c=1):
        return cls({w: c})

    @classmethod
    def one(cls):
        return cls({Word(): 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w, 0) + c
            if s:
                terms[w] = s
            else:
                terms.pop(w, None)
        return GroupRingElem(terms)

    def __neg__(self):
        return GroupRingElem({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElem({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, GroupRingElem):
            return NotImplemented
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                s = terms.get(w, 0) + c1 * c2
                if s:
                    terms[w] = s
                else:
                    del terms[w]
        return GroupRingElem(terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return GroupRingElem({w: other * c for w, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, GroupRingElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def augment(self):
        return sum(self.terms.values())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w.letters)):
            c = self.terms[w]
            body = str(w) if abs(c) == 1 else "%d (%s)" % (abs(c), w)
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out[0] + out[2:]

    __repr__ = __str__


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
        key = Word(letters[:k] if e == 1 else letters[: k + 1])
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
    exps = {}
    grad = {}
    for g, e in w.letters:
        if e == -1:
            exps[g] = exps.get(g, 0) - 1
        mono = monomial(exps)
        terms = grad.setdefault(g, {})
        s = terms.get(mono, 0) + e
        if s:
            terms[mono] = s
        else:
            del terms[mono]
        if e == 1:
            exps[g] = exps.get(g, 0) + 1
    return {g: LaurentPoly(terms) for g, terms in grad.items() if terms}


if __name__ == "__main__":
    import doctest

    doctest.testmod()
