"""Multivariate Laurent polynomials with integer coefficients.

One variable ``t(block, index)`` per group generator.  These appear as the
coefficients of the abelianized Fox calculus: a word abelianizes to the
monomial recording its exponent sums, and gradients of words live in free
modules over this ring.

Monomials are stored as sorted tuples of ``(variable, exponent)`` pairs with
nonzero exponents, so equality of polynomials is dict equality.
:class:`LaurentPoly` builds on :class:`~almostdirect.sparse.Sparse`.
"""

from __future__ import annotations

from .sparse import Sparse

__all__ = ["LaurentPoly", "t", "monomial"]


def monomial(exponents):
    """Canonical monomial key from a ``{variable: exponent}`` mapping."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e))


class LaurentPoly(Sparse):
    """An integer Laurent polynomial in the variables ``t(block, index)``.

    >>> p = t(1, 1) - 1
    >>> print(p * t(1, 1, -1))
    1 - t(1,1)^-1
    >>> (p - p).is_zero()
    True
    """

    __slots__ = ()

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @staticmethod
    def _key_mul(m1, m2):
        if not m1:
            return 1, m2
        if not m2:
            return 1, m1
        exps = dict(m1)
        for v, e in m2:
            s = exps.get(v, 0) + e
            if s:
                exps[v] = s
            else:
                del exps[v]
        return 1, tuple(sorted(exps.items()))

    @staticmethod
    def _key_str(m):
        return " ".join(
            "t(%d,%d)" % v if e == 1 else "t(%d,%d)^%d" % (v[0], v[1], e)
            for v, e in m
        )


def t(block, index, power=1):
    """The Laurent monomial ``t(block, index) ** power`` as a polynomial."""
    if power == 0:
        return LaurentPoly.constant(1)
    return LaurentPoly({(((block, index), power),): 1})
