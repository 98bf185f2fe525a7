"""Sparse linear combinations with exact coefficients.

Every algebra of the package stores an element the same way: ``terms``, a
dict from a hashable key (a monomial, a word, a pair of monomials) to a
nonzero integer or Fraction.  :class:`Sparse` holds the arithmetic that
does not depend on what the keys mean: sums, negation, scalar multiples,
equality, hashing and the signed string form.  A subclass names its unit
key, how two keys multiply, and how a key prints.

:func:`add_scaled` is the merge under all of it, also used on the plain row
dicts of :mod:`~almostdirect.linalg`.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Sparse", "add_scaled"]

_SCALARS = (int, Fraction)


def add_scaled(out, terms, k=1):
    """Add ``k`` times the coefficient dict ``terms`` into ``out``, in place.

    Keys whose coefficient cancels are removed, so ``out`` keeps only
    nonzero coefficients.  Returns ``out``.

    >>> add_scaled({"a": 2, "b": 1}, {"a": 1, "c": 3}, -2)
    {'b': 1, 'c': -6}
    """
    for m, c in terms.items():
        s = out.get(m, 0) + k * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


class Sparse:
    """A finite linear combination of keys with nonzero exact coefficients.

    Subclasses set ``UNIT``, the key of the element ``1``, so that integers
    and Fractions stand for multiples of ``1`` in ``+``, ``-`` and ``==``;
    ``_key_mul(m1, m2)``, returning ``(sign, key)`` or None when the product
    vanishes; ``_key_str`` (or all of ``_term_str``); and ``_order``, the
    sort key of the printed terms (None sorts the keys themselves).
    """

    __slots__ = ("terms",)

    UNIT = ()
    _order = None

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    def _new(self, terms):
        return type(self)(terms)

    def _coerce(self, other):
        # other as an element of the same algebra, or None
        if isinstance(other, type(self)):
            return other
        if isinstance(other, _SCALARS):
            return self._new({self.UNIT: other})
        return None

    @classmethod
    def one(cls):
        return cls({cls.UNIT: 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def augment(self):
        """Sum of the coefficients."""
        return sum(self.terms.values())

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(add_scaled(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._new(add_scaled(dict(self.terms), other.terms, -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._new({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        key_mul = self._key_mul
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = key_mul(m1, m2)
                if prod is None:
                    continue
                sign, m = prod
                s = terms.get(m, 0) + sign * c1 * c2
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return self._new(terms)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self._new({m: other * c for m, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a multiple of 1 equals its coefficient, so it hashes like it
        if self.terms.keys() <= {self.UNIT}:
            return hash(self.terms.get(self.UNIT, 0))
        return hash(frozenset(self.terms.items()))

    def _term_str(self, key, c):
        # one term for a positive coefficient c; a key printing as the empty
        # string is the unit, shown by its coefficient alone
        body = self._key_str(key)
        if not body:
            return str(c)
        return body if c == 1 else "%s %s" % (c, body)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=self._order):
            c = self.terms[m]
            parts.append(("- " if c < 0 else "+ ") + self._term_str(m, abs(c)))
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out[0] + out[2:]

    __repr__ = __str__
