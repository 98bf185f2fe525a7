"""Exact sparse Gaussian elimination over the rationals.

Rows are dicts from hashable column keys to integers or Fractions.  Ranks
are computed fraction free: each row is scaled to integers, then reduced
against stored pivot rows by cross multiplication with gcd control, so there
is no rounding anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .sparse import add_scaled

__all__ = ["span_rank"]


def _integer_row(row):
    denom = 1
    for v in row.values():
        if isinstance(v, Fraction):
            denom = lcm(denom, v.denominator)
    out = {}
    for c, v in row.items():
        iv = int(v * denom)
        if iv:
            out[c] = iv
    return out


def _reduce_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class Eliminator:
    """Incremental row reduction; feed rows, read off the rank."""

    def __init__(self):
        self.pivots = {}
        self.rank = 0

    def add(self, row):
        """Reduce ``row`` against the pivots; returns True if independent."""
        row = _integer_row(row)
        # reduce until the leading column has no pivot; a row in the span
        # reduces to {}
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                break
            a, b = row[lead], piv[lead]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            new = {c: v * fa for c, v in row.items()}
            row = _reduce_content(add_scaled(new, piv, -fb))
        else:
            return False
        # the break left lead at the leading column, which scaling keeps
        row = _reduce_content(row)
        if row[lead] < 0:
            row = {c: -v for c, v in row.items()}
        self.pivots[lead] = row
        self.rank += 1
        return True


def _keyed(rows):
    # Column keys may be arbitrary; replace them by ints so rows compare fast.
    ids = {}
    out = []
    for row in rows:
        r = {}
        for c, v in row.items():
            if v:
                r[ids.setdefault(c, len(ids))] = v
        out.append(r)
    return out


def span_rank(rows):
    """The rank of the span of the given sparse rows, exactly.

    >>> span_rank([{ "a": 1, "b": 2 }, { "a": 2, "b": 4 }, { "b": 1 }])
    2
    """
    elim = Eliminator()
    for row in _keyed(rows):
        elim.add(row)
    return elim.rank
