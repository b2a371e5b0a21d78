"""The polynomial ring over `MPoly`'s term maps: the tests' oracle for the
resultant's closed forms, the Bareiss determinant and the packed exact
division.

The package builds each resultant on Kronecker-packed monomials
(`singres.mpoly`) and keeps `MPoly` as its value type only; `RingPoly`
expands the same f/g-coefficient polynomials term by term, on exponent
tuples, with no packing.
"""

from __future__ import annotations

from fractions import Fraction

from singres.mpoly import MPoly


class RingPoly(MPoly):
    """An `MPoly` with +, -, * and ** over one variable tuple; int and
    Fraction scalars act as constants.  Equal to any `MPoly` of the same
    variables and terms."""

    __slots__ = ()

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): 1})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return self.vars == other.vars and self.terms == other.terms

    def _coerce(self, other):
        return RingPoly.const(self.vars, other) if isinstance(other, (int, Fraction)) else other

    def __neg__(self):
        return RingPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            out[e] = out.get(e, 0) + c
        return RingPoly(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other, out = self._coerce(other), {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return RingPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = RingPoly.const(self.vars, 1)
        for _ in range(k):
            out = out * self
        return out
