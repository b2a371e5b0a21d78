"""Sparse multivariate polynomials over exact scalars and the Sylvester
resultant of a support pair with symbolic coefficients.

Coefficient variables are named f<b> / g<b> after the exponents of the two
supports.  The resultant is the determinant of the classical Sylvester
matrix of the two homogenized forms, computed by fraction-free (Bareiss)
elimination with exact polynomial division.  Elimination and division run on
Kronecker-packed monomials: each exponent tuple becomes one int, so a
monomial product is one addition and a divisibility test one subtraction
plus a guard-bit mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .supports import SupportPair

__all__ = [
    "MPoly",
    "SylvesterMatrix",
    "sylvester_matrix",
    "resultant_poly",
    "specialize",
    "jacobian_vanishes",
    "determinant",
]

DEFAULT_DET_BOUND = 16


class MPoly:
    """Sparse multivariate polynomial: exponent tuples -> nonzero coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for exp, c in (terms or {}).items():
            if c:
                clean[tuple(exp)] = c
        self.terms = clean

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        i = vars.index(name)
        exp = [0] * len(vars)
        exp[i] = 1
        return cls(vars, {tuple(exp): 1})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.vars, other)
        return isinstance(other, MPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly.const(self.vars, other)
        if isinstance(other, MPoly):
            if other.vars != self.vars:
                raise ValueError("mixed variable sets")
            return other
        return NotImplemented

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MPoly(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = MPoly.const(self.vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def derivative(self, name):
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[i]
        return MPoly(self.vars, out)

    def substitute(self, assignment):
        """Substitute scalars for a subset of the variables.

        Returns an MPoly over the same variable tuple (substituted variables
        get exponent 0); use `specialize` for the scalar-producing wrapper.
        """
        idx = {self.vars.index(name): value for name, value in assignment.items()}
        out = {}
        for e, c in self.terms.items():
            val = c
            ne = list(e)
            for i, v in idx.items():
                if e[i]:
                    val = val * v ** e[i]
                    ne[i] = 0
            key = tuple(ne)
            out[key] = out.get(key, 0) + val
        return MPoly(self.vars, out)

    def divexact(self, other):
        """Exact division; raises if the division leaves a remainder.

        An int quotient coefficient stays int when it divides exactly and
        becomes a Fraction otherwise.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if other.vars != self.vars:
            raise ValueError("mixed variable sets")
        packing = _Packing(len(self.vars), _max_exponent((self, other)))
        divisor = _divisor(packing.pack(other))
        quo = _divexact_packed(packing.pack(self), divisor, packing.guard)
        return packing.unpack(self.vars, quo)

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(e), "coef": str(c)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_json(cls, data):
        terms = {}
        for t in data["terms"]:
            c = t["coef"]
            coef = Fraction(c) if "/" in c else int(c)
            terms[tuple(t["exp"])] = coef
        return cls(tuple(data["vars"]), terms)

    def pretty(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            if not mono:
                bits.append(f"{sign} {mag}")
            elif mag == 1:
                bits.append(f"{sign} {mono}")
            else:
                bits.append(f"{sign} {mag}*{mono}")
        s = " ".join(bits)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self):
        return f"MPoly({self.pretty()})"


def _max_exponent(polys):
    return max((max(e, default=0) for p in polys for e in p.terms), default=0)


class _Packing:
    """Kronecker packing of exponent tuples into single ints.

    Variable i occupies bits [i*width, (i+1)*width); the top bit of every
    field is a guard bit that is clear in every packed monomial whose
    exponents are at most `max_exp`.  Packed ints add as exponent tuples do
    while no field carries out of its width, and compare in the
    lexicographic order with the last variable most significant, which is a
    monomial order.
    """

    def __init__(self, nvars, max_exp):
        width = max_exp.bit_length() + 1
        self.shifts = tuple(i * width for i in range(nvars))
        self.mask = (1 << (width - 1)) - 1
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)

    def pack(self, poly):
        shifts = self.shifts
        return {sum(k << s for k, s in zip(e, shifts)): c for e, c in poly.terms.items()}

    def unpack(self, vars, terms):
        shifts, mask = self.shifts, self.mask
        return MPoly(vars, {tuple((m >> s) & mask for s in shifts): c for m, c in terms.items()})


def _coef_div(c, d):
    if isinstance(c, int) and isinstance(d, int):
        q, r = divmod(c, d)
        return q if r == 0 else Fraction(c, d)
    return c / d


def _divisor(div):
    """(lead monomial, lead coefficient, the other terms as offsets from the
    lead) of a nonzero packed divisor."""
    lead = max(div)
    return lead, div[lead], [(d - lead, c) for d, c in div.items() if d != lead]


def _divexact_packed(rem, divisor, guard):
    """Exact quotient of packed polynomials; `rem` is consumed as the remainder.

    A quotient monomial q = lead(rem) - lead(div) is valid iff q >= 0 and no
    field borrowed, i.e. no guard bit is set; otherwise the division is
    inexact.  Valid q plus a divisor monomial cannot carry out of a field, so
    the remainder's monomials stay faithful even where they leave the
    dividend's exponent range (which only an inexact division does).
    """
    lead, lc, tail = divisor
    quo = {}
    if not tail:
        for m, c in rem.items():
            q = m - lead
            if q < 0 or q & guard:
                raise ArithmeticError("inexact polynomial division")
            quo[q] = _coef_div(c, lc)
        return quo
    get, pop = rem.get, rem.pop
    while rem:
        m = max(rem)
        c = pop(m)
        q = m - lead
        if q < 0 or q & guard:
            raise ArithmeticError("inexact polynomial division")
        qc = _coef_div(c, lc)
        quo[q] = qc
        for off, dc in tail:
            t = m + off
            v = get(t, 0) - qc * dc
            if v:
                rem[t] = v
            else:
                pop(t, None)
    return quo


def _mul_sub(a, b, c, d):
    """a*b - c*d on packed polynomials, skipping products with a zero factor."""
    out = {}
    get = out.get
    if a and b:
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    if c and d:
        for mc, cc in c.items():
            for md, cd in d.items():
                m = mc + md
                out[m] = get(m, 0) - cc * cd
    return {m: v for m, v in out.items() if v}


def determinant(entries, bound=DEFAULT_DET_BOUND):
    """Determinant of a square MPoly matrix by fraction-free elimination.

    Bareiss's recurrence a_ij <- (a_kk a_ij - a_ik a_kj) / a_(k-1)(k-1) keeps
    every entry a minor of the input, so each division is exact.  A zero
    pivot is replaced by the first nonzero entry below it (a row swap, which
    flips the sign); a column with no nonzero pivot makes the matrix
    singular.
    """
    n = len(entries)
    if n > bound:
        raise ValueError("determinant too large")
    if n == 0:
        raise ValueError("empty matrix")
    vars = entries[0][0].vars
    # every entry stays a minor, so its exponents are at most n * (largest
    # input exponent); a product of two entries may set guard bits but cannot
    # carry, and its exact quotient is again a valid minor
    packing = _Packing(len(vars), n * _max_exponent(cell for row in entries for cell in row))
    guard = packing.guard
    a = [[packing.pack(cell) for cell in row] for row in entries]
    sign = 1
    prev, divisor = None, None  # the previous pivot; None stands for 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return MPoly.zero(vars)
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            if not lead and pivot == prev:
                continue  # the row is scaled by pivot / prev = 1
            for j in range(k + 1, n):
                if row[j] or lead and top[j]:
                    num = _mul_sub(pivot, row[j], lead, top[j])
                    row[j] = _divexact_packed(num, divisor, guard) if divisor and num else num
        prev, divisor = pivot, _divisor(pivot)
    det = a[n - 1][n - 1]
    if sign < 0:
        det = {m: -c for m, c in det.items()}
    return packing.unpack(vars, det)


@dataclass(frozen=True)
class SylvesterMatrix:
    size: int
    entries: tuple  # tuple of tuples of MPoly
    vars: tuple

    def row(self, i):
        return self.entries[i]


def _coefficient_vars(pair: SupportPair):
    return tuple(f"f{b}" for b in pair.b1) + tuple(f"g{b}" for b in pair.b2)


def sylvester_matrix(pair: SupportPair) -> SylvesterMatrix:
    """Sylvester matrix of the two homogenized forms with symbolic entries.

    Homogenization maps exponent b to x-degree b - min B, so the form of side
    i has degree d_i = spread(B_i); row blocks are d_2 shifted copies of the
    f coefficients (descending x-degree) over d_1 copies of the g rows.
    Exponents absent from the support contribute zero entries.
    """
    vars = _coefficient_vars(pair)
    d1, d2 = pair.b1.spread, pair.b2.spread
    size = d1 + d2

    def coeff_row(support, prefix, degree):
        # descending x-degree: position t holds the coefficient of x^(degree-t)
        row = []
        for t in range(degree + 1):
            b = support.min + degree - t
            if b in support:
                row.append(MPoly.var(vars, f"{prefix}{b}"))
            else:
                row.append(MPoly.zero(vars))
        return row

    frow = coeff_row(pair.b1, "f", d1)
    grow = coeff_row(pair.b2, "g", d2)
    zero = MPoly.zero(vars)
    entries = []
    for i in range(d2):
        entries.append(tuple([zero] * i + frow + [zero] * (size - d1 - 1 - i)))
    for i in range(d1):
        entries.append(tuple([zero] * i + grow + [zero] * (size - d2 - 1 - i)))
    return SylvesterMatrix(size, tuple(entries), vars)


def resultant_poly(pair: SupportPair, bound=DEFAULT_DET_BOUND) -> MPoly:
    """Defining polynomial of the sparse resultant: det of the Sylvester
    matrix of the homogenized forms.

    Normalization is this determinant's sign; when both supports shift into a
    common sublattice the determinant may be a proper power of the
    irreducible equation, so comparisons are up to sign and integer power.
    """
    syl = sylvester_matrix(pair)
    if syl.size > bound:
        raise ValueError("determinant too large")
    return determinant([list(r) for r in syl.entries], bound=bound)


def specialize(poly: MPoly, assignment):
    """Substitute scalars; a full assignment yields a scalar."""
    res = poly.substitute(assignment)
    if len(assignment) == len(poly.vars):
        return res.terms.get((0,) * len(poly.vars), 0)
    return res


def jacobian_vanishes(poly: MPoly, point) -> bool:
    """Do the polynomial and all first partials vanish at the point? Exact."""
    if len(point) != len(poly.vars):
        raise ValueError("full assignment required")
    if specialize(poly, point) != 0:
        return False
    return all(specialize(poly.derivative(v), point) == 0 for v in poly.vars)
