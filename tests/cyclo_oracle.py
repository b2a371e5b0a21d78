"""Exact Z[zeta_n] arithmetic by reduction modulo the cyclotomic polynomial:
the independent oracle for the split-prime decisions of the package.

`CycloElement` keeps a canonical residue mod Phi_n, so its zero test is
structural.  On top of it sit the field RREF and the fraction-free rank over
Q(zeta_n), exact roots of unity, the multiplicity Vandermonde at them, the
all-minors test of the power matrix and the exact single-minor checks,
with the congruence explanations that name two proportional rows or
columns of a vanishing minor (`power_minor_explanation`,
`exponent_minor_explanation`).
`QPoly` keeps the Fraction univariate arithmetic (long division, the
Euclidean gcd `q_gcd`) that the cyclotomic reduction needs; it is also the
oracle for the package's integer-primitive univariate core.  The
package decides the same facts modulo primes that split completely in
Q(zeta_n), each at the conjugates of an element
(`singres.kernels.conjugate_zeros`, `singres.strata._conjugate_ranks`);
these tests compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from singres.exact import clear_denominators
from singres.laurent import falling


def _exact_div(a, b):
    """a / b, staying in int when the division is exact."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return a / b


def divisors(n):
    """Positive divisors of n >= 1, ascending."""
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


class QPoly:
    """Dense polynomial over Q with Fraction arithmetic: long division, the
    Euclidean gcd and root multiplicity by repeated division.  The oracle
    for the package's integer-primitive univariate core, and the Q-division
    that `poly_xgcd` and the cyclotomic reduction need.

    Coefficients are indexed by ascending degree; the zero polynomial is the
    empty coefficient tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def from_roots(cls, roots):
        p = cls.one()
        for r in roots:
            p = p * cls((-r, 1))
        return p

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return QPoly(out)

    def __sub__(self, other):
        return self + (-QPoly(other.coeffs))

    def __mul__(self, other):
        if isinstance(other, QPoly):
            if not self.coeffs or not other.coeffs:
                return QPoly(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return QPoly(out)
        return QPoly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dl = other.coeffs[-1]
        dd = other.degree
        quo = [0] * max(0, len(rem) - dd)
        while len(rem) > dd and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) <= dd:
                break
            q = _exact_div(rem[-1], dl)
            pos = len(rem) - 1 - dd
            quo[pos] = q
            for j, c in enumerate(other.coeffs):
                rem[pos + j] -= q * c
            rem.pop()
        return QPoly(quo), QPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return QPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self):
        if self.is_zero:
            return self
        l = self.lead
        if l == 1:
            return self
        return QPoly(tuple(Fraction(c) / l for c in self.coeffs))

    def root_multiplicity(self, x):
        """Multiplicity of x as a root (0 when not a root)."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        m = 0
        p = self
        lin = QPoly((-x, 1))
        while True:
            q, r = divmod(p, lin)
            if not r.is_zero:
                return m
            m += 1
            p = q
            if p.is_zero:
                return m


def q_gcd(p: QPoly, q: QPoly) -> QPoly:
    """Monic gcd over the rationals by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("undefined gcd")
    a, b = QPoly(p.coeffs), QPoly(q.coeffs)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(p: QPoly, q: QPoly):
    """Extended gcd: returns (g, u, v) monic with u*p + v*q = g."""
    if p.is_zero and q.is_zero:
        raise ValueError("undefined gcd")
    a, b = QPoly(p.coeffs), QPoly(q.coeffs)
    ua, va = QPoly.one(), QPoly.zero()
    ub, vb = QPoly.zero(), QPoly.one()
    while not b.is_zero:
        quo, rem = divmod(a, b)
        a, b = b, rem
        ua, ub = ub, ua - quo * ub
        va, vb = vb, va - quo * vb
    inv = Fraction(1) / a.lead
    return a.monic(), ua * inv, va * inv


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> QPoly:
    """Monic n-th cyclotomic polynomial with integer coefficients.

    Computed as (x^n - 1) divided by the product of the proper-divisor
    cyclotomics; all intermediate divisions are exact over the integers.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = QPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in divisors(n):
        if d < n:
            poly = poly // cyclotomic_polynomial(d)
    return poly


@lru_cache(maxsize=None)
def unity_reduction_table(n: int):
    """Rows x^j mod Phi_n for j = 0..n-1, as integer tuples of length phi(n).

    Since Phi_n divides x^n - 1, exponents reduce mod n; this table therefore
    resolves zeta_n^j for every integer j via j % n.
    """
    phi = cyclotomic_polynomial(n)
    deg = phi.degree
    # -(low part of Phi_n) = x^deg mod Phi_n, used for the iterative shift
    wrap = tuple(-c for c in phi.coeffs[:deg])
    rows = []
    cur = [0] * deg
    if deg > 0:
        cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        top = cur[deg - 1] if deg > 0 else 0
        nxt = [0] * deg
        for i in range(1, deg):
            nxt[i] = cur[i - 1]
        if top:
            for i in range(deg):
                nxt[i] += top * wrap[i]
        cur = nxt
    return tuple(rows)


class CycloElement:
    """Element of Z[zeta_n] (Q[zeta_n] after division), reduced mod Phi_n.

    The representation is canonical, so the zero test and equality are
    structural.  n = 1 is the degenerate field Q (phi(1) = 1 with zeta = 1).
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = n
        deg = cyclotomic_polynomial(n).degree
        coeffs = tuple(coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"residue must have length {deg} for n={n}")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, n):
        return cls(n, (0,) * cyclotomic_polynomial(n).degree)

    @classmethod
    def from_int(cls, n, value):
        deg = cyclotomic_polynomial(n).degree
        return cls(n, (value,) + (0,) * (deg - 1))

    @classmethod
    def root_power(cls, n, k):
        """zeta_n^k as a reduced element."""
        return cls(n, unity_reduction_table(n)[k % n])

    @classmethod
    def from_poly(cls, n, coeffs):
        """Reduce an arbitrary-degree integer/rational polynomial mod Phi_n."""
        rem = QPoly(coeffs) % cyclotomic_polynomial(n)
        deg = cyclotomic_polynomial(n).degree
        padded = list(rem.coeffs) + [0] * (deg - len(rem.coeffs))
        return cls(n, padded)

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def _check(self, other):
        if isinstance(other, CycloElement):
            if other.n != self.n:
                raise ValueError("mixed cyclotomic moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElement.from_int(self.n, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElement.from_int(self.n, other)
        return (
            isinstance(other, CycloElement)
            and other.n == self.n
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.coeffs))

    def __neg__(self):
        return CycloElement(self.n, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElement(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElement(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElement(self.n, tuple(c * other for c in self.coeffs))
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        deg = len(self.coeffs)
        conv = [0] * (2 * deg - 1 if deg else 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                conv[i + j] += a * b
        table = unity_reduction_table(self.n)
        out = list(conv[:deg]) + [0] * (deg - min(deg, len(conv)))
        for e in range(deg, len(conv)):
            c = conv[e]
            if c:
                row = table[e % self.n]
                for i in range(deg):
                    out[i] += c * row[i]
        return CycloElement(self.n, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        g, u, _ = poly_xgcd(QPoly(self.coeffs), cyclotomic_polynomial(self.n))
        if g.degree != 0:
            raise ArithmeticError("element not invertible (unreduced input?)")
        return CycloElement.from_poly(self.n, u.coeffs)

    def __repr__(self):
        return f"CycloElement(n={self.n}, {list(self.coeffs)!r})"


def _primitive(row):
    """A row of ints and integer CycloElements divided by the gcd of all
    their coefficients; a row holding a Fraction is returned unchanged."""
    coeffs = [c for v in row for c in (v.coeffs if isinstance(v, CycloElement) else (v,))]
    if not all(isinstance(c, int) for c in coeffs):
        return row
    g = math.gcd(*coeffs)
    if g <= 1:
        return row
    return [CycloElement(v.n, [c // g for c in v.coeffs]) if isinstance(v, CycloElement) else v // g for v in row]


def cyclo_rank(matrix) -> int:
    """Rank over Q or Q(zeta_n) by fraction-free elimination.

    Rational rows are scaled to integers (rank-invariant).  The rows are
    then eliminated over Z or Z[zeta_n] by cross-multiplication alone
    (row_i <- pivot * row_i - a_i * pivot_row), so nothing is inverted; each
    updated row is divided by the integer gcd of its coefficients, a nonzero
    scalar, which bounds coefficient growth and leaves the rank unchanged.
    """
    if not matrix or not matrix[0]:
        raise ValueError("matrix must be nonempty")
    cyclo = any(isinstance(v, CycloElement) for r in matrix for v in r)
    rows = [list(r) for r in matrix] if cyclo else [clear_denominators(r)[0] for r in matrix]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        for i in range(rank + 1, nrows):
            ival = rows[i][col]
            if ival:
                rows[i][col:] = _primitive([pval * a - ival * b for a, b in zip(rows[i][col:], rows[rank][col:])])
        rank += 1
        if rank == nrows:
            break
    return rank


def cyclo_rref(matrix):
    """Reduced row echelon form over Q or Q(zeta_n) (Fraction or
    CycloElement entries): (rank, pivot_columns, rref_rows)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return 0, [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pval = rows[r][col]
        inv = pval.inverse() if isinstance(pval, CycloElement) else Fraction(1) / Fraction(pval)
        rows[r] = [c * inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows


@dataclass(frozen=True)
class RootOfUnity:
    """Exact root of unity zeta_n^k (no admissibility constraints)."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(self, "k", self.k % self.n)

    def power(self, e: int) -> CycloElement:
        return CycloElement.root_power(self.n, self.k * e)


@dataclass(frozen=True)
class UnityPair:
    """Admissible pair x = zeta_n^p, y = zeta_n^q: x, y != 1 and x != y."""

    n: int
    p: int
    q: int

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("modulus must be positive")
        p, q = self.p % n, self.q % n
        if p == 0 or q == 0 or p == q:
            raise ValueError("unity pair requires x != 1, y != 1, x != y")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


def cyclo_det3(n, a, b, c, p, q):
    """det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]], x = zeta_n^p, y = zeta_n^q,
    in Z[zeta_n]: cofactor expansion along the row of ones."""
    x = [CycloElement.root_power(n, p * e) for e in (a, b, c)]
    y = [CycloElement.root_power(n, q * e) for e in (a, b, c)]
    return (x[1] * y[2] - x[2] * y[1]) - (x[0] * y[2] - x[2] * y[0]) + (x[0] * y[1] - x[1] * y[0])


def all_minors_vanish(b, u: UnityPair) -> bool:
    """Do all 3x3 minors of M(B; x, y) vanish in Z[zeta_n]?  Vacuously true
    for |B| < 3."""
    return all(cyclo_det3(u.n, *t, u.p, u.q).is_zero for t in combinations(b.elements, 3))


def unity_vandermonde(b, pts, js):
    """The multiplicity Vandermonde of b at pairwise distinct RootOfUnity
    points with orders js: rows falling(e, d) * x^(e - d), d < j, over
    Z[zeta_n] (every point lifted to the lcm of the moduli)."""
    n = math.lcm(*(x.n for x in pts))
    lifted = [RootOfUnity(n, x.k * (n // x.n)) for x in pts]
    if len({x.k for x in lifted}) != len(pts) or len(pts) != len(js):
        raise ValueError("one multiplicity per pairwise distinct point required")
    return [
        [falling(e, d) * x.power(e - d) for e in b.elements]
        for x, j in zip(lifted, js)
        for d in range(j)
    ]


@dataclass(frozen=True)
class MinorCheck:
    """Outcome of a single 3x3 minor check."""

    tag: str  # Nondegenerate | PropRows | PropCols | EqualRows13 | Degenerate-unexplained
    rows: tuple | None = None
    cols: tuple | None = None


def power_minor_explanation(n, p, q, a, b, c):
    """Why det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] vanishes at x = zeta_n^p,
    y = zeta_n^q, from integer congruences: a MinorCheck naming two
    proportional rows or columns, or None when no such pair exists.  The
    six congruences are those of the rank lemma of `singres.minors._rank` at
    B = {a, b, c}, one at a time, named."""
    exps = (a, b, c)
    pairs = list(combinations(range(3), 2))

    def const(r):  # zeta_n^(r*e) takes one value over the three exponents
        return all((r * (exps[i] - exps[j])) % n == 0 for i, j in pairs)

    if const(p):
        return MinorCheck("PropRows", rows=(1, 2))
    if const(q):
        return MinorCheck("PropRows", rows=(1, 3))
    if const(p - q):  # (x/y)^a = (x/y)^b = (x/y)^c
        return MinorCheck("PropRows", rows=(2, 3))
    for i, j in pairs:
        d = exps[i] - exps[j]
        if (p * d) % n == 0 and (q * d) % n == 0:
            return MinorCheck("PropCols", cols=(i + 1, j + 1))
    return None


def exponent_minor_explanation(n, p, a, b, c):
    """Why det [[1,1,1],[a,b,c],[x^a,x^b,x^c]] vanishes at x = zeta_n^p:
    EqualRows13 when x^a = x^b = x^c (rows 1 and 3 equal up to the factor
    x^a), else None."""
    if (p * (a - b)) % n == 0 and (p * (b - c)) % n == 0:
        return MinorCheck("EqualRows13", rows=(1, 3))
    return None


def unity_minor_check(a, b, c, x: RootOfUnity, y: RootOfUnity) -> MinorCheck:
    """Structure of det [[1,1,1],[x^a,x^b,x^c],[y^a,y^b,y^c]] at exact roots
    of unity: Nondegenerate, or the proportional rows or columns."""
    n = math.lcm(x.n, y.n)
    p, q = x.k * (n // x.n), y.k * (n // y.n)
    if not cyclo_det3(n, a, b, c, p, q).is_zero:
        return MinorCheck("Nondegenerate")
    return power_minor_explanation(n, p, q, a, b, c) or MinorCheck("Degenerate-unexplained")


def exponent_power_minor_check(a, b, c, x: RootOfUnity) -> MinorCheck:
    """Structure of det [[1,1,1],[a,b,c],[x^a,x^b,x^c]] at an exact root of
    unity, for distinct a, b, c."""
    if len({a, b, c}) != 3:
        raise ValueError("exponents must be distinct")
    xa, xb, xc = (x.power(e) for e in (a, b, c))
    if not ((b * xc - c * xb) - (a * xc - c * xa) + (a * xb - b * xa)).is_zero:
        return MinorCheck("Nondegenerate")
    return exponent_minor_explanation(x.n, x.k, a, b, c) or MinorCheck("Degenerate-unexplained")


def power_rank(b, n, p, q) -> int:
    """Rank of M(B; zeta_n^p, zeta_n^q) over Q(zeta_n), by the RREF."""
    return cyclo_rref([[CycloElement.root_power(n, r * e) for e in b.elements] for r in (0, p, q)])[0]

