"""Exact arithmetic substrate.

Dense univariate polynomials over the rationals, cyclotomic integers with a
decidable zero test, and exact rank / kernel computations.  Scalars are
`int` / `fractions.Fraction` throughout; nothing in this module touches
floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

__all__ = [
    "UniPoly",
    "poly_gcd",
    "poly_xgcd",
    "squarefree_decomposition",
    "cyclotomic_polynomial",
    "euler_phi",
    "CycloElement",
    "unity_reduction_table",
    "exact_rank",
    "exact_rref",
    "kernel_basis",
    "solve_exact",
    "brute_force_rank",
]


def _exact_div(a, b):
    """a / b, staying in int when the division is exact."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return a / b


class UniPoly:
    """Dense univariate polynomial, coefficients indexed by ascending degree.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    Coefficients may be ints or Fractions; operations that divide promote to
    Fraction as needed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

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
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly(())
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        return UniPoly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dl = other.lead
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
        return UniPoly(quo), UniPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

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
        return UniPoly(tuple(Fraction(c) / l for c in self.coeffs))

    def root_multiplicity(self, x):
        """Multiplicity of x as a root (0 when not a root)."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        m = 0
        p = self
        lin = UniPoly((-x, 1))
        while True:
            q, r = divmod(p, lin)
            if not r.is_zero:
                return m
            m += 1
            p = q
            if p.is_zero:
                return m

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def poly_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over the rationals by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise ValueError("undefined gcd")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(p: UniPoly, q: UniPoly):
    """Extended gcd: returns (g, u, v) monic with u*p + v*q = g."""
    if p.is_zero and q.is_zero:
        raise ValueError("undefined gcd")
    a, b = p, q
    ua, va = UniPoly.one(), UniPoly.zero()
    ub, vb = UniPoly.zero(), UniPoly.one()
    while not b.is_zero:
        quo, rem = divmod(a, b)
        a, b = b, rem
        ua, ub = ub, ua - quo * ub
        va, vb = vb, va - quo * vb
    l = a.lead
    inv = Fraction(1) / l
    return a.monic(), ua * inv, va * inv


def squarefree_decomposition(p: UniPoly):
    """Yun's algorithm: list of (monic squarefree factor, multiplicity).

    Factors are pairwise coprime and their weighted product is p up to the
    leading coefficient.  Characteristic zero only.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree <= 0:
        return []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p // a
    c = dp // a
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d) if not d.is_zero else b.monic()
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        d = c - b.derivative()
        i += 1
    return out


def _divisors(n):
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> UniPoly:
    """Monic n-th cyclotomic polynomial with integer coefficients.

    Computed as (x^n - 1) divided by the product of the proper-divisor
    cyclotomics; all intermediate divisions are exact over the integers.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = UniPoly((-1,) + (0,) * (n - 1) + (1,))
    for d in _divisors(n):
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
        rem = UniPoly(coeffs) % cyclotomic_polynomial(n)
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
        g, u, _ = poly_xgcd(UniPoly(self.coeffs), cyclotomic_polynomial(self.n))
        if g.degree != 0:
            raise ArithmeticError("element not invertible (unreduced input?)")
        return CycloElement.from_poly(self.n, u.coeffs)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def to_complex(self):
        import cmath

        z = cmath.exp(2j * cmath.pi / self.n)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self):
        return f"CycloElement(n={self.n}, {list(self.coeffs)!r})"


def exact_rank(matrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination.

    Rows are scaled to integers first (rank-invariant), so intermediate
    entries stay integral and divisions are exact.
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    for r in rows:
        lcm = 1
        for c in r:
            if isinstance(c, Fraction):
                lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
        if lcm != 1:
            for i, c in enumerate(r):
                r[i] = int(c * lcm)
        else:
            for i, c in enumerate(r):
                r[i] = int(c)
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        for i in range(rank + 1, nrows):
            ival = rows[i][col]
            for j in range(col + 1, ncols):
                rows[i][j] = (pval * rows[i][j] - ival * rows[rank][j]) // prev
            rows[i][col] = 0
        prev = pval
        rank += 1
        if rank == nrows:
            break
    return rank


def brute_force_rank(matrix) -> int:
    """Independent rank oracle: largest k with a nonvanishing k×k minor."""
    rows = [list(r) for r in matrix]
    n, m = len(rows), len(rows[0])

    def det(idx_r, idx_c):
        k = len(idx_r)
        if k == 1:
            return Fraction(rows[idx_r[0]][idx_c[0]])
        acc = Fraction(0)
        sign = 1
        for t, c in enumerate(idx_c):
            acc += sign * Fraction(rows[idx_r[0]][c]) * det(idx_r[1:], idx_c[:t] + idx_c[t + 1 :])
            sign = -sign
        return acc

    for k in range(min(n, m), 0, -1):
        for ir in combinations(range(n), k):
            for ic in combinations(range(m), k):
                if det(tuple(ir), tuple(ic)) != 0:
                    return k
    return 0


def _is_nonzero(x):
    if isinstance(x, CycloElement):
        return not x.is_zero
    return bool(x)


def _field_div(a, b):
    """a / b in the exact field generated by the entries (never float)."""
    if isinstance(b, CycloElement):
        return b.inverse() * a
    if isinstance(a, CycloElement):
        return a * (Fraction(1) / Fraction(b))
    return Fraction(a) / Fraction(b)


def exact_rref(matrix):
    """Reduced row echelon form over an exact field (Fraction or CycloElement).

    Returns (rank, pivot_columns, rref_rows).  Entries must support exact
    division; the input is not modified.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return 0, [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if _is_nonzero(rows[i][col]):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pval = rows[r][col]
        rows[r] = [_field_div(c, pval) for c in rows[r]]
        for i in range(len(rows)):
            if i != r and _is_nonzero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows


def kernel_basis(matrix):
    """Basis of the right kernel {v : M v = 0} over an exact field.

    Basis vectors use 1/0/(-pivot entries); entry types follow the matrix.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        raise ValueError("matrix must be nonempty")
    ncols = len(rows[0])
    rank, pivots, rref = exact_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -rref[ri][fc]
        basis.append(v)
    return basis


def solve_exact(matrix, rhs):
    """One exact solution of M x = rhs, or None when inconsistent."""
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    rank, pivots, rref = exact_rref(rows)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for ri, pc in enumerate(pivots):
        x[pc] = rref[ri][ncols]
    return x
