"""Exact arithmetic substrate.

Dense univariate polynomials over the rationals, cyclotomic integers with a
decidable zero test, and exact rank / kernel computations.  Scalars are
`int` / `fractions.Fraction` throughout; nothing in this module touches
floating point.  Stacks of matrices over a prime field F_p, p < 2^31, are
ranked in int64 arrays (`modular_rank`); with `split_prime` they give
certified lower bounds on ranks over Z[zeta_n].
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "UniPoly",
    "poly_gcd",
    "poly_xgcd",
    "squarefree_decomposition",
    "cyclotomic_polynomial",
    "CycloElement",
    "unity_reduction_table",
    "exact_rank",
    "split_prime",
    "modular_rank",
    "exact_rref",
    "kernel_basis",
    "solve_exact",
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


def divisors(n):
    """Positive divisors of n >= 1, ascending."""
    out = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
    return sorted(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> UniPoly:
    """Monic n-th cyclotomic polynomial with integer coefficients.

    Computed as (x^n - 1) divided by the product of the proper-divisor
    cyclotomics; all intermediate divisions are exact over the integers.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = UniPoly((-1,) + (0,) * (n - 1) + (1,))
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

    def __repr__(self):
        return f"CycloElement(n={self.n}, {list(self.coeffs)!r})"


def clear_denominators(values):
    """The ints and Fractions `values` times the lcm of their denominators,
    as ints (a rank- and root-preserving rescaling)."""
    lcm = 1
    for c in values:
        if isinstance(c, Fraction):
            lcm = math.lcm(lcm, c.denominator)
    if lcm == 1:
        return [int(c) for c in values]
    return [c.numerator * (lcm // c.denominator) for c in values]


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


def exact_rank(matrix) -> int:
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
    rows = [list(r) for r in matrix] if cyclo else [clear_denominators(r) for r in matrix]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
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


def _is_prime(m):
    """Deterministic Miller-Rabin for m < 3,215,031,751 (bases 2, 3, 5, 7)."""
    if m < 2:
        return False
    for a in (2, 3, 5, 7):
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def split_prime(n: int):
    """(p, z): the largest prime p < 2^31 with p = 1 mod n, and an element z
    of order exactly n in F_p.

    z is a root of Phi_n mod p, so zeta_n -> z is a ring map Z[zeta_n] ->
    F_p.  A minor that is nonzero mod p is then nonzero over Z[zeta_n]: the
    rank of a reduced matrix is at most the rank over Q(zeta_n) (Cohen, A
    Course in Computational Algebraic Number Theory, on reduction modulo
    primes that split completely in Q(zeta_n)).
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    p = (2**31 - 2) // n * n + 1
    while not _is_prime(p):
        p -= n
    factors = [q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)]
    for a in range(2, p):
        z = pow(a, (p - 1) // n, p)
        if all(pow(z, n // q, p) != 1 for q in factors):
            return p, z
    raise ArithmeticError(f"no element of order {n} mod {p}")  # unreachable: F_p* is cyclic


def modular_rank(stack, primes) -> np.ndarray:
    """Rank of each matrix of an int64 stack (S, rows, cols) over F_p, p =
    primes[s] < 2^31, the entries lying in [0, p): an int array.

    One elimination for the whole stack, column by column, division-free:
    every row not yet used as a pivot becomes piv * row - a * pivrow mod p,
    which scales it by the unit piv and so leaves the rank; no product
    exceeds 2^62.
    """
    a = np.array(stack, dtype=np.int64)
    count, nrows, ncols = a.shape
    primes = np.asarray(primes, dtype=np.int64)[:, None, None]
    idx = np.arange(count)
    free = np.ones((count, nrows), dtype=bool)
    rank = np.zeros(count, dtype=np.int64)
    for col in range(ncols):
        cand = free & (a[:, :, col] != 0)
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        pivrow = a[idx, piv]
        pval = np.where(has, pivrow[:, col], 1)
        free[idx[has], piv[has]] = False
        coef = np.where(free, a[:, :, col], 0)
        a = (pval[:, None, None] * a - coef[:, :, None] * pivrow[:, None, :]) % primes
        rank += has
    return rank


def _is_nonzero(x):
    if isinstance(x, CycloElement):
        return not x.is_zero
    return bool(x)


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
        inv = pval.inverse() if isinstance(pval, CycloElement) else Fraction(1) / Fraction(pval)
        rows[r] = [c * inv for c in rows[r]]
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
